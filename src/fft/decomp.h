// Block distributions of grid indices over ranks.
//
// All distributed grids in this codebase use contiguous block distributions
// where rank p of P owns global indices [start(p), start(p+1)). Blocks may
// be uneven when P does not divide N (the pencil FFT is explicitly
// "non-power-of-two", paper Sec. IV-A), so every transpose works with
// per-rank counts rather than assuming equal shares.
#pragma once

#include <cstddef>

#include "util/error.h"

namespace hacc::fft {

/// First global index owned by rank p when N indices are split over P ranks.
inline std::size_t block_start(std::size_t n, int p_total, int p) {
  HACC_ASSERT(p >= 0 && p <= p_total);
  return (n * static_cast<std::size_t>(p)) / static_cast<std::size_t>(p_total);
}

/// Number of indices owned by rank p.
inline std::size_t block_size(std::size_t n, int p_total, int p) {
  return block_start(n, p_total, p + 1) - block_start(n, p_total, p);
}

/// Rank that owns global index i.
inline int block_owner(std::size_t n, int p_total, std::size_t i) {
  HACC_ASSERT(i < n);
  // start(p) = floor(n*p/P) <= i  <=>  p <= (i*P + P - 1)/n ... search the
  // candidate and fix up boundary effects of the floor.
  int p = static_cast<int>((i * static_cast<std::size_t>(p_total)) / n);
  while (block_start(n, p_total, p) > i) --p;
  while (block_start(n, p_total, p + 1) <= i) ++p;
  return p;
}

/// Inclusive-exclusive index range [lo, hi) of one axis on one rank.
struct Range {
  std::size_t lo = 0;
  std::size_t hi = 0;
  std::size_t extent() const noexcept { return hi - lo; }
  bool contains(std::size_t i) const noexcept { return i >= lo && i < hi; }
  bool operator==(const Range&) const = default;
};

inline Range block_range(std::size_t n, int p_total, int p) {
  return Range{block_start(n, p_total, p), block_start(n, p_total, p + 1)};
}

/// A rank-local box of the global grid: per-axis ranges. Row-major storage
/// (x slowest, z fastest) with extents (nx, ny, nz).
struct Box3D {
  Range x, y, z;
  std::size_t volume() const noexcept {
    return x.extent() * y.extent() * z.extent();
  }
  bool operator==(const Box3D&) const = default;
};

}  // namespace hacc::fft
