// Redistribution between two box layouts of the same global grid.
//
// HACC's particle sector lives on a 3-D block decomposition while its FFT
// lives on 2-D pencils; the PM solve therefore remaps grid data between the
// two layouts on every long-range step (as in HACC's released SWFFT
// "distribution" component). Both layouts are described by one
// non-overlapping box per rank covering the global grid; the remap computes
// pairwise box intersections, packs them by contiguous z-runs, and runs a
// single all-to-all. Through caller-owned Buffers a steady-state remap makes
// no heap allocation.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "comm/comm.h"
#include "fft/decomp.h"
#include "util/error.h"

namespace hacc::mesh {

class Redistributor {
 public:
  /// `src_boxes[r]` / `dst_boxes[r]` is the box rank r owns in each layout.
  /// Every rank constructs the same Redistributor (cheap; no communication).
  Redistributor(std::vector<fft::Box3D> src_boxes,
                std::vector<fft::Box3D> dst_boxes);

  /// Pack/exchange workspace a caller keeps across remaps: once it has
  /// grown to the largest block it carries, remaps reuse it.
  struct Buffers {
    std::vector<double> send, recv;
    std::vector<std::size_t> counts, rcounts;
  };

  /// Remap this rank's source-layout block (row-major over its src box) to
  /// its destination-layout block in `out` (resized to it; not `src`'s
  /// storage). Collective.
  void forward(comm::Comm& comm, std::span<const double> src,
               std::vector<double>& out, Buffers& buf) const;

  /// The inverse remap (dst layout -> src layout). Collective.
  void backward(comm::Comm& comm, std::span<const double> dst,
                std::vector<double>& out, Buffers& buf) const;

  /// One-off remaps into fresh vectors (allocate every call).
  std::vector<double> forward(comm::Comm& comm,
                              std::span<const double> src) const;
  std::vector<double> backward(comm::Comm& comm,
                               std::span<const double> dst) const;

 private:
  void exchange(comm::Comm& comm, std::span<const double> in,
                const std::vector<fft::Box3D>& from,
                const std::vector<fft::Box3D>& to, std::vector<double>& out,
                Buffers& buf) const;

  std::vector<fft::Box3D> src_, dst_;
};

/// Intersection of two boxes (possibly empty).
fft::Box3D intersect(const fft::Box3D& a, const fft::Box3D& b);

}  // namespace hacc::mesh
