// One box remap: every layout change of the spectral path.
//
// A distributed grid layout is one box of global indices per rank, each
// stored row-major (x slowest, z fastest), the boxes tiling the grid without
// overlap. Moving a grid from one layout to another is the same operation
// whether the particle sector's 3-D blocks become z-pencils (HACC's
// block->pencil redistribution, arXiv:1410.2805) or the pencil FFT
// transposes z<->y over a row or y<->x over a column of its process grid
// (paper Sec. IV-A): every rank sends each peer the intersection of its box
// with the peer's box in the other layout. A BoxRemap is that plan, the
// per-rank source and destination boxes over one communicator, and a remap
// is one pack, one Comm::alltoallv_into and one unpack, in place on the
// caller's vector through send/receive buffers the caller keeps, so a
// steady-state remap grows no buffer.
//
// Copies move the longest contiguous run the two layouts share (a z-run; a
// whole (y, z) slab, or the whole intersection, where the piece spans the
// box's inner extents) and skip what moves nothing:
//   - no pack when the pieces for peers 0..P-1 already lie contiguously and
//     in rank order in the source (x-pencil -> y-pencil);
//   - no unpack when the received pieces land contiguously and in rank
//     order in the destination (y-pencil -> x-pencil);
//   - no exchange when every rank's source box is its destination box. Each
//     rank decides that from all ranks' boxes, never from its own alone, so
//     no rank skips a collective its peers enter.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "comm/comm.h"
#include "fft/decomp.h"

namespace hacc::fft {

/// Intersection of two boxes (volume 0 when they do not overlap).
Box3D intersect(const Box3D& a, const Box3D& b);

/// The contiguous runs a sub-box `piece` occupies in the row-major storage
/// of `box`: `count` runs of `len` elements, run k starting at offset(k).
/// Packed row-major, the piece holds run k at k * len.
struct BoxRuns {
  std::size_t len = 0;
  std::size_t count = 0;
  std::size_t base = 0;      ///< storage offset of the piece's first cell
  std::size_t per_x = 1;     ///< runs per x-plane of the piece
  std::size_t x_stride = 0;  ///< storage offsets between x-planes / y-rows
  std::size_t y_stride = 0;
  std::size_t offset(std::size_t k) const noexcept {
    return base + k / per_x * x_stride + k % per_x * y_stride;
  }
};
BoxRuns box_runs(const Box3D& piece, const Box3D& box);

/// A remap plan between two layouts of one grid over one communicator, for
/// element type T (double or Complex).
template <typename T>
class BoxRemap {
 public:
  /// Exchange workspace a caller keeps across remaps.
  struct Buffers {
    std::vector<T> send, recv;
    std::vector<std::size_t> counts, rcounts;
    /// Size for remaps of up to `elems` elements over up to `peers` ranks,
    /// so that none of them grows a buffer.
    void reserve(std::size_t elems, std::size_t peers) {
      send.reserve(elems);
      recv.reserve(elems);
      counts.reserve(peers);
      rcounts.reserve(peers);
    }
  };

  /// `src_boxes[r]` / `dst_boxes[r]` is the box rank r owns in each layout.
  /// Every rank constructs the same plan (no communication).
  BoxRemap(std::vector<Box3D> src_boxes, std::vector<Box3D> dst_boxes);

  /// In place: `data` holds this rank's source-layout block and on return
  /// its destination-layout block. `data` grows to the destination volume,
  /// so reserve it once to stay allocation-free. Collective over `comm`,
  /// except where every rank's source box is its destination box: then
  /// no rank makes a collective call and `data` stays as it is.
  void forward(const comm::Comm& comm, std::vector<T>& data,
               Buffers& buf) const;
  /// The inverse remap (destination layout -> source layout), in place.
  void backward(const comm::Comm& comm, std::vector<T>& data,
                Buffers& buf) const;

  /// One-off remaps into fresh vectors (allocate every call).
  std::vector<T> forward(const comm::Comm& comm, std::span<const T> src) const;
  std::vector<T> backward(const comm::Comm& comm,
                          std::span<const T> dst) const;

 private:
  void exchange(const comm::Comm& comm, const std::vector<Box3D>& from,
                const std::vector<Box3D>& to, std::vector<T>& data,
                Buffers& buf) const;

  std::vector<Box3D> src_, dst_;
  bool moves_nothing_;  ///< every rank's source box is its destination box
};

}  // namespace hacc::fft
