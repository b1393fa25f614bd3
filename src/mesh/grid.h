// Distributed real-space grids in HACC's 3-D block decomposition.
//
// Each rank owns a regular (generally non-cubic) block of the global
// periodic grid (paper Sec. II) plus a ghost layer of width `ghost` on every
// side. Two exchange operations cover everything the PM solver needs:
//
//   fold_ghosts: add each rank's ghost-layer contributions into the owning
//     rank's interior (used after CIC deposit: particles near a boundary
//     deposit mass into cells owned by a neighbor);
//   fill_ghosts: copy owned interior values into neighbors' ghost layers
//     (used after the Poisson solve so forces can be interpolated at
//     particles whose CIC cloud straddles the domain edge).
//
// Exchanges are axis-by-axis sweeps (x, then y, then z) which propagate
// edge/corner regions automatically.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "comm/cart.h"
#include "comm/comm.h"
#include "fft/decomp.h"

namespace hacc::mesh {

using fft::Box3D;
using fft::Range;

/// The global grid shape plus a 3-D Cartesian rank layout; maps each rank to
/// its block of cells.
class BlockDecomp3D {
 public:
  BlockDecomp3D(std::array<std::size_t, 3> grid_dims,
                comm::Cart3D topology)
      : dims_(grid_dims), topo_(topology) {
    for (int d = 0; d < 3; ++d)
      HACC_CHECK_MSG(
          static_cast<std::size_t>(topo_.dims()[static_cast<std::size_t>(d)]) <=
              dims_[static_cast<std::size_t>(d)],
          "more ranks than cells along an axis");
  }

  static BlockDecomp3D balanced(std::array<std::size_t, 3> grid_dims,
                                int nranks) {
    return BlockDecomp3D(grid_dims, comm::Cart3D::balanced(nranks));
  }

  const std::array<std::size_t, 3>& grid_dims() const noexcept {
    return dims_;
  }
  const comm::Cart3D& topology() const noexcept { return topo_; }
  int nranks() const noexcept { return topo_.size(); }

  /// The block of global cells owned by `rank`.
  Box3D box_of(int rank) const {
    const auto c = topo_.coords(rank);
    return Box3D{
        fft::block_range(dims_[0], topo_.dims()[0], c[0]),
        fft::block_range(dims_[1], topo_.dims()[1], c[1]),
        fft::block_range(dims_[2], topo_.dims()[2], c[2]),
    };
  }

  /// Rank owning global cell (x, y, z).
  int owner_of(std::size_t x, std::size_t y, std::size_t z) const {
    return topo_.rank_of({fft::block_owner(dims_[0], topo_.dims()[0], x),
                          fft::block_owner(dims_[1], topo_.dims()[1], y),
                          fft::block_owner(dims_[2], topo_.dims()[2], z)});
  }

 private:
  std::array<std::size_t, 3> dims_;
  comm::Cart3D topo_;
};

/// Rank-local block of a distributed grid, with ghost layers.
///
/// Local storage covers [lo - g, hi + g) per axis in global coordinates
/// (periodically wrapped); the interior [lo, hi) is this rank's owned block.
class DistGrid {
 public:
  DistGrid(const BlockDecomp3D& decomp, int rank, std::size_t ghost);

  const Box3D& interior() const noexcept { return box_; }
  std::size_t ghost() const noexcept { return ghost_; }
  const BlockDecomp3D& decomp() const noexcept { return decomp_; }
  int rank() const noexcept { return rank_; }

  /// Local extents including ghosts.
  std::array<std::size_t, 3> local_dims() const noexcept {
    return {box_.x.extent() + 2 * ghost_, box_.y.extent() + 2 * ghost_,
            box_.z.extent() + 2 * ghost_};
  }
  std::size_t local_volume() const noexcept {
    const auto d = local_dims();
    return d[0] * d[1] * d[2];
  }

  /// Element access by *offset from the interior origin*: i in
  /// [-ghost, extent_x + ghost), etc.
  double& at(std::ptrdiff_t i, std::ptrdiff_t j, std::ptrdiff_t k) {
    return data_[index(i, j, k)];
  }
  double at(std::ptrdiff_t i, std::ptrdiff_t j, std::ptrdiff_t k) const {
    return data_[index(i, j, k)];
  }

  /// The z-run at offsets (i, j): at(i, j, k) is z_run(i, j)[k], and the
  /// interior part of the run, k in [0, extent_z), is contiguous.
  double* z_run(std::ptrdiff_t i, std::ptrdiff_t j) {
    return data_.data() + index(i, j, 0);
  }
  const double* z_run(std::ptrdiff_t i, std::ptrdiff_t j) const {
    return data_.data() + index(i, j, 0);
  }

  std::vector<double>& data() noexcept { return data_; }
  const std::vector<double>& data() const noexcept { return data_; }

  void fill(double value);

  /// Add ghost-layer values into the owning neighbors' interiors and zero
  /// the local ghosts. Collective over `comm` (all ranks of the decomp).
  void fold_ghosts(comm::Comm& comm);

  /// Copy interior values into neighbors' ghost layers. Collective.
  void fill_ghosts(comm::Comm& comm);

  /// Sum over the interior only.
  double interior_sum() const;

 private:
  std::size_t index(std::ptrdiff_t i, std::ptrdiff_t j,
                    std::ptrdiff_t k) const {
    const auto d = local_dims();
    const auto g = static_cast<std::ptrdiff_t>(ghost_);
    HACC_ASSERT(i >= -g && i < static_cast<std::ptrdiff_t>(box_.x.extent()) + g);
    HACC_ASSERT(j >= -g && j < static_cast<std::ptrdiff_t>(box_.y.extent()) + g);
    HACC_ASSERT(k >= -g && k < static_cast<std::ptrdiff_t>(box_.z.extent()) + g);
    return (static_cast<std::size_t>(i + g) * d[1] +
            static_cast<std::size_t>(j + g)) *
               d[2] +
           static_cast<std::size_t>(k + g);
  }

  /// One exchange sweep along `axis`; `fold` selects fold vs fill.
  void sweep(comm::Comm& comm, int axis, bool fold);

  BlockDecomp3D decomp_;
  int rank_;
  Box3D box_;
  std::size_t ghost_;
  std::vector<double> data_;
  // One slab of a sweep, packed; kept so warm sweeps grow no buffer.
  std::vector<double> slab_;
};

}  // namespace hacc::mesh
