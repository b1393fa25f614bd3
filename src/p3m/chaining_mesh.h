// P3M short-range solver: chaining-mesh direct particle-particle sums.
//
// This is HACC's short/close-range algorithm on accelerated systems
// (Roadrunner; paper Sec. II): no tree at all — particles are binned into a
// chaining mesh with cells at least the hand-over radius wide, and each
// particle interacts directly with everything in its 27-cell neighborhood
// ("N_d as large as 1e5 ... no mediating tree"). Within HACC the
// availability of both P3M and PPTreePM enables the cross-algorithm error
// analysis quoted in the paper (0.1% power-spectrum agreement), which this
// repository reproduces in bench/solver_agreement.
//
// The chaining mesh is a leaf partition (tree/leaf_partition.h) like the
// RCB tree: its leaves are the non-empty cells and its gather copies the
// 27 neighbor cells. tree::compute_short_range and the duplicate-execution
// audit run it unchanged, so P3M and PPTreePM differ *only* in how leaves
// and neighbor lists are produced. Each cell is cut into RCB sub-leaves
// like a tree leaf, so P3M's 27-cell list is culled per sub-leaf too.
#pragma once

#include <array>

#include "tree/leaf_partition.h"
#include "tree/particles.h"

namespace hacc::p3m {

class ChainingMesh final : public tree::LeafPartition {
 public:
  /// Bin the particles into cubic cells of side `cell` over their bounding
  /// box and permute the SoA into cell order (a counting sort), then cut
  /// each cell's range into sub-leaves. `cell` must be at least the gather
  /// radius: it is max_rcut(). nodes() holds every cell, in x-major order,
  /// with its cell box and index range.
  ChainingMesh(tree::ParticleArray& particles, float cell);

  /// Copy the particles of the (up to) 27 cells around `leaf_node` into
  /// `out`: every particle within `rcut` <= cell side of the cell, and
  /// more. The neighborhood is clipped at the mesh edge, with no periodic
  /// wrap (overloading provides the replicas). `visits` (optional) counts
  /// the cells copied, empty ones included.
  void gather_neighbors(std::uint32_t leaf_node, float rcut,
                        tree::NeighborList& out,
                        std::size_t* visits = nullptr) const override;

 private:
  std::array<int, 3> ncells_{};
};

}  // namespace hacc::p3m
