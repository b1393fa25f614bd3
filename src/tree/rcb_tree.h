// Recursive coordinate bisection (RCB) tree (paper Sec. III).
//
// The two design principles from the paper:
//
//  Spatial locality — the tree is built by recursively splitting particles
//  in two at the center of mass along the longest side of the node's box,
//  *physically partitioning* the SoA arrays so that each node's particles
//  occupy a contiguous index range. Forces are then computed one leaf at a
//  time; all data touched is nearby in memory.
//
//  Walk minimization — leaves are "fat" (tens to hundreds of particles).
//  Every particle in a leaf shares one interaction list, so the relatively
//  slow pointer-chasing walk happens once per leaf while the highly tuned
//  vector kernel does the O(N_d^2) work.
//
// The partition step is the paper's three-phase scheme: phase 1 scans the
// split coordinate and records the swaps; phase 2 applies them to the six
// position/velocity arrays; phase 3 to the remaining arrays. Separating the
// phases turns the data movement into streaming passes that prefetch well
// and avoid read-after-write hazards. The split step (rcb_split,
// three_phase_partition) lives in tree/leaf_partition.h, which also runs it
// below the fat leaves to cut the kernel's sub-leaves.
#pragma once

#include <cstdint>

#include "tree/leaf_partition.h"
#include "tree/particles.h"

namespace hacc::tree {

struct RcbConfig {
  /// Target particles per leaf ("fat leaves": ~200 on BG/Q, up to 1e5 in
  /// the no-tree CPU/GPU limit).
  std::size_t leaf_size = 128;
};

/// The RCB tree as a leaf partition: nodes() is the whole tree (node 0 the
/// root), leaves() its fat leaves, each cut into sub_leaves().
class RcbTree final : public LeafPartition {
 public:
  /// Build over the particles, permuting the SoA in place.
  explicit RcbTree(ParticleArray& particles, RcbConfig config = {});

  std::size_t depth() const noexcept { return depth_; }

  /// Gather every particle within `rcut` of the leaf's bounding box
  /// (including the leaf's own) into `out`. `visits` (optional) counts
  /// nodes touched. This is the walk the fat-leaf design minimizes.
  void gather_neighbors(std::uint32_t leaf_node, float rcut,
                        NeighborList& out,
                        std::size_t* visits = nullptr) const override;

 private:
  void build(RcbConfig config);

  std::size_t depth_ = 0;
};

}  // namespace hacc::tree
