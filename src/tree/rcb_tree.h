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
// and avoid read-after-write hazards.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "tree/force_kernel.h"
#include "tree/particles.h"

namespace hacc::tree {

struct RcbNode {
  std::array<float, 3> lo{};  ///< tight bounding box
  std::array<float, 3> hi{};
  std::uint32_t first = 0;  ///< index range [first, first+count) in the SoA
  std::uint32_t count = 0;
  std::int32_t left = -1;  ///< child node ids; -1 marks a leaf
  std::int32_t right = -1;
  bool is_leaf() const noexcept { return left < 0; }
};

struct RcbConfig {
  /// Target particles per leaf ("fat leaves": ~200 on BG/Q, up to 1e5 in
  /// the no-tree CPU/GPU limit).
  std::size_t leaf_size = 128;
};

/// Contiguous, aligned neighbor buffers shared by all particles of a leaf.
/// Doubles as the per-thread walk scratch: the traversal stack lives here
/// so a steady-state gather allocates nothing (capacities persist).
struct NeighborList {
  aligned_vector<float> x, y, z, m;
  std::vector<std::int32_t> walk_stack;  ///< tree-walk scratch, reused
  void clear() noexcept {
    x.clear();
    y.clear();
    z.clear();
    m.clear();
  }
  void reserve(std::size_t n) {
    x.reserve(n);
    y.reserve(n);
    z.reserve(n);
    m.reserve(n);
  }
  std::size_t size() const noexcept { return x.size(); }
  std::size_t capacity() const noexcept { return x.capacity(); }
};

/// Statistics accumulated during a force evaluation.
struct InteractionStats {
  std::size_t leaves = 0;
  std::size_t particles = 0;
  std::size_t interactions = 0;  ///< particle-neighbor pairs fed to the kernel
  std::size_t walk_visits = 0;   ///< tree nodes touched by all walks
  double mean_neighbors() const noexcept {
    return particles ? static_cast<double>(interactions) /
                           static_cast<double>(particles)
                     : 0.0;
  }
};

/// Reusable scratch for the short-range kernel phase. A caller that keeps
/// one of these across steps makes the phase allocation-free in steady
/// state: the per-thread neighbor lists retain their high-water capacity.
/// Every per-thread list, walk stack included, is re-reserved to the
/// *global* high-water marks at the end of each evaluation, so neither
/// OpenMP dynamic scheduling handing a fat leaf to a different thread nor
/// a thread that got no leaf last time can trigger a regrow.
struct ShortRangeWorkspace {
  std::vector<NeighborList> lists;  ///< one per OpenMP thread
  std::size_t list_reserve = 0;     ///< high-water neighbor-list capacity
  std::size_t stack_reserve = 0;    ///< high-water walk-stack capacity

  /// Grow to `nthreads` lists, each reserved to the high-water marks.
  void prepare_lists(std::size_t nthreads) {
    if (lists.size() < nthreads) lists.resize(nthreads);
    for (auto& l : lists) {
      l.reserve(list_reserve);
      l.walk_stack.reserve(stack_reserve);
    }
  }
  /// Fold this evaluation's capacities into the high-water marks and
  /// re-reserve every list to them now, inside the evaluation that grew.
  void record_high_water() {
    for (const auto& l : lists) {
      list_reserve = std::max(list_reserve, l.capacity());
      stack_reserve = std::max(stack_reserve, l.walk_stack.capacity());
    }
    prepare_lists(lists.size());
  }
};

class RcbTree {
 public:
  /// Build over the particles, permuting the SoA in place.
  explicit RcbTree(ParticleArray& particles, RcbConfig config = {});

  const std::vector<RcbNode>& nodes() const noexcept { return nodes_; }
  const std::vector<std::uint32_t>& leaves() const noexcept { return leaves_; }
  const ParticleArray& particles() const noexcept { return *particles_; }
  std::size_t depth() const noexcept { return depth_; }

  /// Gather every particle within `rcut` of the leaf's bounding box
  /// (including the leaf's own) into `out`. `visits` (optional) counts
  /// nodes touched. This is the walk the fat-leaf design minimizes.
  void gather_neighbors(std::uint32_t leaf_node, float rcut,
                        NeighborList& out,
                        std::size_t* visits = nullptr) const;

 private:
  void build(RcbConfig config);

  ParticleArray* particles_;
  std::vector<RcbNode> nodes_;
  std::vector<std::uint32_t> leaves_;
  std::size_t depth_ = 0;
};

/// The paper's three-phase partition of [first, first+count) about `split`
/// along `dim` (phase 1 records swaps scanning the split coordinate, phase
/// 2 applies them to the six position/velocity arrays, phase 3 to the
/// rest). Returns the size of the "below" side. `swaps` is caller-provided
/// scratch.
std::uint32_t three_phase_partition(
    ParticleArray& particles, std::uint32_t first, std::uint32_t count,
    int dim, float split,
    std::vector<std::pair<std::uint32_t, std::uint32_t>>& swaps);

/// Short-range forces for every local particle: walk once per leaf, then
/// run the kernel for the leaf's particles against the shared list (the
/// tile-batched path of interaction_batch.h, or the scalar loop, per
/// `variant`). `ax/ay/az` are indexed like the (tree-permuted) particle
/// array and are *overwritten*. Threaded over leaves with OpenMP. Neighbor
/// masses are scaled by `mass_scale` (the 1/(4 pi rho_bar) code-unit
/// normalization), folded into the kernel evaluation. Pass a persistent
/// `ws` to make the phase allocation-free across steps.
InteractionStats compute_short_range(
    const RcbTree& tree, const ShortRangeKernel& kernel, std::span<float> ax,
    std::span<float> ay, std::span<float> az, float mass_scale = 1.0f,
    KernelVariant variant = default_kernel_variant(),
    ShortRangeWorkspace* ws = nullptr);

}  // namespace hacc::tree
