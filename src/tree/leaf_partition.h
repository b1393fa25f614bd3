// The one short-range front end: a leaf partition of the particle array and
// the one loop that runs the kernel over it.
//
// Both short-range solvers of the paper (Sec. II) are leaf partitions. The
// RCB tree (PPTreePM, tree/rcb_tree.h) cuts the array into fat leaves and
// gathers each leaf's neighbors with a tree walk; the chaining mesh (P3M,
// p3m/chaining_mesh.h) cuts it into cells of the hand-over radius and
// gathers the 27-cell neighborhood. Either way a leaf's particles occupy a
// contiguous index range of the permuted array and share one neighbor
// list, so one function, compute_short_range, serves both: the same threaded
// leaf loop, persistent workspace, cost attribution and kernel entry, and
// one duplicate-execution audit (core/audit.h).
//
// Two levels of leaves. The walk runs once per fat leaf (the paper's walk
// minimization), but most of a fat leaf's list lies beyond r_cut of any one
// target. So every leaf is cut further, when the partition is built, into
// sub-leaves of at most kSubLeafSize particles by the same RCB split step
// the tree uses (rcb_split). compute_short_range culls the leaf's gathered
// list once against the leaf's tight box + r_cut, then, per sub-leaf,
// against the sub-leaf's tight box + r_cut (cull_neighbors,
// interaction_batch.h), and runs the kernel on the sub-leaf against what is
// left. The cull is exact: it drops only pairs the kernel's cutoff would
// have masked to zero.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "tree/force_kernel.h"
#include "tree/particles.h"
#include "util/aligned.h"

namespace hacc::tree {

/// One node of a leaf partition: a box and the index range
/// [first, first+count) of the particles in it. An RCB tree node carries
/// its tight bounding box and child links; a chaining-mesh cell its cell
/// box and no children.
struct Node {
  std::array<float, 3> lo{};
  std::array<float, 3> hi{};
  std::uint32_t first = 0;  ///< index range [first, first+count) in the SoA
  std::uint32_t count = 0;
  std::int32_t left = -1;  ///< child node ids; -1 marks a leaf
  std::int32_t right = -1;
  bool is_leaf() const noexcept { return left < 0; }
};

/// Most particles in one sub-leaf: four kTileTargets-row tiles
/// (interaction_batch.h). More only where an RCB split is degenerate.
inline constexpr std::size_t kSubLeafSize = 16;

/// Contiguous, aligned neighbor buffers shared by all particles of a leaf.
/// Doubles as the per-thread walk scratch: the traversal stack lives here
/// so a steady-state gather allocates nothing (capacities persist). The
/// buffers do not zero on resize: every entry is written before it is read.
struct NeighborList {
  scratch_vector<float> x, y, z, m;
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
  /// Append particles [first, first+count) of `p`.
  void append(const ParticleArray& p, std::uint32_t first,
              std::uint32_t count) {
    const std::size_t base = size();
    x.resize(base + count);
    y.resize(base + count);
    z.resize(base + count);
    m.resize(base + count);
    std::copy_n(p.x.data() + first, count, x.data() + base);
    std::copy_n(p.y.data() + first, count, y.data() + base);
    std::copy_n(p.z.data() + first, count, z.data() + base);
    std::copy_n(p.mass.data() + first, count, m.data() + base);
  }
  std::size_t size() const noexcept { return x.size(); }
  std::size_t capacity() const noexcept { return x.capacity(); }
};

/// Statistics accumulated during a force evaluation.
struct InteractionStats {
  std::size_t leaves = 0;
  std::size_t particles = 0;
  /// Particle-neighbor pairs fed to the kernel: each sub-leaf's targets
  /// times its culled list.
  std::size_t interactions = 0;
  /// Pairs the gathers produced, before the cull: each leaf's targets times
  /// its gathered list.
  std::size_t listed = 0;
  std::size_t walk_visits = 0;  ///< nodes touched by all gathers
  double mean_neighbors() const noexcept {
    return particles ? static_cast<double>(interactions) /
                           static_cast<double>(particles)
                     : 0.0;
  }
};

/// One OpenMP thread's lists in the short-range phase.
struct ThreadLists {
  NeighborList gathered;  ///< the leaf's gather; holds the walk stack
  NeighborList culled;    ///< gathered, culled to the leaf's box + r_cut
  NeighborList staged;    ///< culled to one sub-leaf's box: the kernel's list
};

/// Reusable scratch for the short-range kernel phase. A caller that keeps
/// one of these across steps makes the phase allocation-free in steady
/// state: the per-thread lists retain their high-water capacity. Every
/// per-thread list, walk stack included, is re-reserved to the *global*
/// high-water marks at the end of each evaluation, so neither OpenMP
/// dynamic scheduling handing a fat leaf to a different thread nor a
/// thread that got no leaf last time can trigger a regrow.
struct ShortRangeWorkspace {
  std::vector<ThreadLists> threads;  ///< one per OpenMP thread
  std::size_t list_reserve = 0;      ///< high-water list capacity
  std::size_t stack_reserve = 0;     ///< high-water walk-stack capacity

  /// Grow to `nthreads` entries, each list reserved to the high-water marks.
  void prepare_lists(std::size_t nthreads) {
    if (threads.size() < nthreads) threads.resize(nthreads);
    for (auto& t : threads) {
      for (NeighborList* l : {&t.gathered, &t.culled, &t.staged})
        l->reserve(list_reserve);
      t.gathered.walk_stack.reserve(stack_reserve);
    }
  }
  /// Fold this evaluation's capacities into the high-water marks and
  /// re-reserve every list to them now, inside the evaluation that grew.
  void record_high_water() {
    for (const auto& t : threads) {
      list_reserve = std::max({list_reserve, t.gathered.capacity(),
                               t.culled.capacity(), t.staged.capacity()});
      stack_reserve = std::max(stack_reserve, t.gathered.walk_stack.capacity());
    }
    prepare_lists(threads.size());
  }
};

/// A partition of a particle array into leaves, built by permuting the
/// array in place. nodes() holds the partition's nodes and leaves() the
/// ids of those that are leaves with at least one particle; each leaf is
/// cut further into sub_leaves().
class LeafPartition {
 public:
  virtual ~LeafPartition() = default;

  const std::vector<Node>& nodes() const noexcept { return nodes_; }
  const std::vector<std::uint32_t>& leaves() const noexcept { return leaves_; }
  /// The sub-leaves of leaves()[li]: RCB pieces of at most kSubLeafSize
  /// particles (more only where a split was degenerate) that tile the
  /// leaf's index range contiguously and in order, each with the tight box
  /// of its particles.
  std::span<const Node> sub_leaves(std::size_t li) const noexcept {
    return std::span<const Node>(sub_leaves_)
        .subspan(sub_offsets_[li], sub_offsets_[li + 1] - sub_offsets_[li]);
  }
  const ParticleArray& particles() const noexcept { return *particles_; }
  /// The largest gather radius gather_neighbors serves exactly.
  float max_rcut() const noexcept { return max_rcut_; }

  /// Gather every particle within `rcut` of leaf `leaf_node`'s box
  /// (including the leaf's own) into `out`, possibly with more beyond
  /// `rcut` that compute_short_range's cull then drops. `visits`
  /// (optional) counts the nodes touched.
  virtual void gather_neighbors(std::uint32_t leaf_node, float rcut,
                                NeighborList& out,
                                std::size_t* visits = nullptr) const = 0;

 protected:
  LeafPartition(ParticleArray& particles, float max_rcut)
      : particles_(&particles), max_rcut_(max_rcut) {}

  /// Cut every leaf into sub-leaves with rcb_split, permuting each leaf's
  /// range in place (its particle set, and so every node box, is
  /// unchanged). A derived constructor calls this once leaves_ is final.
  void build_sub_leaves();

  ParticleArray* particles_;
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> leaves_;

 private:
  float max_rcut_;
  std::vector<Node> sub_leaves_;
  /// sub_leaves(li) is sub_leaves_[sub_offsets_[li], sub_offsets_[li + 1]).
  std::vector<std::uint32_t> sub_offsets_{0};
};

/// Scratch of recorded swaps for three_phase_partition.
using SwapList = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

/// The paper's three-phase partition of [first, first+count) about `split`
/// along `dim` (phase 1 records swaps scanning the split coordinate, phase
/// 2 applies them to the six position/velocity arrays, phase 3 to the
/// rest). Returns the size of the "below" side. `swaps` is caller-provided
/// scratch.
std::uint32_t three_phase_partition(ParticleArray& particles,
                                    std::uint32_t first, std::uint32_t count,
                                    int dim, float split, SwapList& swaps);

/// Set `node`'s box to the tight bounding box of its particles.
void fit_box(const ParticleArray& particles, Node& node) noexcept;

/// The one RCB split step, shared by the tree build and the sub-leaf cut:
/// split `node`'s range at its particles' center of mass along the longest
/// side of its box (three_phase_partition), and give `below` and `above`
/// their ranges and tight boxes. Returns false, moving nothing, when the
/// split is degenerate (every particle on one side, e.g. coincident ones).
bool rcb_split(ParticleArray& particles, const Node& node, Node& below,
               Node& above, SwapList& swaps);

/// Short-range forces for every particle of the partition: gather once per
/// leaf, cull the list to the leaf's box and then to each sub-leaf's box,
/// and run the kernel for each sub-leaf's particles against its culled list
/// (the tile-batched path of interaction_batch.h, or the scalar loop, per
/// `variant`; both get the same culled lists). `ax/ay/az` are indexed like
/// the (permuted) particle array and are *overwritten*. Threaded over
/// leaves with OpenMP. Neighbor masses are scaled by `mass_scale` (the
/// 1/(4 pi rho_bar) code-unit normalization), folded into the kernel
/// evaluation. Pass a persistent `ws` to make the phase allocation-free
/// across steps. Throws when kernel.rmax exceeds the partition's
/// max_rcut().
InteractionStats compute_short_range(
    const LeafPartition& partition, const ShortRangeKernel& kernel,
    std::span<float> ax, std::span<float> ay, std::span<float> az,
    float mass_scale = 1.0f, KernelVariant variant = default_kernel_variant(),
    ShortRangeWorkspace* ws = nullptr);

}  // namespace hacc::tree
