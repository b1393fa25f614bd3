#include "tree/leaf_partition.h"

#include <limits>

#include "obs/costmap.h"
#include "obs/obs.h"
#include "tree/interaction_batch.h"
#include "util/error.h"
#include "util/telemetry.h"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace hacc::tree {

namespace {

const float* coord_array(const ParticleArray& p, int dim) {
  return dim == 0 ? p.x.data() : dim == 1 ? p.y.data() : p.z.data();
}

/// The bounding box of `boxes`: for sub-leaves, their leaf's tight box.
Node bounding_box(std::span<const Node> boxes) noexcept {
  Node box = boxes.front();
  for (const Node& b : boxes.subspan(1)) {
    for (std::size_t d = 0; d < 3; ++d) {
      box.lo[d] = std::min(box.lo[d], b.lo[d]);
      box.hi[d] = std::max(box.hi[d], b.hi[d]);
    }
  }
  return box;
}

}  // namespace

std::uint32_t three_phase_partition(ParticleArray& p, std::uint32_t first,
                                    std::uint32_t count, int dim, float split,
                                    SwapList& swaps) {
  const float* coord = coord_array(p, dim);

  // Phase 1: scan the split coordinate only, recording the swaps (two-pointer
  // sweep; nothing is moved yet).
  swaps.clear();
  std::uint32_t i = first;
  std::uint32_t j = first + count;  // one past the end
  for (;;) {
    // Note: a recorded swap means coord[i] and coord[j] conceptually change
    // places, but since i only moves right and j only moves left, the scan
    // never revisits a swapped slot and needs no actual data movement here.
    while (i < j && coord[i] < split) ++i;
    while (i < j && coord[j - 1] >= split) --j;
    if (i + 1 >= j) break;
    swaps.emplace_back(i, j - 1);
    ++i;
    --j;
  }
  const std::uint32_t below = i - first;

  // Phase 2: apply the recorded swaps to the six position/velocity arrays.
  for (auto [a, b] : swaps) {
    std::swap(p.x[a], p.x[b]);
    std::swap(p.y[a], p.y[b]);
    std::swap(p.z[a], p.z[b]);
    std::swap(p.vx[a], p.vx[b]);
    std::swap(p.vy[a], p.vy[b]);
    std::swap(p.vz[a], p.vz[b]);
  }
  // Phase 3: the remaining arrays.
  for (auto [a, b] : swaps) {
    std::swap(p.mass[a], p.mass[b]);
    std::swap(p.ax[a], p.ax[b]);
    std::swap(p.ay[a], p.ay[b]);
    std::swap(p.az[a], p.az[b]);
    std::swap(p.id[a], p.id[b]);
    std::swap(p.role[a], p.role[b]);
  }
  return below;
}

void fit_box(const ParticleArray& p, Node& node) noexcept {
  node.lo.fill(std::numeric_limits<float>::max());
  node.hi.fill(std::numeric_limits<float>::lowest());
  for (std::uint32_t i = node.first; i < node.first + node.count; ++i) {
    node.lo[0] = std::min(node.lo[0], p.x[i]);
    node.hi[0] = std::max(node.hi[0], p.x[i]);
    node.lo[1] = std::min(node.lo[1], p.y[i]);
    node.hi[1] = std::max(node.hi[1], p.y[i]);
    node.lo[2] = std::min(node.lo[2], p.z[i]);
    node.hi[2] = std::max(node.hi[2], p.z[i]);
  }
}

bool rcb_split(ParticleArray& p, const Node& node, Node& below, Node& above,
               SwapList& swaps) {
  // Split perpendicular to the longest side, at the center of mass.
  std::size_t dim = 0;
  for (std::size_t d = 1; d < 3; ++d)
    if (node.hi[d] - node.lo[d] > node.hi[dim] - node.lo[dim]) dim = d;
  const float* coord = coord_array(p, static_cast<int>(dim));
  double msum = 0.0, mxsum = 0.0;
  for (std::uint32_t i = node.first; i < node.first + node.count; ++i) {
    msum += p.mass[i];
    mxsum += static_cast<double>(p.mass[i]) * coord[i];
  }
  const float split = msum > 0 ? static_cast<float>(mxsum / msum)
                               : 0.5f * (node.lo[dim] + node.hi[dim]);
  const std::uint32_t n_below = three_phase_partition(
      p, node.first, node.count, static_cast<int>(dim), split, swaps);
  if (n_below == 0 || n_below == node.count) return false;
  below = Node{{}, {}, node.first, n_below, -1, -1};
  above = Node{{}, {}, node.first + n_below, node.count - n_below, -1, -1};
  fit_box(p, below);
  fit_box(p, above);
  return true;
}

void LeafPartition::build_sub_leaves() {
  sub_leaves_.clear();
  sub_offsets_.assign(1, 0);
  sub_offsets_.reserve(leaves_.size() + 1);
  SwapList swaps;
  std::vector<Node> stack;
  for (const std::uint32_t leaf : leaves_) {
    // Start from the tight box: a chaining-mesh cell's box is not one.
    Node root{{}, {}, nodes_[leaf].first, nodes_[leaf].count, -1, -1};
    fit_box(*particles_, root);
    stack.push_back(root);
    while (!stack.empty()) {
      const Node node = stack.back();
      stack.pop_back();
      Node below, above;
      if (node.count <= kSubLeafSize ||
          !rcb_split(*particles_, node, below, above, swaps)) {
        sub_leaves_.push_back(node);
        continue;
      }
      stack.push_back(above);
      stack.push_back(below);  // popped first: sub-leaves stay in index order
    }
    sub_offsets_.push_back(static_cast<std::uint32_t>(sub_leaves_.size()));
  }
}

InteractionStats compute_short_range(const LeafPartition& partition,
                                     const ShortRangeKernel& kernel,
                                     std::span<float> ax, std::span<float> ay,
                                     std::span<float> az, float mass_scale,
                                     KernelVariant variant,
                                     ShortRangeWorkspace* ws) {
  const ParticleArray& p = partition.particles();
  HACC_CHECK(ax.size() == p.size() && ay.size() == p.size() &&
             az.size() == p.size());
  HACC_CHECK_MSG(kernel.rmax <= partition.max_rcut(),
                 "the partition's gather must cover the hand-over radius");
  const auto& leaves = partition.leaves();
  InteractionStats stats;
  stats.leaves = leaves.size();
  stats.particles = p.size();

  ShortRangeWorkspace local;
  ShortRangeWorkspace& w = ws != nullptr ? *ws : local;
#ifdef _OPENMP
  w.prepare_lists(static_cast<std::size_t>(omp_get_max_threads()));
#else
  w.prepare_lists(1);
#endif

  // Cost attribution: the thread-local binding does not propagate into the
  // OpenMP workers, so capture the rank thread's cost map here and share
  // the pointer (CostMap::record is thread-safe, one call per leaf).
  obs::CostMap* cost = obs::cost_map();
  const float rmax2 = kernel.rmax2();

  std::size_t interactions = 0, listed = 0, walk_visits = 0;
#pragma omp parallel reduction(+ : interactions, listed, walk_visits)
  {
#ifdef _OPENMP
    ThreadLists& lists =
        w.threads[static_cast<std::size_t>(omp_get_thread_num())];
#else
    ThreadLists& lists = w.threads[0];
#endif
#pragma omp for schedule(dynamic, 1)
    for (std::size_t li = 0; li < leaves.size(); ++li) {
      const Node& leaf = partition.nodes()[leaves[li]];
      partition.gather_neighbors(leaves[li], kernel.rmax, lists.gathered,
                                 &walk_visits);
      listed += static_cast<std::size_t>(leaf.count) * lists.gathered.size();
      const std::uint64_t t0 = cost != nullptr ? util::now_ns() : 0;
      // Cull once to the leaf's box, then to each sub-leaf's. A leaf of one
      // sub-leaf has one box, so it is culled once.
      const std::span<const Node> subs = partition.sub_leaves(li);
      const NeighborList* near = &lists.gathered;
      if (subs.size() > 1) {
        cull_neighbors(lists.gathered, bounding_box(subs), rmax2,
                       lists.culled);
        near = &lists.culled;
      }
      std::size_t pp = 0;
      for (const Node& sub : subs) {
        cull_neighbors(*near, sub, rmax2, lists.staged);
        // True culled count, before the batched path pads the list.
        pp += static_cast<std::size_t>(sub.count) * lists.staged.size();
        evaluate_leaf(variant, kernel, p, sub.first, sub.count, lists.staged,
                      mass_scale, ax, ay, az);
      }
      if (cost != nullptr)
        cost->record(obs::LeafCost{leaf.lo, leaf.hi, leaf.count, pp,
                                   util::now_ns() - t0});
      interactions += pp;
    }
  }
  w.record_high_water();
  stats.interactions = interactions;
  stats.listed = listed;
  stats.walk_visits = walk_visits;
  return stats;
}

}  // namespace hacc::tree
