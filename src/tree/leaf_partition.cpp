#include "tree/leaf_partition.h"

#include "obs/costmap.h"
#include "obs/obs.h"
#include "tree/interaction_batch.h"
#include "util/error.h"
#include "util/telemetry.h"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace hacc::tree {

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

  std::size_t interactions = 0, walk_visits = 0;
#pragma omp parallel reduction(+ : interactions, walk_visits)
  {
#ifdef _OPENMP
    NeighborList& list = w.lists[static_cast<std::size_t>(omp_get_thread_num())];
#else
    NeighborList& list = w.lists[0];
#endif
#pragma omp for schedule(dynamic, 1)
    for (std::size_t li = 0; li < leaves.size(); ++li) {
      const Node& leaf = partition.nodes()[leaves[li]];
      partition.gather_neighbors(leaves[li], kernel.rmax, list, &walk_visits);
      // True gathered count, before the batched path pads the list.
      const std::size_t true_n = list.size();
      const std::uint64_t t0 = cost != nullptr ? util::now_ns() : 0;
      evaluate_leaf(variant, kernel, p, leaf.first, leaf.count, list,
                    mass_scale, ax, ay, az);
      const std::size_t pp = static_cast<std::size_t>(leaf.count) * true_n;
      if (cost != nullptr)
        cost->record(obs::LeafCost{leaf.lo, leaf.hi, leaf.count, pp,
                                   util::now_ns() - t0});
      interactions += pp;
    }
  }
  w.record_high_water();
  stats.interactions = interactions;
  stats.walk_visits = walk_visits;
  return stats;
}

}  // namespace hacc::tree
