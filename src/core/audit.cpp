#include "core/audit.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

#include "util/fnv1a.h"
#include "util/rng.h"

namespace hacc::core {

namespace {

/// One component comparison under the audit tolerance.
inline bool component_mismatch(float recomputed, float stored,
                               const AuditConfig& config) noexcept {
  const float d = std::fabs(recomputed - stored);
  const float scale = std::max(std::fabs(recomputed), std::fabs(stored));
  return d > config.dup_atol + config.dup_rtol * scale;
}

/// Compare one leaf's particles against the stored accumulators; the
/// neighbor list has already been gathered by the caller.
void check_leaf(const tree::ParticleArray& p, const tree::Node& node,
                const tree::NeighborList& list,
                const tree::ShortRangeKernel& kernel, float mass_scale,
                std::span<const float> ax, std::span<const float> ay,
                std::span<const float> az, const AuditConfig& config,
                DuplicateExecutionResult& out) {
  for (std::uint32_t i = node.first; i < node.first + node.count; ++i) {
    const tree::Force3 f = tree::evaluate_neighbor_list(
        kernel, p.x[i], p.y[i], p.z[i], list.x.data(), list.y.data(),
        list.z.data(), list.m.data(), list.size(), mass_scale);
    ++out.checked;
    if (component_mismatch(f.x, ax[i], config) ||
        component_mismatch(f.y, ay[i], config) ||
        component_mismatch(f.z, az[i], config)) {
      ++out.mismatches;
      if (out.detail.empty()) {
        out.detail = "particle " + std::to_string(i) + ": scalar (" +
                     std::to_string(f.x) + "," + std::to_string(f.y) + "," +
                     std::to_string(f.z) + ") vs stored (" +
                     std::to_string(ax[i]) + "," + std::to_string(ay[i]) +
                     "," + std::to_string(az[i]) + ")";
      }
    }
  }
}

/// Indices of the actives in canonical order: ascending id (unique among
/// actives), so a hash over them is invariant under the permutations
/// refresh/restore perform.
std::vector<std::size_t> active_order(const tree::ParticleArray& particles,
                                      bool assume_id_sorted) {
  std::vector<std::size_t> order;
  order.reserve(particles.size());
  for (std::size_t i = 0; i < particles.size(); ++i)
    if (particles.role[i] == tree::Role::kActive) order.push_back(i);
  if (!assume_id_sorted) {
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return particles.id[a] < particles.id[b];
    });
  }
  return order;
}

}  // namespace

std::uint64_t particle_checksum(const tree::ParticleArray& particles,
                                bool assume_id_sorted) {
  std::uint64_t h = kFnv1aOffset;
  for (const std::size_t i : active_order(particles, assume_id_sorted)) {
    const float payload[7] = {particles.x[i],  particles.y[i],
                              particles.z[i],  particles.vx[i],
                              particles.vy[i], particles.vz[i],
                              particles.mass[i]};
    h = fnv1a(payload, sizeof(payload), h);
    h = fnv1a(&particles.id[i], sizeof(particles.id[i]), h);
  }
  return h;
}

std::uint64_t acceleration_checksum(const tree::ParticleArray& particles,
                                    std::uint64_t h, bool assume_id_sorted) {
  for (const std::size_t i : active_order(particles, assume_id_sorted)) {
    const float accel[3] = {particles.ax[i], particles.ay[i],
                            particles.az[i]};
    h = fnv1a(accel, sizeof(accel), h);
  }
  return h;
}

DuplicateExecutionResult duplicate_execution_check(
    const tree::LeafPartition& partition, const tree::ShortRangeKernel& kernel,
    std::span<const float> ax, std::span<const float> ay,
    std::span<const float> az, float mass_scale, const AuditConfig& config,
    std::uint64_t draw_key, tree::NeighborList* scratch) {
  DuplicateExecutionResult out;
  const auto& leaves = partition.leaves();
  if (leaves.empty() || config.sample_leaves <= 0) return out;
  Philox::Stream draw(Philox(config.seed, draw_key));
  tree::NeighborList local;
  tree::NeighborList& list = scratch != nullptr ? *scratch : local;
  // A budget that covers the whole leaf set means "audit everything":
  // sweep exhaustively rather than drawing with replacement (which would
  // leave ~1/e of the leaves uncovered even at budget == leaf count).
  const bool exhaustive =
      static_cast<std::size_t>(config.sample_leaves) >= leaves.size();
  const std::size_t samples = std::min<std::size_t>(
      static_cast<std::size_t>(config.sample_leaves), leaves.size());
  for (std::size_t s = 0; s < samples; ++s) {
    const std::uint32_t leaf =
        exhaustive ? leaves[s] : leaves[draw.index(leaves.size())];
    partition.gather_neighbors(leaf, kernel.rmax, list);
    ++out.sampled_leaves;
    check_leaf(partition.particles(), partition.nodes()[leaf], list, kernel,
               mass_scale, ax, ay, az, config, out);
  }
  return out;
}

}  // namespace hacc::core
