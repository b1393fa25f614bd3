// Per-leaf cost attribution: the measured signal the roadmap's
// cost-based rebalancer needs.
//
// tree::compute_short_range (tree/leaf_partition.cpp, for RCB leaves and
// chaining-mesh cells alike) already counts interactions per leaf; when a
// CostMap is bound (obs::Binding third argument), it additionally times
// each leaf's kernel evaluation and records {leaf box, particles,
// interactions, kernel ns} here. One record per leaf per step — contention
// on the mutex is negligible next to the kernel work it brackets, and the
// backing vector keeps its capacity across begin_step() so the steady state
// allocates nothing after the first step.
//
// summarize() collapses a step's leaves into the imbalance numbers the
// ledger streams (see ledger.h: CostMapRecord / reduce_cost_map for the
// cross-rank reduction).
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <vector>

namespace hacc::obs {

/// One leaf's measured cost for the current step.
struct LeafCost {
  std::array<float, 3> lo{};  ///< leaf bounding box (position units)
  std::array<float, 3> hi{};
  std::uint32_t particles = 0;    ///< targets in the leaf
  std::uint64_t interactions = 0;  ///< pairwise interactions evaluated
  std::uint64_t kernel_ns = 0;     ///< wall time culling + evaluate_leaf
};

class CostMap {
 public:
  /// Reset for a new step; keeps the vector capacity (alloc-free steady
  /// state once the leaf count has stabilized).
  void begin_step();

  /// Thread-safe; called once per leaf from inside the kernel's parallel
  /// region.
  void record(const LeafCost& leaf);

  /// Copy of this step's records (test/inspection path).
  std::vector<LeafCost> leaves() const;
  std::size_t size() const;

  struct Summary {
    std::uint64_t leaves = 0;
    std::uint64_t particles = 0;
    std::uint64_t interactions = 0;
    std::uint64_t kernel_ns = 0;
    std::uint64_t max_leaf_ns = 0;
    double mean_leaf_ns = 0;
    /// max leaf kernel time / mean leaf kernel time (1 = perfectly flat,
    /// 0 = no leaves). The load balancer's target signal.
    double leaf_imbalance = 0;
    /// Fraction of total kernel time spent in the most expensive 10% of
    /// leaves — how concentrated the clustering is.
    double top_decile_share = 0;
    /// kernel_ns / interactions (0 when no interactions) — the measured
    /// per-interaction cost the watchdog calibrates its drift check on.
    double ns_per_interaction = 0;
  };
  Summary summarize() const;

 private:
  mutable std::mutex mu_;
  std::vector<LeafCost> leaves_;
};

}  // namespace hacc::obs
