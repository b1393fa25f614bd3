// Second-generation metrics core: shared histograms and Prometheus-text
// exposition over the whole per-rank registry.
//
// Three pieces on top of counters.h:
//   * Histogram — the lock-free 64-bucket log2(ns) latency histogram that
//     used to live inside serve/query_server.h, promoted so the query
//     service, the stepping loop and anything else share one implementation
//     and one exposition path. record() is a relaxed fetch_add, quantiles
//     read bucket boundaries (value resolution one power of two).
//   * HistogramSet — histogram slots alongside the Counters slots: a flat
//     array indexed by interned NameId, ids at/above kMaxSlots silently
//     dropped, every operation safe against concurrent recording threads
//     and concurrent scrapes.
//   * export_prometheus / MetricsHub — render one or many per-rank sources
//     (counters + gauges + histograms) as Prometheus text exposition format
//     v0.0.4 with rank (and for phase timers, phase) labels. The hub is the
//     shared registry a live /metrics endpoint scrapes while rank threads
//     keep writing: every value it touches is an atomic, so a scrape never
//     takes a lock a rank thread holds and never sees a torn value.
//
// Naming conventions applied by the exporter (see DESIGN.md §4j):
//   counter  "comm.alltoall.bytes_sent" -> hacc_comm_alltoall_bytes_sent_total{rank="0"}
//   gauge    "mem.peak_rss_bytes"       -> hacc_mem_peak_rss_bytes{rank="0"}
//   gauge    "cost.leaf_imbalance_micro"-> hacc_cost_leaf_imbalance{rank="0"} (value / 1e6)
//   counter  "phase.sr-kernel.ns"       -> hacc_phase_ns_total{phase="sr-kernel",rank="0"}
//   histogram "step.wall_ns"            -> hacc_step_wall_ns_bucket{rank="0",le="..."} / _sum / _count
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "obs/counters.h"

namespace hacc::obs {

/// Lock-free latency histogram: 64 log2(ns) buckets, relaxed atomics.
/// Quantiles are read from the bucket boundaries (exact count, value
/// resolution one power of two — plenty for p50/p99 reporting).
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void record(std::uint64_t ns) noexcept;
  std::uint64_t count() const noexcept;
  /// The q-quantile (q in [0,1]) in nanoseconds (bucket upper bound);
  /// 0 when empty.
  std::uint64_t quantile_ns(double q) const noexcept;
  double mean_ns() const noexcept;
  std::uint64_t sum_ns() const noexcept {
    return sum_ns_.load(std::memory_order_relaxed);
  }

  /// Count in bucket b (0 outside [0, kBuckets)).
  std::uint64_t bucket_count(std::size_t b) const noexcept {
    return b < kBuckets ? buckets_[b].load(std::memory_order_relaxed) : 0;
  }
  /// Inclusive upper bound of bucket b in nanoseconds: 2^(b+1) - 1.
  static constexpr std::uint64_t bucket_upper_ns(std::size_t b) noexcept {
    return b + 1 >= 64 ? ~0ULL : (1ULL << (b + 1)) - 1;
  }

  void clear() noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_ns_{0};
};

/// Histogram slots keyed by interned NameId, mirroring Counters: names are
/// registered with histogram_id() (which records CounterKind::kHistogram),
/// ids at/above kMaxSlots are silently dropped, and recording never
/// allocates (the slot table is built once in the constructor).
class HistogramSet {
 public:
  static constexpr std::size_t kMaxSlots = 1024;

  HistogramSet() : slots_(kMaxSlots) {}
  HistogramSet(const HistogramSet&) = delete;
  HistogramSet& operator=(const HistogramSet&) = delete;

  void record(NameId id, std::uint64_t ns) noexcept {
    if (id < kMaxSlots) slots_[id].record(ns);
  }
  /// The slot for `id`, or nullptr when the id is beyond the table.
  const Histogram* find(NameId id) const noexcept {
    return id < kMaxSlots ? &slots_[id] : nullptr;
  }
  Histogram* find(NameId id) noexcept {
    return id < kMaxSlots ? &slots_[id] : nullptr;
  }

  /// Ids of every slot with at least one recorded sample.
  std::vector<NameId> nonempty() const;

  void clear() noexcept;

 private:
  std::vector<Histogram> slots_;
};

/// One rank's scrapeable sinks. Counter/gauge/histogram values are atomics,
/// so a source may be exported while its owner keeps recording.
struct MetricsSource {
  int rank = 0;
  const Counters* counters = nullptr;      ///< may be null
  const HistogramSet* histograms = nullptr;  ///< may be null
  /// Optional run label: when non-empty every series of this source gets a
  /// leading run="..." label, so one hub can serve a whole campaign of
  /// concurrent runs without series collisions. Appended last so existing
  /// brace-initializers keep their meaning; empty keeps the exposition
  /// byte-identical to the single-run format.
  std::string run;
};

/// Render `sources` as Prometheus text exposition format v0.0.4 (one
/// `# TYPE` line per metric family, series labeled rank="..."; counters get
/// a `_total` suffix, histograms the `_bucket`/`_sum`/`_count` triple with
/// cumulative buckets and an `le="+Inf"` terminator).
std::string export_prometheus(std::span<const MetricsSource> sources);

/// Thread-safe registry of live per-rank sources: ranks register their
/// sinks for the lifetime of an attempt, a metrics endpoint renders
/// whatever is currently registered. add() returns a handle for remove();
/// the registered pointers must outlive the registration. remove() waits
/// for a render in progress, so the owner may free the sinks once it
/// returns.
class MetricsHub {
 public:
  int add(const MetricsSource& source);
  void remove(int handle);
  std::size_t size() const;
  /// export_prometheus over the currently registered sources.
  std::string render() const;

 private:
  mutable std::mutex mu_;
  int next_handle_ = 0;
  std::vector<std::pair<int, MetricsSource>> sources_;
};

}  // namespace hacc::obs
