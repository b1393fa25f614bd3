// In-memory span log of the traced replay.
//
// Each rank thread owns one SpanLog. A span is (name, rank, start, end,
// parent); spans stay in memory while the benchmark runs and are written
// once, at exit, as JSON lines. A span's self time is its duration minus the
// durations of its children. Children are usually nested in time; a
// "probe" child re-runs part of its parent's work right after it, so the
// parent's self time excludes that part even though the intervals do not
// overlap.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/telemetry.h"

namespace perfbench {

struct Span {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int parent = -1;  ///< index in the same rank's log; -1 for a root
  double seconds() const noexcept {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

class SpanLog {
 public:
  explicit SpanLog(int rank = 0) : rank_(rank) {}

  int rank() const noexcept { return rank_; }
  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Record a finished span; returns its index.
  int add(std::string name, int parent, std::uint64_t t0, std::uint64_t t1);

  /// Open a root (or any) span now; close() stamps its end.
  int open(std::string name, int parent = -1);
  void close(int id);

  /// Time fn() as one span under `parent`; returns the span's index.
  template <typename F>
  int time(std::string name, int parent, F&& fn) {
    const std::uint64_t t0 = hacc::util::now_ns();
    fn();
    return add(std::move(name), parent, t0, hacc::util::now_ns());
  }

  /// Self seconds per span name over every span that descends from `root`
  /// (the root itself excluded).
  std::map<std::string, double> self_seconds(int root) const;
  /// Summed durations per span name under `root`, children included.
  std::map<std::string, double> total_seconds(int root) const;
  /// Summed durations of the direct children of `root`.
  double children_seconds(int root) const;

 private:
  bool descends_from(int id, int root) const;

  int rank_;
  std::vector<Span> spans_;
};

/// Write every rank's spans as JSON lines:
/// {"id":..,"rank":..,"name":..,"start_ns":..,"end_ns":..,"parent":..}.
/// `id` and `parent` index the same rank's spans. Returns false on I/O error.
bool write_spans(const std::string& path, const std::vector<SpanLog>& logs);

}  // namespace perfbench
