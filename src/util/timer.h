// Timing.
//
// HACC's performance story is told in time-per-substep-per-particle and in
// the per-phase breakdown (80% force kernel / 10% tree walk / 5% FFT / 5%
// rest at the 16/4 operating point, paper Sec. III). Phases are timed by
// obs::PhaseScope straight into a rank's obs::Counters; TimerRegistry is
// the report-side view of those totals (Simulation::timers() fills one
// from the counters), keyed by interned phase name (util/names.h). Nothing
// writes a TimerRegistry on a hot path.
#pragma once

#include <chrono>
#include <string>
#include <string_view>
#include <vector>

#include "util/names.h"

namespace hacc {

/// Simple wall-clock stopwatch.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}
  void reset() { start_ = Clock::now(); }
  /// Seconds since construction or last reset().
  double elapsed() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Accumulates (count, total seconds) per named phase. Not thread-safe.
class TimerRegistry {
 public:
  /// The conventional root phase: when a phase with this name has been
  /// recorded, report() computes fraction-of-wall against it (see below).
  static constexpr std::string_view kRootPhase = "step";

  /// Add `seconds` and `calls` closed scopes to the phase.
  void add(NameId id, double seconds, std::size_t calls = 1);
  void add(std::string_view name, double seconds, std::size_t calls = 1) {
    add(intern_name(name), seconds, calls);
  }

  double total(NameId id) const;
  double total(std::string_view name) const { return total(intern_name(name)); }
  std::size_t count(NameId id) const;
  std::size_t count(std::string_view name) const {
    return count(intern_name(name));
  }

  /// Sum over all phases (the root phase included — prefer total(kRootPhase)
  /// as "wall time" when a root has been recorded).
  double grand_total() const;

  /// (name, seconds, fraction) rows sorted by descending time.
  ///
  /// Fraction semantics: phases nest (e.g. "cic" runs inside "step"), so
  /// fraction-of-sum double-counts nested time. When a root phase named
  /// kRootPhase ("step") has been recorded, fractions are computed against
  /// its wall time — the root row reads 1.0 and direct children sum to
  /// <= 1 (up to untimed gaps). Without a root, fractions fall back to
  /// fraction-of-grand-total (the legacy behavior for flat registries).
  struct Row {
    std::string name;
    std::size_t count;
    double seconds;
    double fraction;
  };
  std::vector<Row> report() const;

 private:
  struct Entry {
    std::size_t count = 0;
    double seconds = 0;
  };
  std::vector<Entry> entries_;  // indexed by NameId (dense, process-global)
};

}  // namespace hacc
