// Per-step run ledger: the paper's evaluation tables, one JSON object per
// step.
//
// Each StepRecord is the fully reduced telemetry of one Simulation::step —
// per-phase min/mean/max seconds over ranks, the paper-style breakdown
// rollup (kernel / walk+build / fft / cic / refresh / comm), time per
// substep per particle (the paper's headline weak-scaling invariant,
// Table II), momentum drift, counter deltas, and peak RSS. Simulation::run
// appends one record per step and writes `ledger.jsonl` on rank 0 plus a
// human-readable phase table at end of run.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "obs/costmap.h"
#include "obs/reduce.h"

namespace hacc::obs {

/// Seconds (or a counter value) reduced over ranks.
struct PhaseStat {
  double min = 0;
  double mean = 0;
  double max = 0;
  double imbalance = 0;  ///< max/mean (0 when mean is 0)
};

/// One Simulation::step worth of telemetry, reduced across ranks.
struct StepRecord {
  int step = 0;       ///< 1-based step index after the step completed
  double a = 0;       ///< scale factor after the step
  double z = 0;       ///< redshift after the step
  PhaseStat wall;     ///< the "step" root phase (wall seconds)
  /// wall.mean / subcycles / global particle count — Table II's invariant.
  double t_per_substep_per_particle = 0;
  std::array<double, 3> momentum{};  ///< global active momentum sum
  /// max component deviation from the first recorded step's momentum.
  double momentum_drift = 0;
  /// Per-phase seconds this step (phase.<x>.ns deltas), keyed <x>; the
  /// Poisson solver's phases are "poisson.remap/fft/kernel".
  std::map<std::string, PhaseStat> phases;
  /// Counter deltas this step (gauges carry absolute values).
  std::map<std::string, PhaseStat> counters;
  /// Paper-style rollup of `phases` (mean seconds): kernel, walk_build,
  /// fft, cic, refresh, comm, other.
  std::map<std::string, double> breakdown;
  std::uint64_t peak_rss_bytes = 0;  ///< max over ranks
};

/// Roll a phase map up into the paper's Sec. III categories:
///   kernel     = sr-kernel            walk_build = tree-build
///   fft        = poisson.fft          cic        = cic + lr-kick
///   refresh    = refresh              comm       = grid-exchange +
///                                                  poisson.remap
///   other      = wall_mean - sum of the above (stream, spectral kernel
///                multiply, untimed gaps)
std::map<std::string, double> paper_breakdown(
    const std::map<std::string, PhaseStat>& phases, double wall_mean);

/// A run lifecycle event (checkpoint written/verified, rank killed, restore,
/// resume, health-check failure, ...) interleaved with step records in the
/// streamed ledger as `{"event":...}` JSONL lines. The fault-tolerance
/// audit trail: after a crash the ledger shows exactly what the Supervisor
/// saw and did.
struct EventRecord {
  std::string kind;    ///< e.g. "checkpoint", "restore", "rank_failed"
  int step = -1;       ///< step the event refers to (-1 = n/a)
  int attempt = -1;    ///< supervisor attempt number (-1 = n/a)
  std::string detail;  ///< free-form human-readable context
};

/// One step's cost map, reduced across ranks — streamed into the ledger as
/// a `{"costmap":...}` JSONL line, the measured-cost input the roadmap's
/// cost-based rebalancer consumes.
struct CostMapRecord {
  int step = 0;
  std::uint64_t leaves = 0;        ///< total leaves across ranks
  std::uint64_t interactions = 0;  ///< total pairwise interactions
  double kernel_s = 0;             ///< summed leaf kernel seconds
  /// Per-rank kernel seconds / interaction counts reduced min/mean/max —
  /// rank_kernel_s.imbalance is the cross-rank signal the watchdog gates.
  PhaseStat rank_kernel_s;
  PhaseStat rank_interactions;
  /// Worst single rank's within-rank leaf imbalance (max leaf / mean leaf).
  double leaf_imbalance = 0;
  /// Worst single rank's kernel-time share in its costliest 10% of leaves.
  double top_decile_share = 0;
  /// Mean measured ns per interaction across ranks (kernel_ns weighted).
  double ns_per_interaction = 0;
  int straggler_rank = -1;  ///< rank with the most kernel time (-1 = none)
};

/// Reduce every rank's CostMap::Summary to rank 0 (empty record with the
/// given step elsewhere). Collective over `comm`: one gather of every
/// rank's summary yields all fields, the per-rank kernel/interaction
/// stats included.
CostMapRecord reduce_cost_map(comm::Comm& comm, const CostMap::Summary& mine,
                              int step, int root = 0);

/// One StepRecord / EventRecord / CostMapRecord as a single JSONL line (no
/// trailing '\n').
std::string step_record_json(const StepRecord& r);
std::string event_record_json(const EventRecord& e);
std::string costmap_record_json(const CostMapRecord& c);

class Ledger {
 public:
  Ledger() = default;
  ~Ledger();
  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  /// Stream every subsequent append/append_event to `path`, one fsync'd
  /// JSONL line each — a crash loses at most the line being written, so the
  /// ledger survives the failures the Supervisor recovers from. `append`
  /// continues an existing file (restart); otherwise it is truncated.
  void stream_to(const std::string& path, bool append = false);
  bool streaming() const noexcept { return sink_ != nullptr; }

  void append(StepRecord record);
  void append_event(EventRecord event);
  void append_costmap(CostMapRecord record);
  const std::vector<StepRecord>& records() const noexcept { return records_; }
  const std::vector<EventRecord>& events() const noexcept { return events_; }
  const std::vector<CostMapRecord>& costmaps() const noexcept {
    return costmaps_;
  }
  bool empty() const noexcept { return records_.empty(); }

  /// The full ledger as JSONL (one JSON object per line; step records only,
  /// in append order — events are only carried by the stream and events()).
  std::string to_jsonl() const;
  void write_jsonl(const std::string& path) const;

  /// Durably append one event line to `path` without a Ledger instance;
  /// used by drivers for events that happen outside Machine::run (e.g. the
  /// Supervisor deciding to restore between attempts).
  static void append_event_to(const std::string& path, const EventRecord& e);

  /// End-of-run phase table: per phase, mean seconds summed over steps,
  /// percent of summed wall, and the worst per-step imbalance.
  void print_phase_table(std::ostream& os) const;

 private:
  void stream_line(const std::string& line);

  std::vector<StepRecord> records_;
  std::vector<EventRecord> events_;
  std::vector<CostMapRecord> costmaps_;
  std::FILE* sink_ = nullptr;
};

}  // namespace hacc::obs
