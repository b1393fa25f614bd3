// Campaign orchestrator: a crash-safe multi-run scheduler over the
// supervised checkpoint-restart stack (paper Sec. V; the Outer Rim-style
// production campaigns the ROADMAP targets).
//
// Production HACC science output is a *campaign* — a parameter sweep of
// dozens of multi-day runs over seeds, resolutions and cosmologies — and at
// that scale the fault-tolerance story has to hold one level above the
// Supervisor: the orchestration process itself dies, individual configs
// turn out to be poisoned, and capacity shed by a degraded run should flow
// to runs still waiting for ranks. The CampaignOrchestrator provides
// exactly that fleet layer:
//
//   * CampaignSpec — a declarative sweep (seed x grid x cosmology) expanded
//     into named RunSpecs, each with its own namespaced directory tree
//     `<root>/runs/<name>/{ckpt, insitu, ledger.jsonl}`.
//   * Write-ahead journal — every scheduling intent and every run lifecycle
//     event is an fsync'd line of `<root>/campaign.jsonl` (see journal.h).
//     A restarted orchestrator replays the journal: finished/quarantined
//     runs are never launched again, interrupted runs relaunch in resume
//     mode and restore from their newest verified checkpoint.
//   * Retry budgets + quarantine — each run gets `run_retries` relaunches;
//     a run that exhausts the budget, or fails repeatedly without ever
//     publishing a checkpoint (the signature of a deterministically-broken
//     config), is quarantined so it cannot starve the rest of the sweep.
//   * Elastic capacity reallocation — the fleet pool grants each launch its
//     width; when a run's elastic policy shrinks it mid-flight, the shed
//     ranks return to the pool immediately (Supervisor::on_width_change)
//     and the next queued run can be granted out of exactly that reclaimed
//     capacity. The degraded-mode machinery becomes a throughput feature.
//   * One observability surface — all runs register their per-rank sinks in
//     one shared MetricsHub under run="<name>" labels; a single
//     MetricsServer exposes /metrics for the whole fleet and /healthz with
//     the campaign scheduler state.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "campaign/journal.h"
#include "comm/comm.h"
#include "core/supervisor.h"
#include "cosmology/background.h"
#include "obs/counters.h"
#include "obs/metrics.h"
#include "serve/metrics_server.h"
#include "util/timer.h"

namespace hacc::campaign {

/// One fully resolved member of the sweep. `name` doubles as the run's
/// directory name and its metrics/journal label, so it must be unique and
/// filesystem-safe (CampaignSpec::expand guarantees both).
struct RunSpec {
  std::string name;
  core::SimulationConfig sim;
  cosmology::Cosmology cosmo;
  int width = 4;  ///< ranks requested from the fleet pool at launch
};

/// A named cosmology for the sweep's cosmology axis.
struct CosmologyVariant {
  std::string tag;  ///< name fragment, e.g. "w-0.9" (must be fs-safe)
  cosmology::Cosmology cosmo;
};

/// Declarative sweep: the cross product of seeds x grids x cosmologies over
/// a base configuration. Empty axes default to the base value, so the
/// smallest campaign is one run.
struct CampaignSpec {
  core::SimulationConfig base;
  cosmology::Cosmology cosmo;
  std::vector<std::uint64_t> seeds;  ///< IC seeds (empty = {base.seed})
  /// PM grid sizes; particles_per_dim scales proportionally from the base
  /// ratio. Empty = {base.grid}.
  std::vector<std::size_t> grids;
  std::vector<CosmologyVariant> cosmologies;  ///< empty = {{"", cosmo}}
  int width = 4;  ///< launch width of every run
  /// Optional per-run adjustment applied to each expanded member (after its
  /// name is assigned, before uniqueness checking): width overrides for a
  /// heterogeneous fleet, per-run step counts, and so on.
  std::function<void(RunSpec&)> tweak;

  /// The cross product, named "s<seed>[_g<grid>][_<tag>]" (axis fragments
  /// appear only when that axis has more than one value, except non-empty
  /// cosmology tags, which always appear).
  std::vector<RunSpec> expand() const;
};

/// Scheduler state of one run. Terminal states are kFinished (reached
/// sim.steps with clean health) and kQuarantined (given up on).
enum class RunPhase { kQueued, kRunning, kFinished, kQuarantined };
const char* run_phase_name(RunPhase phase);

/// Everything the orchestrator knows about one run, exposed in the report.
struct RunStatus {
  RunSpec spec;
  RunPhase phase = RunPhase::kQueued;
  int launches = 0;      ///< supervisor launches, journal-replayed included
  int failures = 0;      ///< launches that did not finish the run
  int granted = 0;       ///< ranks currently held from the pool
  bool replayed_terminal = false;  ///< finished/quarantined by a previous
                                   ///< orchestrator; never launched here
  bool scheduled = false;  ///< a `scheduled` intent is durably journaled
  core::SupervisorReport report;   ///< of the last launch in this process
  std::string last_error;
};

struct CampaignConfig {
  /// Campaign root: `campaign.jsonl` plus one `runs/<name>/` tree per run.
  std::string root_dir;
  /// Total ranks the pool may have granted at any instant.
  int fleet_ranks = 8;
  /// Concurrent runs cap (<= worker threads); 0 = no cap beyond the pool.
  int max_concurrent_runs = 2;
  /// Orchestrator-level relaunch budget per run, on top of the Supervisor's
  /// own in-launch retries. Exhausting it quarantines the run.
  int run_retries = 2;
  // ---- per-run Supervisor settings (see core/supervisor.h) ----
  int checkpoint_every = 1;
  int keep = 2;
  int supervisor_retries = 1;  ///< SupervisorConfig::max_retries per launch
  double max_momentum_drift = 0;
  core::ElasticPolicy elastic;
  comm::MachineOptions machine;  ///< fault_plan is ignored; use fault_plans
  bool ledger = true;  ///< write runs/<name>/ledger.jsonl per run
  int insitu_cadence = 0;  ///< in-situ catalog cadence per run (0 = off)
  /// Campaign-wide observability endpoint: -1 = off, 0 = ephemeral port.
  int metrics_port = -1;
  /// Per-run fault schedule factory (chaos testing): called once per run at
  /// its first launch in this process; the returned plan is shared across
  /// that run's relaunches (one-shot faults stay one-shot per run, like a
  /// node that died once) but never across runs. May be null.
  std::function<std::shared_ptr<comm::FaultPlan>(const RunSpec&)> fault_plans;
  /// Test/ops knob: stop granting after this many supervisor launches in
  /// this process and return with `interrupted` set — simulates an
  /// orchestrator killed mid-campaign; the journal lets the next process
  /// resume. <= 0 = no limit.
  int max_launches = 0;
  /// Test hook: forwarded to each Supervisor's on_finished (runs on every
  /// rank of the successful attempt, machine still up).
  std::function<void(const RunSpec&, core::Simulation&, comm::Comm&)>
      on_run_finished;
  /// Test hook: called on the worker thread after a launch returns, with
  /// the orchestrator lock released.
  std::function<void(const RunSpec&, const core::SupervisorReport&)> after_run;
};

struct CampaignReport {
  bool completed = false;    ///< every run reached a terminal phase
  bool interrupted = false;  ///< max_launches cut this process short
  int launched = 0;          ///< supervisor launches in this process
  int finished = 0;          ///< terminal kFinished (replayed included)
  int quarantined = 0;       ///< terminal kQuarantined (replayed included)
  int replay_skipped = 0;    ///< terminal before this process started
  int grants = 0;            ///< width grants issued from the pool
  int shrink_reclaimed = 0;  ///< ranks returned mid-run by elastic shrinks
  /// Grants (their rank count) satisfied only because a shrink had returned
  /// capacity — the reallocation the tentpole promises, made countable.
  int shrink_regrant_ranks = 0;
  double makespan_s = 0;     ///< wall seconds of this process's run()
  /// Busy rank-seconds / (fleet_ranks * makespan): how full the pool ran.
  double utilization = 0;
  std::vector<RunStatus> runs;
};

/// Drives a whole sweep to completion across run failures and orchestrator
/// restarts. Construct (replays any existing journal under root_dir), call
/// run() once; construct again on the same root to resume after a crash.
class CampaignOrchestrator {
 public:
  CampaignOrchestrator(const CampaignSpec& spec, CampaignConfig config);
  ~CampaignOrchestrator();
  CampaignOrchestrator(const CampaignOrchestrator&) = delete;
  CampaignOrchestrator& operator=(const CampaignOrchestrator&) = delete;

  CampaignReport run();

  /// `<root>/runs/<name>` — the run's namespaced directory.
  std::string run_dir(const std::string& name) const;
  static std::string journal_path(const std::string& root_dir);

  /// Bound port of the shared metrics endpoint (-1 when off).
  int metrics_port() const noexcept {
    return metrics_server_ ? metrics_server_->port() : -1;
  }
  /// The shared per-run source registry behind /metrics.
  obs::MetricsHub& metrics_hub() noexcept { return hub_; }

 private:
  struct Launch;  // per-launch context handed to a worker thread

  void replay_journal();
  void start_metrics_server();
  std::string healthz_json();
  /// Scheduler predicate + grant bookkeeping; called under mu_.
  int pick_launchable();
  void note_busy_change(double now);
  void worker_main(int index, int width, bool resume);
  /// Supervisor::on_width_change target: return (from - to) ranks to the
  /// pool mid-run and tag them as shrink-reclaimed capacity.
  void reclaim_ranks(int index, int from_width, int to_width);
  void finish_launch(int index, const core::SupervisorReport& report);

  CampaignSpec spec_;
  CampaignConfig config_;
  std::vector<RunStatus> runs_;
  /// Per-run fault plans, parallel to runs_ (kept across relaunches).
  std::vector<std::shared_ptr<comm::FaultPlan>> plans_;
  std::unique_ptr<CampaignJournal> journal_;
  CampaignReport report_;

  std::mutex mu_;
  std::condition_variable cv_;
  Timer clock_;             ///< campaign-clock origin (makespan)
  int pool_available_ = 0;  ///< unclaimed ranks
  int shrink_pool_ = 0;     ///< of those, ranks returned by mid-run shrinks
  int active_ = 0;          ///< running launches
  bool halted_ = false;     ///< max_launches tripped: no more grants
  // Pool-utilization integral: busy_ranks_ held constant between changes.
  int busy_ranks_ = 0;
  double busy_ranksec_ = 0;
  double last_change_s_ = 0;
  std::vector<std::thread> workers_;

  obs::Counters counters_;  ///< campaign.* fleet counters (see DESIGN §4l)
  obs::MetricsHub hub_;
  std::unique_ptr<serve::MetricsServer> metrics_server_;
};

}  // namespace hacc::campaign
