// Supervised checkpoint-restart recovery (paper Sec. V).
//
// At the paper's scale — 1.6M ranks, multi-day campaigns — the mean time
// between failures is shorter than a run, so production HACC wraps the
// stepping loop in checkpoint/restart: periodic defensive checkpoints, and
// on failure an automatic restore from the newest checkpoint that still
// reads back clean. This module reproduces that control loop over the
// SimMPI runtime:
//
//   attempt:  restore newest *verified* checkpoint (or cold-start from ICs)
//             -> step; after each step run the cross-rank health check and
//                write a rotated, write-then-verified checkpoint on schedule
//   failure:  any rank death / deadlock timeout / payload corruption /
//             health violation aborts the machine with a diagnosis
//   recover:  re-verify the checkpoint chain newest-first (a checkpoint can
//             be damaged *after* it was written), restore from the first
//             good one, resume; capped retries. One scan,
//             CheckpointSet::newest_restorable, serves this relaunch and
//             the in-place SDC rollback alike.
//
// Elastic degraded mode: at scale the realistic failure mode is *losing
// capacity* — a replacement partition at the same width may simply not be
// there, and the campaign must keep making progress on fewer ranks rather
// than stall. When an ElasticPolicy other than kSameWidth is configured,
// the recovery step relaunches the machine at a reduced width chosen by the
// policy; the rank-count-elastic gio read path restores the last good
// checkpoint onto the new width (blocks re-partitioned, particles routed to
// their new domain owners by one OverloadDomain::migrate over every rank),
// the Cartesian decomposition and overload zones are rebuilt for the new
// width by the Simulation constructor, and the run resumes. Every width
// transition is recorded as fsync'd ledger events ("shrink",
// "resume_at_width"), so the degradation history of a campaign is auditable
// after the fact.
//
// Every decision is recorded as an event line in the run ledger, fsync'd
// before the run proceeds, so the recovery history survives the failures it
// documents. With SimulationConfig::canonical_order on (the default), a
// recovered run is bit-for-bit identical to an uninterrupted one.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "comm/comm.h"
#include "core/simulation.h"
#include "cosmology/background.h"
#include "obs/metrics.h"
#include "serve/metrics_server.h"

namespace hacc::core {

/// The rotated checkpoint chain of one run: `dir/ckpt_<step>.gio` files,
/// a `dir/latest` pointer (atomically updated via tmp+rename), and last-K
/// pruning. Path bookkeeping is serial; the checkpoint files themselves are
/// written collectively by Simulation::write_checkpoint.
class CheckpointSet {
 public:
  CheckpointSet(std::string dir, int keep);

  const std::string& dir() const noexcept { return dir_; }
  int keep() const noexcept { return keep_; }

  std::string path_for_step(int step) const;
  std::string latest_path() const;  ///< the `latest` pointer file

  /// Record `step` as the newest checkpoint: atomically rewrite `latest`
  /// (tmp+rename, both the file and the containing directory fsync'd — the
  /// rename itself must survive a power loss, not just the bytes) and
  /// unlink checkpoints beyond the last `keep`. Call on one rank only,
  /// after the checkpoint file is published.
  void publish(int step);

  /// Step named by the `latest` pointer, or -1 when absent/unreadable.
  int latest() const;

  /// Durably record an ABFT audit verdict for `step`'s checkpoint in a
  /// `ckpt_<step>.audit` sidecar (tmp+rename+fsync, like `latest`). The
  /// storage CRC says the *bytes* survived; the verdict says whether the
  /// *physics* they encode had passed an audit when written ("clean"), had
  /// not been audited yet ("unaudited"), or has since been implicated in a
  /// detected corruption window ("poisoned"). Restores skip "poisoned"
  /// checkpoints even though their CRCs verify — that is the whole point:
  /// a flip that happened *before* the checkpoint was written is inside
  /// the checksummed payload and invisible to gio::verify_file.
  void record_verdict(int step, const std::string& verdict);

  /// The recorded verdict for `step`, or "" when no sidecar exists
  /// (treat as "unaudited").
  std::string verdict(int step) const;

  std::string verdict_path_for_step(int step) const;

  /// Steps of all existing checkpoint files in `dir`, newest first. Scans
  /// the directory, not the pointer: recovery must see checkpoints even
  /// when `latest` itself was lost or points at a damaged file.
  std::vector<int> existing() const;

  /// The restore-candidate scan both recovery paths share (the relaunch
  /// and the in-place SDC rollback): walk existing() newest first, skip a
  /// "poisoned" verdict, re-verify the rest with gio::verify_file, and
  /// return the first step that reads back clean, or -1 when none does.
  /// Each skipped step goes to `on_reject` with its reason,
  /// "<path>: audit verdict poisoned | header unreadable | sub-block CRC
  /// mismatch". Serial; call on one rank.
  int newest_restorable(
      const std::function<void(int step, const std::string& why)>& on_reject)
      const;

 private:
  std::string dir_;
  int keep_;
};

/// How the Supervisor picks the relaunch width after a failed attempt.
enum class ElasticRule {
  kSameWidth,       ///< always retry at the launch width (PR 4 behavior)
  kShrinkByFailed,  ///< drop as many ranks as actually died this attempt
  kHalve,           ///< halve the width (coarse but fast convergence)
};

/// Elastic degraded-mode policy: when and how far to shrink. The policy is
/// consulted once per failed attempt; it never grows the width back (a
/// shrink models capacity that is gone for the rest of the campaign).
struct ElasticPolicy {
  ElasticRule rule = ElasticRule::kSameWidth;
  /// Hard floor: never relaunch below this many ranks.
  int min_ranks = 1;

  /// Width of the next attempt after a failure at `width`, of which
  /// `failed_ranks` ranks were root causes (>= 1; collateral aborts are not
  /// counted).
  int next_width(int width, int failed_ranks) const;
};

/// Stable name of a rule ("same_width", "shrink_by_failed", "halve").
const char* elastic_rule_name(ElasticRule rule);

struct SupervisorConfig {
  SimulationConfig sim;    ///< sim.steps is the run target
  int nranks = 4;          ///< SimMPI machine width (the launch width)
  /// Degraded-mode recovery: how to reduce the width after failures.
  ElasticPolicy elastic;
  std::string checkpoint_dir;
  int checkpoint_every = 1;  ///< steps between defensive checkpoints
  int keep = 2;              ///< checkpoint rotation depth (last K)
  int max_retries = 3;       ///< recovery attempts after the first run
  /// Health budget: max momentum-component drift from the first recorded
  /// value before the state is declared sick (<= 0 disables).
  double max_momentum_drift = 0;
  // ---- silent-data-corruption response (sim.audit is the detection side) --
  /// In-place rollbacks tolerated per attempt before an SDC detection
  /// escalates to the relaunch path instead — a state that keeps failing
  /// its audits after restore means the damage is upstream of this
  /// machine's memory (e.g. every surviving checkpoint is bad).
  int max_rollbacks = 4;
  /// Runtime options for every attempt (receive deadline, payload
  /// verification, fault plan).
  comm::MachineOptions machine;
  /// Live observability endpoint: -1 = off, 0 = bind an ephemeral loopback
  /// port (see Supervisor::metrics_port()), otherwise the port to bind.
  /// The server outlives individual attempts, so a campaign stays
  /// scrapeable through failures and degraded-width phases.
  int metrics_port = -1;
  /// Resume mode: scan the checkpoint chain on the *first* attempt too and
  /// restore the newest verified checkpoint instead of cold-starting — how
  /// a campaign orchestrator relaunches a run a previous process already
  /// advanced. A run with no usable checkpoint still cold-starts.
  bool resume = false;
  /// When set, each attempt's per-rank metrics sources register in this
  /// external hub (labeled `run_label`) instead of the Supervisor's own,
  /// and no private metrics server is started even when metrics_port >= 0:
  /// a campaign exposes one endpoint for all of its runs. Must outlive the
  /// Supervisor.
  obs::MetricsHub* shared_hub = nullptr;
  /// run="..." label attached to this run's series in a shared hub.
  std::string run_label;
};

struct SupervisorReport {
  bool completed = false;  ///< the run reached sim.steps
  int attempts = 0;        ///< machine launches (1 = no failure)
  int restores = 0;        ///< warm restarts from a checkpoint
  int sdc_detections = 0;  ///< audited gates that reported corruption
  int rollbacks = 0;       ///< in-place restores (no machine relaunch)
  int final_step = 0;
  std::string last_error;  ///< diagnosis of the last failed attempt ("")
  /// Wall seconds of failed attempts (failure detection latency included).
  double failed_attempt_seconds = 0;
  /// Wall seconds spent re-verifying the checkpoint chain before restores.
  double verify_seconds = 0;
  /// Wall seconds from the last failure being detected to the resumed
  /// machine running (verification included; the bench's headline).
  double detect_to_resume_seconds = 0;
  // ---- elastic degraded-mode accounting ----
  int final_width = 0;  ///< rank count of the last attempt
  int shrinks = 0;      ///< width reductions taken by the policy
  /// Rank count of each attempt, in attempt order (size == attempts).
  std::vector<int> width_history;
  /// Per-width stepping throughput, first-use order: the degradation cost
  /// of running on fewer ranks (steps/sec before vs after a shrink).
  struct WidthStepStats {
    int width = 0;
    int steps = 0;          ///< steps completed at this width (all attempts)
    double step_seconds = 0;  ///< rank-0 wall seconds inside those steps
    double steps_per_sec() const noexcept {
      return step_seconds > 0 ? steps / step_seconds : 0;
    }
  };
  std::vector<WidthStepStats> step_stats;
};

/// Drives a whole simulation to completion across failures. Construct,
/// optionally set the test hooks, call run().
class Supervisor {
 public:
  Supervisor(const cosmology::Cosmology& cosmo, SupervisorConfig config);

  /// Test hook: called after attempt `attempt` failed, before the next
  /// attempt picks its restore candidate — the window in which real-world
  /// damage (e.g. a checkpoint corrupted on disk) is injected in tests.
  std::function<void(int attempt)> between_attempts;
  /// Test hook: called on every rank at the end of the successful attempt,
  /// with the machine still up (gather final state, assert invariants).
  std::function<void(Simulation&, comm::Comm&)> on_finished;
  /// Observer hook: every lifecycle event the Supervisor records
  /// (attempt_start, checkpoint, restore, shrink, ...), fired whether or
  /// not a ledger path is configured — a campaign orchestrator rolls these
  /// up into its fleet journal. Called from the control thread *and* from
  /// the rank-0 machine thread, so the observer must be thread-safe.
  std::function<void(const obs::EventRecord&)> on_event;
  /// Fired when the elastic policy shrinks the relaunch width
  /// (from_width > to_width), before the narrower attempt launches — a
  /// campaign pool reclaims the shed ranks here. Called on the control
  /// thread.
  std::function<void(int from_width, int to_width)> on_width_change;

  SupervisorReport run();

  const CheckpointSet& checkpoints() const noexcept { return checkpoints_; }

  /// The bound metrics port (-1 when config.metrics_port is -1 or run()
  /// has not started the server yet).
  int metrics_port() const noexcept {
    return metrics_server_ ? metrics_server_->port() : -1;
  }
  /// The live source registry behind /metrics: each attempt's ranks
  /// register their counter/histogram sinks here; drivers (e.g. a query
  /// service riding on the run) may add their own sources. With
  /// config.shared_hub set this *is* that shared hub.
  obs::MetricsHub& metrics_hub() noexcept {
    return config_.shared_hub != nullptr ? *config_.shared_hub : hub_;
  }

 private:
  void rank_main(comm::Comm& comm, const std::string& restore_path,
                 int restore_step, int attempt);
  void start_metrics_server();
  void record_event(const std::string& kind, int step, int attempt,
                    const std::string& detail);
  /// Accumulate one completed step into the per-width throughput stats
  /// (called on the rank-0 thread only; attempts are serial).
  void note_step(int width, double seconds);

  cosmology::Cosmology cosmo_;
  SupervisorConfig config_;
  CheckpointSet checkpoints_;
  SupervisorReport report_;
  int width_ = 0;  ///< rank count of the current/next attempt

  /// /healthz state: every field an atomic so the server threads read it
  /// while rank threads advance the run.
  struct HealthState {
    std::atomic<int> attempt{-1};
    std::atomic<int> width{0};
    std::atomic<int> step{0};
    std::atomic<int> last_checkpoint{-1};
    std::atomic<std::uint64_t> anomalies{0};
    std::atomic<bool> completed{false};
  };
  HealthState health_;
  obs::MetricsHub hub_;
  std::unique_ptr<serve::MetricsServer> metrics_server_;
};

}  // namespace hacc::core
