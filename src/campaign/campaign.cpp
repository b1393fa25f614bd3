#include "campaign/campaign.h"

#include <algorithm>
#include <chrono>
#include <filesystem>

#include "util/error.h"

namespace hacc::campaign {

namespace fs = std::filesystem;

std::vector<RunSpec> CampaignSpec::expand() const {
  HACC_CHECK_MSG(base.grid > 0 && base.particles_per_dim > 0,
                 "CampaignSpec base needs a grid and particles");
  const std::vector<std::uint64_t> seed_axis =
      seeds.empty() ? std::vector<std::uint64_t>{base.seed} : seeds;
  const std::vector<std::size_t> grid_axis =
      grids.empty() ? std::vector<std::size_t>{base.grid} : grids;
  const std::vector<CosmologyVariant> cosmo_axis =
      cosmologies.empty() ? std::vector<CosmologyVariant>{{"", cosmo}}
                          : cosmologies;
  std::vector<RunSpec> out;
  out.reserve(seed_axis.size() * grid_axis.size() * cosmo_axis.size());
  for (const std::uint64_t seed : seed_axis) {
    for (const std::size_t grid : grid_axis) {
      for (const CosmologyVariant& cv : cosmo_axis) {
        RunSpec r;
        r.sim = base;
        r.sim.seed = seed;
        r.sim.grid = grid;
        // Keep the base particle-per-cell loading when the grid axis sweeps
        // resolution.
        r.sim.particles_per_dim =
            std::max<std::size_t>(1, base.particles_per_dim * grid / base.grid);
        r.cosmo = cv.cosmo;
        r.width = width;
        r.name = "s" + std::to_string(seed);
        if (grid_axis.size() > 1) r.name += "_g" + std::to_string(grid);
        if (!cv.tag.empty()) r.name += "_" + cv.tag;
        if (tweak) tweak(r);
        out.push_back(std::move(r));
      }
    }
  }
  for (std::size_t i = 0; i < out.size(); ++i)
    for (std::size_t j = i + 1; j < out.size(); ++j)
      HACC_CHECK_MSG(out[i].name != out[j].name,
                     "campaign expands to duplicate run name " + out[i].name +
                         " (give cosmology variants distinct tags)");
  return out;
}

const char* run_phase_name(RunPhase phase) {
  switch (phase) {
    case RunPhase::kQueued: return "queued";
    case RunPhase::kRunning: return "running";
    case RunPhase::kFinished: return "finished";
    case RunPhase::kQuarantined: return "quarantined";
  }
  return "?";
}

std::string CampaignOrchestrator::journal_path(const std::string& root_dir) {
  return root_dir + "/campaign.jsonl";
}

std::string CampaignOrchestrator::run_dir(const std::string& name) const {
  return config_.root_dir + "/runs/" + name;
}

CampaignOrchestrator::CampaignOrchestrator(const CampaignSpec& spec,
                                           CampaignConfig config)
    : spec_(spec), config_(std::move(config)) {
  HACC_CHECK_MSG(!config_.root_dir.empty(),
                 "CampaignOrchestrator needs a root directory");
  HACC_CHECK(config_.fleet_ranks >= 1 && config_.run_retries >= 0);
  fs::create_directories(config_.root_dir + "/runs");
  for (RunSpec& r : spec_.expand()) {
    HACC_CHECK_MSG(r.width >= 1 && r.width <= config_.fleet_ranks,
                   "run " + r.name + " wants " + std::to_string(r.width) +
                       " ranks but the fleet has " +
                       std::to_string(config_.fleet_ranks));
    RunStatus st;
    st.spec = std::move(r);
    runs_.push_back(std::move(st));
    plans_.emplace_back();
  }
  // Recover the fleet state a previous orchestrator made durable *before*
  // opening the journal for append: a killed orchestrator resumes here.
  replay_journal();
  journal_ = std::make_unique<CampaignJournal>(journal_path(config_.root_dir),
                                               /*append=*/true);
  pool_available_ = config_.fleet_ranks;
  // The fleet's own counters ride the shared hub beside the per-run rank
  // sources, labeled as the pseudo-run "campaign".
  hub_.add(obs::MetricsSource{0, &counters_, nullptr, "campaign"});
  // Bind the campaign endpoint now so metrics_port() is known (and the
  // scheduler state scrapeable) before run() starts the sweep.
  start_metrics_server();
}

CampaignOrchestrator::~CampaignOrchestrator() {
  for (std::thread& w : workers_)
    if (w.joinable()) w.join();
}

void CampaignOrchestrator::replay_journal() {
  const std::vector<JournalEntry> entries =
      CampaignJournal::replay(journal_path(config_.root_dir));
  for (const JournalEntry& e : entries) {
    if (e.run.empty()) continue;  // campaign-level entry
    RunStatus* st = nullptr;
    for (RunStatus& r : runs_)
      if (r.spec.name == e.run) {
        st = &r;
        break;
      }
    if (st == nullptr) continue;  // spec drifted; tolerate stale entries
    if (e.event == "scheduled") {
      st->scheduled = true;
    } else if (e.event == "started") {
      ++st->launches;
    } else if (e.event == "failed") {
      ++st->failures;
      st->last_error = e.detail;
    } else if (e.event == "finished") {
      st->phase = RunPhase::kFinished;
      st->replayed_terminal = true;
    } else if (e.event == "quarantined") {
      st->phase = RunPhase::kQuarantined;
      st->replayed_terminal = true;
    }
  }
  for (const RunStatus& st : runs_)
    if (st.replayed_terminal) ++report_.replay_skipped;
}

void CampaignOrchestrator::start_metrics_server() {
  if (config_.metrics_port < 0 || metrics_server_) return;
  serve::MetricsServer::Config mcfg;
  mcfg.port = config_.metrics_port;
  metrics_server_ = std::make_unique<serve::MetricsServer>(mcfg);
  metrics_server_->set_metrics_handler([this] { return hub_.render(); });
  metrics_server_->set_healthz_handler([this] { return healthz_json(); });
}

std::string CampaignOrchestrator::healthz_json() {
  std::lock_guard<std::mutex> lock(mu_);
  int queued = 0, running = 0, finished = 0, quarantined = 0;
  std::string runs = "{";
  for (const RunStatus& st : runs_) {
    switch (st.phase) {
      case RunPhase::kQueued: ++queued; break;
      case RunPhase::kRunning: ++running; break;
      case RunPhase::kFinished: ++finished; break;
      case RunPhase::kQuarantined: ++quarantined; break;
    }
    if (runs.size() > 1) runs += ",";
    runs += "\"" + st.spec.name + "\":\"" + run_phase_name(st.phase) + "\"";
  }
  runs += "}";
  const bool done = queued == 0 && running == 0;
  std::string body = "{\"status\":\"";
  body += done ? "ok" : "running";
  body += "\",\"queued\":" + std::to_string(queued);
  body += ",\"running\":" + std::to_string(running);
  body += ",\"finished\":" + std::to_string(finished);
  body += ",\"quarantined\":" + std::to_string(quarantined);
  body += ",\"pool_available\":" + std::to_string(pool_available_);
  body += ",\"fleet_ranks\":" + std::to_string(config_.fleet_ranks);
  body += ",\"runs\":" + runs + "}";
  return body;
}

void CampaignOrchestrator::note_busy_change(double now) {
  busy_ranksec_ += busy_ranks_ * std::max(0.0, now - last_change_s_);
  last_change_s_ = now;
}

int CampaignOrchestrator::pick_launchable() {
  if (halted_) return -1;
  if (config_.max_concurrent_runs > 0 &&
      active_ >= config_.max_concurrent_runs)
    return -1;
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    const RunStatus& st = runs_[i];
    if (st.phase != RunPhase::kQueued) continue;
    if (st.spec.width > pool_available_) continue;
    return static_cast<int>(i);
  }
  return -1;
}

CampaignReport CampaignOrchestrator::run() {
  clock_.reset();
  // Write-ahead intents: every sweep member is durably `scheduled` before
  // anything launches, so a replaying orchestrator knows the full work
  // list even if this process dies during the very first run.
  for (RunStatus& st : runs_) {
    if (st.scheduled) continue;
    journal_->append(JournalEntry{"scheduled", st.spec.name, -1, -1,
                                  st.spec.width, "sweep member"});
    st.scheduled = true;
  }
  journal_->append(JournalEntry{
      "orchestrator_start", "", -1, -1, config_.fleet_ranks,
      std::to_string(runs_.size()) + " run(s), " +
          std::to_string(report_.replay_skipped) + " already terminal"});

  std::unique_lock<std::mutex> lock(mu_);
  last_change_s_ = clock_.elapsed();
  for (;;) {
    const double now = clock_.elapsed();
    const int idx = pick_launchable();
    if (idx >= 0) {
      RunStatus& st = runs_[static_cast<std::size_t>(idx)];
      const int width = st.spec.width;
      // Grant: does this grant consume capacity an elastic shrink returned?
      const int reclaimed_used = std::min(shrink_pool_, width);
      shrink_pool_ -= reclaimed_used;
      report_.shrink_regrant_ranks += reclaimed_used;
      pool_available_ -= width;
      note_busy_change(now);
      busy_ranks_ += width;
      st.granted = width;
      st.phase = RunPhase::kRunning;
      const int launch_no = st.launches++;
      const bool resume = launch_no > 0;
      ++report_.launched;
      ++report_.grants;
      counters_.add(obs::counter_id("campaign.grants"), 1);
      if (reclaimed_used > 0)
        counters_.add(obs::counter_id("campaign.shrink_regrant_ranks"),
                      static_cast<std::uint64_t>(reclaimed_used));
      counters_.set(obs::gauge_id("campaign.active_runs"),
                    static_cast<std::uint64_t>(++active_));
      counters_.set(obs::gauge_id("campaign.pool_available"),
                    static_cast<std::uint64_t>(pool_available_));
      journal_->append(JournalEntry{
          "grant", st.spec.name, -1, launch_no, width,
          std::to_string(width) + " rank(s) from pool" +
              (reclaimed_used > 0
                   ? ", " + std::to_string(reclaimed_used) +
                         " of them shrink-reclaimed capacity"
                   : "")});
      if (config_.max_launches > 0 &&
          report_.launched >= config_.max_launches)
        halted_ = true;  // simulate the orchestrator dying after this grant
      workers_.emplace_back([this, idx, width, resume] {
        worker_main(idx, width, resume);
      });
      continue;  // the pool may hold another launchable run
    }
    bool all_terminal = true;
    for (const RunStatus& st : runs_)
      if (st.phase == RunPhase::kQueued || st.phase == RunPhase::kRunning)
        all_terminal = false;
    if (all_terminal && active_ == 0) break;
    if (halted_ && active_ == 0) {
      report_.interrupted = true;
      break;
    }
    // Wake on launch completions/reclaims (notified; the timeout is a
    // backstop).
    cv_.wait_for(lock, std::chrono::milliseconds(10));
  }
  note_busy_change(clock_.elapsed());
  lock.unlock();
  for (std::thread& w : workers_) w.join();
  workers_.clear();

  report_.makespan_s = clock_.elapsed();
  const double capacity = config_.fleet_ranks * report_.makespan_s;
  report_.utilization = capacity > 0 ? busy_ranksec_ / capacity : 0;
  report_.finished = 0;
  report_.quarantined = 0;
  bool all_terminal = true;
  for (const RunStatus& st : runs_) {
    if (st.phase == RunPhase::kFinished) ++report_.finished;
    else if (st.phase == RunPhase::kQuarantined) ++report_.quarantined;
    else all_terminal = false;
  }
  report_.completed = all_terminal;
  journal_->append(JournalEntry{
      "orchestrator_stop", "", -1, -1, 0,
      std::string(report_.interrupted ? "interrupted: " : "complete: ") +
          std::to_string(report_.finished) + " finished, " +
          std::to_string(report_.quarantined) + " quarantined"});
  report_.runs = runs_;
  return report_;
}

void CampaignOrchestrator::worker_main(int index, int width, bool resume) {
  RunStatus& st = runs_[static_cast<std::size_t>(index)];
  const RunSpec& spec = st.spec;
  const std::string dir = run_dir(spec.name);
  fs::create_directories(dir + "/ckpt");

  int launch_no = 0;
  comm::FaultPlan* plan = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    launch_no = st.launches - 1;
    // One plan per run, created at first launch and reused across its
    // relaunches: one-shot faults stay one-shot for the *run*, exactly like
    // a node that died once — but never leak into other runs.
    auto& slot = plans_[static_cast<std::size_t>(index)];
    if (!slot && config_.fault_plans) slot = config_.fault_plans(spec);
    plan = slot.get();
  }

  core::SupervisorConfig scfg;
  scfg.sim = spec.sim;
  scfg.sim.ledger_path = config_.ledger ? dir + "/ledger.jsonl" : "";
  scfg.sim.trace_path.clear();
  if (config_.insitu_cadence > 0) {
    scfg.sim.insitu.cadence = config_.insitu_cadence;
    scfg.sim.insitu.output_dir = dir + "/insitu";
  } else {
    scfg.sim.insitu.cadence = 0;
    scfg.sim.insitu.output_dir.clear();
  }
  scfg.nranks = width;
  scfg.elastic = config_.elastic;
  scfg.elastic.min_ranks = std::min(scfg.elastic.min_ranks, width);
  scfg.checkpoint_dir = dir + "/ckpt";
  scfg.checkpoint_every = config_.checkpoint_every;
  scfg.keep = config_.keep;
  scfg.max_retries = config_.supervisor_retries;
  scfg.max_momentum_drift = config_.max_momentum_drift;
  scfg.machine = config_.machine;
  scfg.machine.fault_plan = plan;
  scfg.metrics_port = -1;  // the campaign owns the one shared endpoint
  scfg.resume = resume;
  scfg.shared_hub = &hub_;
  scfg.run_label = spec.name;

  journal_->append(JournalEntry{
      "started", spec.name, -1, launch_no, width,
      resume ? "resume from newest verified checkpoint" : "cold start"});

  core::SupervisorReport rep;
  std::string error;
  try {
    core::Supervisor sup(spec.cosmo, scfg);
    sup.on_event = [this, &spec, launch_no](const obs::EventRecord& e) {
      // Mirror the run's Supervisor audit trail into the campaign rollup;
      // the journal vocabulary names checkpoint publication "checkpointed".
      journal_->append(JournalEntry{
          e.kind == "checkpoint" ? "checkpointed" : e.kind, spec.name, e.step,
          launch_no, 0, e.detail});
    };
    sup.on_width_change = [this, index](int from, int to) {
      reclaim_ranks(index, from, to);
    };
    if (config_.on_run_finished)
      sup.on_finished = [this, &spec](core::Simulation& sim,
                                      comm::Comm& comm) {
        config_.on_run_finished(spec, sim, comm);
      };
    rep = sup.run();
  } catch (const std::exception& e) {
    // A Supervisor constructor failure or an escape from its control loop:
    // count it like any failed launch.
    rep.completed = false;
    error = e.what();
  }
  if (!error.empty()) rep.last_error = error;
  finish_launch(index, rep);
  if (config_.after_run) config_.after_run(spec, rep);
}

void CampaignOrchestrator::reclaim_ranks(int index, int from_width,
                                         int to_width) {
  if (to_width >= from_width) return;
  std::lock_guard<std::mutex> lock(mu_);
  RunStatus& st = runs_[static_cast<std::size_t>(index)];
  const int freed = std::min(from_width - to_width, st.granted);
  if (freed <= 0) return;
  const double now = clock_.elapsed();
  note_busy_change(now);
  busy_ranks_ -= freed;
  st.granted -= freed;
  pool_available_ += freed;
  shrink_pool_ += freed;
  report_.shrink_reclaimed += freed;
  counters_.add(obs::counter_id("campaign.shrink_reclaimed_ranks"),
                static_cast<std::uint64_t>(freed));
  counters_.set(obs::gauge_id("campaign.pool_available"),
                static_cast<std::uint64_t>(pool_available_));
  journal_->append(JournalEntry{
      "reclaim", st.spec.name, -1, st.launches - 1, freed,
      "elastic shrink " + std::to_string(from_width) + " -> " +
          std::to_string(to_width) + " returned " + std::to_string(freed) +
          " rank(s) to the pool"});
  cv_.notify_all();
}

void CampaignOrchestrator::finish_launch(int index,
                                         const core::SupervisorReport& rep) {
  std::lock_guard<std::mutex> lock(mu_);
  RunStatus& st = runs_[static_cast<std::size_t>(index)];
  const double now = clock_.elapsed();
  note_busy_change(now);
  busy_ranks_ -= st.granted;
  pool_available_ += st.granted;
  st.granted = 0;
  st.report = rep;
  const int launch_no = st.launches - 1;
  if (rep.completed) {
    st.phase = RunPhase::kFinished;
    counters_.add(obs::counter_id("campaign.runs_finished"), 1);
    journal_->append(JournalEntry{
        "finished", st.spec.name, rep.final_step, launch_no, rep.final_width,
        std::to_string(rep.attempts) + " attempt(s), " +
            std::to_string(rep.restores) + " restore(s), " +
            std::to_string(rep.shrinks) + " shrink(s)"});
  } else {
    ++st.failures;
    st.last_error = rep.last_error;
    counters_.add(obs::counter_id("campaign.launch_failures"), 1);
    journal_->append(JournalEntry{"failed", st.spec.name, rep.final_step,
                                  launch_no, rep.final_width, rep.last_error});
    // Quarantine: the relaunch budget is gone, or the run keeps dying
    // without ever publishing a checkpoint — zero progress twice is the
    // signature of a deterministically-poisoned config, and relaunching it
    // forever would starve the queued runs behind it.
    const bool no_progress =
        core::CheckpointSet(run_dir(st.spec.name) + "/ckpt", 1)
            .existing()
            .empty();
    if (st.failures > config_.run_retries ||
        (no_progress && st.failures >= 2)) {
      st.phase = RunPhase::kQuarantined;
      counters_.add(obs::counter_id("campaign.runs_quarantined"), 1);
      journal_->append(JournalEntry{
          "quarantined", st.spec.name, -1, launch_no, 0,
          st.failures > config_.run_retries
              ? "retry budget exhausted (" + std::to_string(st.failures) +
                    " failure(s)): " + st.last_error
              : "no checkpoint after " + std::to_string(st.failures) +
                    " failures: deterministic failure suspected"});
    } else {
      st.phase = RunPhase::kQueued;
    }
  }
  counters_.set(obs::gauge_id("campaign.active_runs"),
                static_cast<std::uint64_t>(--active_));
  counters_.set(obs::gauge_id("campaign.pool_available"),
                static_cast<std::uint64_t>(pool_available_));
  cv_.notify_all();
}

}  // namespace hacc::campaign
