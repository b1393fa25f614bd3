#include "core/supervisor.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>

#include "comm/fault.h"
#include "gio/gio.h"
#include "obs/ledger.h"
#include "util/error.h"
#include "util/timer.h"

namespace hacc::core {

namespace fs = std::filesystem;

namespace {
constexpr const char* kCkptPrefix = "ckpt_";
constexpr const char* kCkptSuffix = ".gio";

/// Durably replace `path` with `body`: write and fsync `<path>.tmp`, then
/// gio::rename_durably() it onto `path`.
void write_durably(const std::string& path, const std::string& body) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  HACC_CHECK_MSG(f != nullptr, "cannot write " + tmp);
  std::fwrite(body.data(), 1, body.size(), f);
  std::fflush(f);
  ::fsync(fileno(f));
  std::fclose(f);
  gio::rename_durably(tmp, path);
}
}  // namespace

CheckpointSet::CheckpointSet(std::string dir, int keep)
    : dir_(std::move(dir)), keep_(std::max(keep, 1)) {}

std::string CheckpointSet::path_for_step(int step) const {
  char name[32];
  std::snprintf(name, sizeof(name), "%s%06d%s", kCkptPrefix, step,
                kCkptSuffix);
  return dir_ + "/" + name;
}

std::string CheckpointSet::latest_path() const { return dir_ + "/latest"; }

void CheckpointSet::publish(int step) {
  // Atomic pointer update: the `latest` file always names a checkpoint
  // that was completely written and verified, never a partial state.
  write_durably(latest_path(), std::to_string(step) + "\n");
  // Rotate: drop everything older than the last `keep_` checkpoints,
  // including their audit-verdict sidecars.
  const std::vector<int> steps = existing();
  for (std::size_t i = static_cast<std::size_t>(keep_); i < steps.size(); ++i) {
    std::remove(path_for_step(steps[i]).c_str());
    std::remove(verdict_path_for_step(steps[i]).c_str());
  }
}

std::string CheckpointSet::verdict_path_for_step(int step) const {
  char name[32];
  std::snprintf(name, sizeof(name), "%s%06d.audit", kCkptPrefix, step);
  return dir_ + "/" + name;
}

void CheckpointSet::record_verdict(int step, const std::string& verdict) {
  write_durably(verdict_path_for_step(step), verdict + "\n");
}

std::string CheckpointSet::verdict(int step) const {
  std::FILE* f = std::fopen(verdict_path_for_step(step).c_str(), "rb");
  if (f == nullptr) return "";
  char buf[32] = {};
  const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  std::string v(buf, n);
  while (!v.empty() && (v.back() == '\n' || v.back() == '\r')) v.pop_back();
  return v;
}

int CheckpointSet::latest() const {
  std::FILE* f = std::fopen(latest_path().c_str(), "rb");
  if (f == nullptr) return -1;
  char buf[32] = {};
  const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  if (n == 0) return -1;
  return std::atoi(buf);
}

std::vector<int> CheckpointSet::existing() const {
  std::vector<int> steps;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    const std::size_t plen = std::char_traits<char>::length(kCkptPrefix);
    const std::size_t slen = std::char_traits<char>::length(kCkptSuffix);
    if (name.size() <= plen + slen || name.compare(0, plen, kCkptPrefix) != 0 ||
        name.compare(name.size() - slen, slen, kCkptSuffix) != 0)
      continue;
    const std::string digits = name.substr(plen, name.size() - plen - slen);
    if (digits.find_first_not_of("0123456789") != std::string::npos) continue;
    steps.push_back(std::atoi(digits.c_str()));
  }
  std::sort(steps.rbegin(), steps.rend());
  return steps;
}

int CheckpointSet::newest_restorable(
    const std::function<void(int step, const std::string& why)>& on_reject)
    const {
  for (const int step : existing()) {
    const std::string path = path_for_step(step);
    // An audit verdict outranks the CRC: a "poisoned" checkpoint holds
    // corruption *inside* its checksummed payload, so verify_file passing
    // it proves nothing.
    if (verdict(step) == "poisoned") {
      on_reject(step, path + ": audit verdict poisoned");
      continue;
    }
    const gio::VerifyReport vr = gio::verify_file(path);
    if (vr.ok) return step;
    on_reject(step, path + (vr.header_ok ? ": sub-block CRC mismatch"
                                         : ": header unreadable"));
  }
  return -1;
}

int ElasticPolicy::next_width(int width, int failed_ranks) const {
  if (rule == ElasticRule::kSameWidth) return width;
  int next = width;
  switch (rule) {
    case ElasticRule::kSameWidth:
      break;
    case ElasticRule::kShrinkByFailed:
      next = width - std::max(failed_ranks, 1);
      break;
    case ElasticRule::kHalve:
      next = width / 2;
      break;
  }
  return std::clamp(next, std::max(min_ranks, 1), width);
}

const char* elastic_rule_name(ElasticRule rule) {
  switch (rule) {
    case ElasticRule::kSameWidth: return "same_width";
    case ElasticRule::kShrinkByFailed: return "shrink_by_failed";
    case ElasticRule::kHalve: return "halve";
  }
  return "?";
}

Supervisor::Supervisor(const cosmology::Cosmology& cosmo,
                       SupervisorConfig config)
    : cosmo_(cosmo),
      config_(std::move(config)),
      checkpoints_(config_.checkpoint_dir, config_.keep),
      width_(config_.nranks) {
  HACC_CHECK_MSG(!config_.checkpoint_dir.empty(),
                 "Supervisor needs a checkpoint directory");
  HACC_CHECK(config_.checkpoint_every >= 1 && config_.nranks >= 1);
  HACC_CHECK_MSG(config_.elastic.min_ranks >= 1 &&
                     config_.elastic.min_ranks <= config_.nranks,
                 "ElasticPolicy::min_ranks must be in [1, nranks]");
  fs::create_directories(config_.checkpoint_dir);
}

void Supervisor::note_step(int width, double seconds) {
  for (auto& s : report_.step_stats) {
    if (s.width != width) continue;
    ++s.steps;
    s.step_seconds += seconds;
    return;
  }
  report_.step_stats.push_back({width, 1, seconds});
}

void Supervisor::record_event(const std::string& kind, int step, int attempt,
                              const std::string& detail) {
  const obs::EventRecord e{kind, step, attempt, detail};
  if (on_event) on_event(e);
  if (config_.sim.ledger_path.empty()) return;
  obs::Ledger::append_event_to(config_.sim.ledger_path, e);
}

void Supervisor::start_metrics_server() {
  // With a shared hub the campaign owns the one endpoint for all runs.
  if (config_.shared_hub != nullptr) return;
  if (config_.metrics_port < 0 || metrics_server_) return;
  serve::MetricsServer::Config mcfg;
  mcfg.port = config_.metrics_port;
  metrics_server_ = std::make_unique<serve::MetricsServer>(mcfg);
  metrics_server_->set_metrics_handler([this] { return hub_.render(); });
  metrics_server_->set_healthz_handler([this] {
    const bool done = health_.completed.load(std::memory_order_relaxed);
    std::string body = "{\"status\":\"";
    body += done ? "ok" : "running";
    body += "\",\"attempt\":" +
            std::to_string(health_.attempt.load(std::memory_order_relaxed));
    body += ",\"width\":" +
            std::to_string(health_.width.load(std::memory_order_relaxed));
    body += ",\"step\":" +
            std::to_string(health_.step.load(std::memory_order_relaxed));
    body += ",\"last_checkpoint_step\":" +
            std::to_string(
                health_.last_checkpoint.load(std::memory_order_relaxed));
    body += ",\"anomalies\":" +
            std::to_string(health_.anomalies.load(std::memory_order_relaxed));
    body += ",\"completed\":";
    body += done ? "true" : "false";
    body += "}";
    return body;
  });
}

void Supervisor::rank_main(comm::Comm& comm, const std::string& restore_path,
                           int restore_step, int attempt) {
  Simulation sim(comm, cosmo_, config_.sim);
  // Register this rank's scrape sinks for the lifetime of the attempt.
  // Declared after `sim`, so unwinding removes the source from the hub
  // before the sinks it points at are destroyed.
  struct HubGuard {
    obs::MetricsHub* hub;
    int handle;
    ~HubGuard() {
      if (hub != nullptr) hub->remove(handle);
    }
  } hub_guard{nullptr, -1};
  if (metrics_server_ || config_.shared_hub != nullptr) {
    obs::MetricsHub& hub = metrics_hub();
    hub_guard.hub = &hub;
    hub_guard.handle = hub.add(obs::MetricsSource{
        comm.rank(), &sim.counters(), &sim.histograms(), config_.run_label});
  }
  const bool ledger_on = !config_.sim.ledger_path.empty();
  const bool root = comm.rank() == 0;
  // Root-side event sink: the run ledger (when configured) plus the
  // on_event observer (always) — call sites guard on `root` so each event
  // is emitted exactly once per machine.
  auto emit = [&](const obs::EventRecord& e) {
    if (ledger_on) sim.mutable_ledger().append_event(e);
    if (on_event) on_event(e);
  };
  if (ledger_on && root) {
    // Attempt 0 of a fresh run owns the file; recovery attempts (and
    // resume-mode relaunches) append below the records the earlier attempts
    // already made durable.
    sim.mutable_ledger().stream_to(config_.sim.ledger_path,
                                   /*append=*/attempt > 0 || config_.resume);
  }
  if (root)
    emit(obs::EventRecord{
        "attempt_start", -1, attempt,
        restore_path.empty() ? std::string("cold start")
                             : "restore from " + restore_path});
  if (restore_path.empty()) {
    sim.initialize();
  } else {
    sim.read_checkpoint(restore_path);
  }

  // SDC bookkeeping. Both are per-rank locals that stay in lockstep: every
  // rank sees the same reduced HealthReport, so every rank takes the same
  // branches. `last_clean_audit` bounds the corruption window a detection
  // poisons: anything checkpointed after the last audited-clean gate may
  // hold the flip inside a CRC-clean payload.
  int last_clean_audit = std::max(0, restore_step);
  int rollbacks_taken = 0;

  while (sim.steps_taken() < config_.sim.steps) {
    // Announce the step to fault injection: a scheduled kill fires here, on
    // the victim rank, exactly once across all supervisor attempts.
    comm::fault::set_step(sim.steps_taken() + 1);
    Timer step_timer;
    sim.step();
    // Per-width throughput: the degradation cost of a shrink (attempts are
    // serial, so the rank-0 thread is the only writer).
    if (root) note_step(comm.size(), step_timer.elapsed());
    if (ledger_on) sim.record_step_ledger();
    if (root) {
      health_.step.store(sim.steps_taken(), std::memory_order_relaxed);
      health_.anomalies.store(sim.anomaly_count(), std::memory_order_relaxed);
    }

    // Health guards before the state can be checkpointed: a checkpoint of
    // sick state would poison every later recovery. The report is
    // identical on all ranks, so all ranks take the same branch below.
    const Simulation::HealthReport health = sim.health_check();
    const bool sdc_ok =
        !health.audited || health.sdc_clean(config_.sim.audit);
    if (health.audited && root) {
      emit(obs::EventRecord{
          "audit", sim.steps_taken(), attempt,
          sdc_ok ? "clean" : health.describe_sdc(config_.sim.audit)});
    }
    if (health.audited && sdc_ok) last_clean_audit = sim.steps_taken();

    // SDC response ladder, evaluated *before* the hard health throw: an
    // in-place rollback on the live machine is far cheaper than tearing it
    // down and relaunching, and a flip large enough to also trip the
    // momentum/nonfinite guards is still just corrupted state — restore it.
    if (!sdc_ok) {
      const int detect_step = sim.steps_taken();
      const std::string what = health.describe_sdc(config_.sim.audit);
      if (root) {
        ++report_.sdc_detections;
        sim.mutable_watchdog().note(obs::Anomaly{"sdc", 1.0, what});
        health_.anomalies.store(sim.anomaly_count(),
                                std::memory_order_relaxed);
        emit(obs::EventRecord{"sdc_detected", detect_step, attempt, what});
        // The flip happened somewhere in (last clean audit, now]: every
        // checkpoint written in that window may hold the corruption inside
        // a CRC-clean payload. Poison them durably so neither this ladder
        // nor a later relaunch restores one.
        for (const int cs : checkpoints_.existing())
          if (cs > last_clean_audit && cs <= detect_step)
            checkpoints_.record_verdict(cs, "poisoned");
      }
      if (++rollbacks_taken > config_.max_rollbacks) {
        const std::string msg =
            "SDC rollback budget exhausted (" +
            std::to_string(config_.max_rollbacks) + ") after step " +
            std::to_string(detect_step) + ": " + what;
        if (root)
          emit(obs::EventRecord{"rollback_failed", detect_step, attempt, msg});
        throw Error(msg);
      }
      // Pick the newest checkpoint that is neither poisoned nor damaged on
      // disk.
      int candidate = -1;
      if (root) {
        candidate = checkpoints_.newest_restorable(
            [&](int cs, const std::string& why) {
              emit(obs::EventRecord{"checkpoint_rejected", cs, attempt, why});
            });
      }
      candidate = comm.bcast_value(candidate, 0);
      if (candidate < 0) {
        // Escalate: no state on disk is trustworthy at this width. The
        // machine-level catch in run() owns what happens next (relaunch,
        // possibly elastic, possibly cold).
        const std::string msg =
            "SDC detected after step " + std::to_string(detect_step) +
            " and no audit-clean checkpoint is restorable: " + what;
        if (root)
          emit(obs::EventRecord{"rollback_failed", detect_step, attempt, msg});
        throw Error(msg);
      }
      // In-place restore on the live machine: no teardown, no relaunch. A
      // read failure here (the file died between verify and read) escapes
      // to run()'s catch and escalates exactly like any other rank fault.
      sim.read_checkpoint(checkpoints_.path_for_step(candidate));
      last_clean_audit = candidate;
      if (root) {
        ++report_.rollbacks;
        health_.step.store(sim.steps_taken(), std::memory_order_relaxed);
        emit(obs::EventRecord{"rollback", candidate, attempt,
                              checkpoints_.path_for_step(candidate)});
        emit(obs::EventRecord{
            "resume", candidate, attempt,
            "in-place resume at step " + std::to_string(candidate) +
                " (no relaunch)"});
      }
      continue;  // the corrupted step is never checkpointed
    }

    if (!health.ok(config_.max_momentum_drift)) {
      const std::string what =
          "health check failed after step " +
          std::to_string(sim.steps_taken()) + ": " +
          health.describe(config_.max_momentum_drift);
      if (root)
        emit(obs::EventRecord{"health_check_failed", sim.steps_taken(),
                              attempt, what});
      throw Error(what);
    }

    const int s = sim.steps_taken();
    if (s % config_.checkpoint_every == 0 || s == config_.sim.steps) {
      const std::string path = checkpoints_.path_for_step(s);
      sim.write_checkpoint(path);  // write-then-verify inside (collective)
      if (root) {
        checkpoints_.publish(s);
        // The verdict rides with the checkpoint: restores prefer state
        // that had passed a full audit at the moment it was written.
        checkpoints_.record_verdict(
            s, health.audited && sdc_ok ? "clean" : "unaudited");
        health_.last_checkpoint.store(s, std::memory_order_relaxed);
        emit(obs::EventRecord{"checkpoint", s, attempt, path});
      }
      comm.barrier();  // pointer update + rotation visible everywhere
    }
  }
  if (on_finished) on_finished(sim, comm);
}

SupervisorReport Supervisor::run() {
  report_ = SupervisorReport{};
  width_ = config_.nranks;
  start_metrics_server();  // outlives attempts: scrapeable through failures
  health_.completed.store(false, std::memory_order_relaxed);
  std::optional<Timer> recover_timer;  // starts when a failure is detected
  for (int attempt = 0;; ++attempt) {
    report_.attempts = attempt + 1;
    report_.width_history.push_back(width_);
    report_.final_width = width_;
    health_.attempt.store(attempt, std::memory_order_relaxed);
    health_.width.store(width_, std::memory_order_relaxed);
    std::string restore;
    int restore_step = -1;
    if (attempt > 0 || config_.resume) {
      // Re-verify the chain newest-first: a checkpoint that was good when
      // written can be damaged on disk afterwards, and `latest` may point
      // at exactly that file. Restore from the first one that still reads
      // back clean. Resume mode (a campaign relaunching a run a previous
      // process advanced) takes the same path on the very first attempt.
      Timer verify_timer;
      restore_step = checkpoints_.newest_restorable(
          [&](int step, const std::string& why) {
            record_event("checkpoint_rejected", step, attempt, why);
          });
      if (restore_step >= 0) {
        restore = checkpoints_.path_for_step(restore_step);
        record_event("restore", restore_step, attempt, restore);
      }
      report_.verify_seconds += verify_timer.elapsed();
      // A resume-mode warm start is a restore too (attempt > 0 relaunches
      // are counted on their failure path below).
      if (attempt == 0 && !restore.empty()) ++report_.restores;
      if (restore.empty())
        record_event("restore_cold", -1, attempt,
                     "no usable checkpoint; restarting from initial "
                     "conditions");
      // Audit trail: every recovery attempt names the width it resumes at,
      // so a shrinking campaign's degradation history reads straight off
      // the ledger.
      record_event("resume_at_width", restore_step, attempt,
                   "width " + std::to_string(width_));
    }
    if (recover_timer) {
      report_.detect_to_resume_seconds = recover_timer->elapsed();
      recover_timer.reset();
    }

    Timer attempt_timer;
    comm::MachineReport machine_report;
    try {
      comm::Machine::run(
          width_,
          [&](comm::Comm& comm) {
            rank_main(comm, restore, restore_step, attempt);
          },
          config_.machine, &machine_report);
      report_.completed = true;
      report_.final_step = config_.sim.steps;
      health_.completed.store(true, std::memory_order_relaxed);
      record_event("run_complete", config_.sim.steps, attempt, "");
      return report_;
    } catch (const std::exception& e) {
      report_.failed_attempt_seconds += attempt_timer.elapsed();
      report_.last_error = e.what();
      recover_timer.emplace();
      record_event("attempt_failed", -1, attempt, e.what());
      if (attempt >= config_.max_retries) {
        record_event("giveup", -1, attempt, "retry budget exhausted");
        return report_;
      }
      ++report_.restores;
      // Elastic policy: shrink instead of retrying at the failed width.
      // The failed-rank count comes from the machine post-mortem (root
      // causes only, not collateral aborts).
      const int failed =
          std::max<int>(1, static_cast<int>(machine_report.failed_ranks.size()));
      const int next = config_.elastic.next_width(width_, failed);
      if (next < width_) {
        ++report_.shrinks;
        record_event(
            "shrink", restore_step, attempt,
            "width " + std::to_string(width_) + " -> " + std::to_string(next) +
                " (" + elastic_rule_name(config_.elastic.rule) + ", " +
                std::to_string(failed) + " failed rank(s))");
        // A campaign pool reclaims the shed ranks before the narrower
        // attempt launches.
        if (on_width_change) on_width_change(width_, next);
        width_ = next;
      }
      if (between_attempts) between_attempts(attempt);
    }
  }
}

}  // namespace hacc::core
