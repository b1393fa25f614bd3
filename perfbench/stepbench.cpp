// Layered step benchmark of a real multi-rank core::Simulation.
//
//   stepbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --out <dir> [--smoke] [--steps <n>]
//   stepbench --workload <name> --describe
//
// Untraced (--trace 0): closed-loop trajectories, z 50 -> 0, one simulation
// at a time, as many seeded realizations as nominally fit in --seconds,
// then checkpoint, in-situ and elastic-restore samples; reports the
// end-to-end metrics. Traced
// (--trace 1): one trajectory that stops at fixed steps to replay the next
// step's layer calls under spans (replay.h); reports the per-layer metrics.
// Both modes run the physics checks. The last stdout line is one JSON
// record; run.py turns it into the benchmark's result line. README.md
// explains every metric.
#include <omp.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "comm/comm.h"
#include "core/simulation.h"
#include "core/supervisor.h"
#include "gio/gio.h"
#include "obs/obs.h"
#include "perfmodel/kernel_model.h"
#include "replay.h"
#include "serve/insitu.h"
#include "spans.h"
#include "tree/force_kernel.h"
#include "util/timer.h"
#include "workload.h"

namespace {

using namespace hacc;
using namespace perfbench;
using core::Simulation;

/// Set-ups timed per run (the first in a process is cold), spread over its
/// trajectories; setup_s is their median.
constexpr int kSetupsPerRun = 4;
/// Samples of one checkpoint write and one elastic read (each well under a
/// second, so the median needs many), and of one in-situ catalog step of
/// the final state (about a second each) on the stepped workloads.
constexpr int kIoRepeats = 15;
constexpr int kInsituRepeats = 5;
/// Steps whose spectra the linear-growth check compares (z ~ 7.5 -> 3.6:
/// the lowest k bins of the 64 Mpc/h box are still linear there; by z ~ 2
/// mode coupling lifts k ~ 0.24 h/Mpc 20% above D^2 in some seeds).
constexpr int kGrowthFrom = 1, kGrowthTo = 2;
constexpr double kGrowthKmax = 0.25;      ///< h/Mpc
constexpr std::size_t kGrowthMinModes = 20;
constexpr double kGrowthTol = 0.15;
/// Spectrum bins one fundamental mode (2 pi / box) wide.
std::size_t pk_bins(const core::SimulationConfig& cfg) { return cfg.grid / 2; }
/// Health gate's momentum-drift budget per particle (code units; p_rms is
/// 3-5 at z = 0). Overloading does not conserve momentum exactly: a close
/// pair split across ranks is kicked through passive copies that chaos has
/// moved apart, so a halo straddling a rank boundary leaves net momentum of
/// a few particles' kicks (up to 1.3e-4 per particle over 16 realizations
/// of insitu-checkpoint, 48^3). A force that is asymmetric everywhere leaves
/// orders of magnitude more.
constexpr double kMomentumDriftPerParticle = 1e-3;
double drift_budget(double particles) {
  return kMomentumDriftPerParticle * particles;
}

struct Args {
  std::string workload, out;
  std::uint64_t seed = 1;
  double seconds = 10;
  int steps = 0;  ///< override of the workload's step count (self-test)
  int trajectories = 1;  ///< realizations stepped by an untraced run
  bool trace = false, smoke = false, describe = false;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Wall seconds of fn() between two barriers. Collective.
template <typename F>
double timed(comm::Comm& c, F&& fn) {
  c.barrier();
  Timer t;
  fn();
  c.barrier();
  return t.elapsed();
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// Cores this process may run on (what `nproc` prints).
int usable_cores() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

/// Everything one run learns; written by the main thread or by rank 0.
struct Record {
  int attempted = 0, failed = 0;
  std::vector<std::string> failures;
  std::vector<std::pair<std::string, std::string>> checks;  ///< "" = passed
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::vector<double> setup_s, checkpoint_s, restore_s, insitu_s, loop_ns;
  std::vector<double> step_s;  ///< iteration walls of the last trajectory
  std::vector<std::vector<cosmology::PowerBin>> final_pk;  ///< per trajectory
  /// OpenMP teams seen by the rank threads, and how many had the wrong size.
  std::atomic<int> teams_seen{0}, teams_wrong{0};

  /// Run fn(); a throw is recorded with its message instead of aborting.
  template <typename F>
  bool attempt(const std::string& what, F&& fn) {
    ++attempted;
    try {
      fn();
      return true;
    } catch (const std::exception& e) {
      ++failed;
      failures.push_back(what + ": " + e.what());
      return false;
    }
  }
  /// Physics checks that need full resolution are reported, not counted,
  /// at smoke size.
  bool smoke = false;

  void check(const std::string& name, bool ok, const std::string& detail) {
    ++attempted;
    if (!ok) ++failed;
    checks.emplace_back(name, ok ? "" : detail);
  }
  void physics_check(const std::string& name, bool ok,
                     const std::string& detail) {
    if (smoke)
      checks.emplace_back(name, ok ? "" : "not counted at smoke size: " + detail);
    else
      check(name, ok, detail);
  }
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
};

int setups_per_trajectory(const Args& a) {
  return (kSetupsPerRun + a.trajectories - 1) / a.trajectories;
}

/// Record the size of the team a parallel region opened by this rank thread
/// actually gets.
void note_team(const Workload& w, Record& rec) {
  int team = 0;
#pragma omp parallel
  {
#pragma omp single
    team = omp_get_num_threads();
  }
  ++rec.teams_seen;
  if (team != w.threads) ++rec.teams_wrong;
}

/// Oversubscription guard: pin this rank thread's OpenMP team size.
void set_threads(const Workload& w, Record& rec) {
  omp_set_num_threads(w.threads);
  note_team(w, rec);
}

/// Low-k linear growth between two spectra of one run: P1/P0 = (D1/D0)^2
/// per bin (cf. LinearGrowth.PowerSpectrumGrowsAsDSquared). "" = passed.
std::string growth_error(const std::vector<cosmology::PowerBin>& p0, double a0,
                         const std::vector<cosmology::PowerBin>& p1,
                         double a1) {
  if (p0.size() != p1.size() || p0.empty()) return "spectra missing";
  const cosmology::Cosmology cosmo;
  const double d = cosmo.growth_factor(a1) / cosmo.growth_factor(a0);
  std::size_t tested = 0;
  std::ostringstream err;
  for (std::size_t i = 0; i < p0.size(); ++i) {
    if (p0[i].modes < kGrowthMinModes || p0[i].k > kGrowthKmax ||
        p0[i].power <= 0)
      continue;
    ++tested;
    const double r = p1[i].power / p0[i].power / (d * d);
    if (std::abs(r - 1.0) > kGrowthTol)
      err << "k=" << p0[i].k << " grew " << r << "x of D^2; ";
  }
  if (tested < 2) err << "only " << tested << " low-k bins";
  return err.str();
}

void check_health(Record& rec, const std::string& name,
                  const Simulation::HealthReport& h) {
  const double budget = drift_budget(static_cast<double>(h.expected));
  rec.check(name, h.ok(budget), h.describe(budget));
}

/// The variables of one catalog, read back on one rank.
std::vector<std::vector<std::byte>> read_catalog(
    const std::string& path,
    const std::vector<std::pair<std::string, gio::VarType>>& vars) {
  std::vector<std::vector<std::byte>> bufs(vars.size());
  comm::Machine::run(1, [&](comm::Comm& c) {
    std::vector<gio::ReadVar> rv;
    for (std::size_t i = 0; i < vars.size(); ++i)
      rv.push_back(gio::ReadVar{vars[i].first, vars[i].second, &bufs[i]});
    const gio::ReadReport r = gio::read(c, path, rv);
    if (!r.corrupt.empty()) throw Error(path + " has corrupt blocks");
  });
  return bufs;
}

std::vector<std::byte> halo_rows(const std::string& path) {
  using gio::VarType;
  const auto bufs = read_catalog(
      path, {{"halo_id", VarType::kUInt64}, {"count", VarType::kUInt64},
             {"mass", VarType::kFloat32}, {"cx", VarType::kFloat32},
             {"cy", VarType::kFloat32}, {"cz", VarType::kFloat32},
             {"vcx", VarType::kFloat32}, {"vcy", VarType::kFloat32},
             {"vcz", VarType::kFloat32}});
  std::vector<std::byte> rows;
  for (const auto& b : bufs) rows.insert(rows.end(), b.begin(), b.end());
  return rows;
}

std::vector<cosmology::PowerBin> spectrum_rows(const std::string& path) {
  const auto bufs = read_catalog(path, {{"k", gio::VarType::kFloat32},
                                        {"power", gio::VarType::kFloat32},
                                        {"modes", gio::VarType::kUInt64}});
  const std::size_t n = bufs[0].size() / sizeof(float);
  std::vector<cosmology::PowerBin> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    float k = 0, p = 0;
    std::uint64_t m = 0;
    std::memcpy(&k, bufs[0].data() + i * sizeof(float), sizeof(float));
    std::memcpy(&p, bufs[1].data() + i * sizeof(float), sizeof(float));
    std::memcpy(&m, bufs[2].data() + i * sizeof(m), sizeof(m));
    out[i] = cosmology::PowerBin{k, p, m};
  }
  return out;
}

/// Single-core FMA rate in the paper's fused accounting (2 flops per lane
/// per FMA): 16 independent 4-wide chains. A property of the host, kept in
/// the record's fingerprint and used only as tree.model_ratio's denominator.
double fma_peak_gflops() {
  using vf4 = float __attribute__((vector_size(16)));
  const vf4 b = {0.999999f, 0.999999f, 0.999999f, 0.999999f};
  const vf4 c = {1e-7f, 2e-7f, 3e-7f, 4e-7f};
  vf4 a0 = b, a1 = b + c, a2 = a1 + c, a3 = a2 + c, a4 = a3 + c, a5 = a4 + c,
      a6 = a5 + c, a7 = a6 + c, a8 = a7 + c, a9 = a8 + c, a10 = a9 + c,
      a11 = a10 + c, a12 = a11 + c, a13 = a12 + c, a14 = a13 + c,
      a15 = a14 + c;
  constexpr int kChunk = 100000;
  double flops = 0;
  Timer t;
  do {
    for (int r = 0; r < kChunk; ++r) {
      a0 = a0 * b + c; a1 = a1 * b + c; a2 = a2 * b + c; a3 = a3 * b + c;
      a4 = a4 * b + c; a5 = a5 * b + c; a6 = a6 * b + c; a7 = a7 * b + c;
      a8 = a8 * b + c; a9 = a9 * b + c; a10 = a10 * b + c; a11 = a11 * b + c;
      a12 = a12 * b + c; a13 = a13 * b + c; a14 = a14 * b + c;
      a15 = a15 * b + c;
    }
    flops += static_cast<double>(kChunk) * 16 * 4 * 2;
  } while (t.elapsed() < 0.1);
  const vf4 sum = ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7)) +
                  ((a8 + a9) + (a10 + a11)) + ((a12 + a13) + (a14 + a15));
  volatile float sink = sum[0] + sum[1] + sum[2] + sum[3];
  (void)sink;
  return flops / t.elapsed() / 1e9;
}

// ---- traced-run aggregation (rank 0) ---------------------------------------

/// Sums, over replayed steps, of each layer's time on the slowest rank (the
/// critical path), of the ranks' mean wait, and of the work counts.
struct TraceTotals {
  int replays = 0;
  std::map<std::string, double> self_s, total_s, counts;
  double wait_s = 0, covered_s = 0, replay_s = 0, step_s = 0;
  double imbalance = 0, kernel_core_s = 0;

  void add(const std::vector<ReplayResult>& ranks, int threads) {
    ++replays;
    const double n = static_cast<double>(ranks.size());
    std::map<std::string, double> self_max, total_max;
    double sr_max = 0, sr_sum = 0;
    for (const ReplayResult& r : ranks) {
      // First rank's value, then the max: the self time of a no-op span
      // split by a no-op probe may be a few ns below zero.
      for (const auto& [k, v] : r.self_s) {
        if (k == "comm.wait") continue;
        const auto [it, fresh] = self_max.try_emplace(k, v);
        if (!fresh) it->second = std::max(it->second, v);
      }
      for (const auto& [k, v] : r.total_s)
        total_max[k] = std::max(total_max[k], v);
      for (const auto& [k, v] : r.counts)
        counts[k] = is_global_count(k) ? std::max(counts[k], v) : counts[k] + v;
      auto get = [](const std::map<std::string, double>& m, const char* k) {
        const auto it = m.find(k);
        return it == m.end() ? 0.0 : it->second;
      };
      wait_s += get(r.self_s, "comm.wait") / n;
      covered_s += r.covered_s / n;
      const double sr = get(r.total_s, "tree.short_range");
      sr_max = std::max(sr_max, sr);
      sr_sum += sr;
      kernel_core_s += get(r.self_s, "tree.short_range") * threads;
    }
    replay_s += ranks[0].step_s;
    imbalance += sr_sum > 0 ? sr_max / (sr_sum / n) : 0;
    for (const auto& [k, v] : self_max) self_s[k] += v;
    for (const auto& [k, v] : total_max) total_s[k] += v;
  }
  /// Per-replayed-step mean of a summed quantity.
  double per(double sum) const { return replays > 0 ? sum / replays : 0; }
  double self(const std::string& k) const {
    const auto it = self_s.find(k);
    return per(it == self_s.end() ? 0 : it->second);
  }
  double total(const std::string& k) const {
    const auto it = total_s.find(k);
    return per(it == total_s.end() ? 0 : it->second);
  }
  double count(const std::string& k) const {
    const auto it = counts.find(k);
    return per(it == counts.end() ? 0 : it->second);
  }
};

/// Replay before these steps: early, middle and late in the trajectory.
bool replay_before(int step, int steps) {
  return step >= 2 && step < steps && (step - 2) % 3 == 0;
}

/// Shared by the rank threads of one traced trajectory.
struct TraceShared {
  std::vector<SpanLog> logs;
  std::vector<ReplayResult> slots;
  std::vector<double> ic_s;
  TraceTotals totals;
  double ic_max = 0;
};

/// What one trajectory saw (rank 0).
struct Trajectory {
  std::vector<double> iter_s;  ///< per-step iteration wall (step + extras)
  std::vector<double> step_s;  ///< Simulation::step() alone
  std::vector<cosmology::PowerBin> pk_from, pk_to;
  double a_from = 0, a_to = 0;
};

/// Step one initialized simulation z 50 -> 0. With `ckpts` the iteration
/// is the Supervisor's (step, ledger record, health gate, verified
/// checkpoint); with `replayer` the listed steps are replayed under spans
/// first. Collective.
void run_trajectory(comm::Comm& c, Simulation& sim, Trajectory& traj,
                    Record& rec, core::CheckpointSet* ckpts,
                    Replayer* replayer, TraceShared* trace, int threads,
                    const std::string& tag) {
  const bool root = c.rank() == 0;
  const int steps = sim.config().steps;
  for (int s = 1; s <= steps; ++s) {
    if (replayer != nullptr && replay_before(s, steps)) {
      trace->slots[static_cast<std::size_t>(c.rank())] = replayer->replay_step();
      c.barrier();
      if (root) trace->totals.add(trace->slots, threads);
      c.barrier();
    }
    double step_s = 0;
    const double iter_s = timed(c, [&] {
      Timer t;
      sim.step();
      step_s = t.elapsed();
      if (ckpts == nullptr) return;
      if (!sim.config().ledger_path.empty()) sim.record_step_ledger();
      const Simulation::HealthReport h = sim.health_check();
      const double budget = drift_budget(static_cast<double>(h.expected));
      if (!h.ok(budget))
        throw Error("health check failed after step " + std::to_string(s) +
                    ": " + h.describe(budget));
      sim.write_checkpoint(ckpts->path_for_step(s));
      if (root) {
        ckpts->publish(s);
        ckpts->record_verdict(s, h.audited ? "clean" : "unaudited");
      }
    });
    if (root) {
      traj.iter_s.push_back(iter_s);
      traj.step_s.push_back(step_s);
      if (replayer != nullptr && replay_before(s, steps))
        trace->totals.step_s += iter_s;
    }
    if (s == kGrowthFrom || s == kGrowthTo) {
      auto pk = sim.power_spectrum(pk_bins(sim.config()));
      if (root) {
        (s == kGrowthFrom ? traj.pk_from : traj.pk_to) = std::move(pk);
        (s == kGrowthFrom ? traj.a_from : traj.a_to) = sim.current_a();
      }
    }
  }
  const Simulation::HealthReport h = sim.health_check();
  auto final_pk = sim.power_spectrum(pk_bins(sim.config()));
  if (root) {
    check_health(rec, "health." + tag, h);
    const std::string err =
        growth_error(traj.pk_from, traj.a_from, traj.pk_to, traj.a_to);
    rec.physics_check("growth." + tag, err.empty(), err);
    rec.final_pk.push_back(std::move(final_pk));
    rec.metric("mesh.solves_per_step",
               static_cast<double>(sim.timers().count("poisson")) /
                   sim.steps_taken(),
               "count");
  }
}

/// ns per substep per particle over the steps after the first (warm-up).
double loop_ns(const std::vector<double>& iter_s, const Workload& w) {
  double wall = 0;
  for (std::size_t i = 1; i < iter_s.size(); ++i) wall += iter_s[i];
  return wall * 1e9 /
         (static_cast<double>(iter_s.size() - 1) * kSubcycles *
          particle_count(w));
}

/// Elastic restore of `ckpt` at restore_shape(w), timed; the restored
/// state's in-situ halo catalog must match `halo_ref` byte for byte. With
/// `extra_step` the restored run then takes one more step of the same size.
void run_restore(const Workload& w, const Args& a, Record& rec,
                 const std::string& ckpt, const std::string& halo_ref,
                 bool extra_step) {
  core::SimulationConfig cfg = make_config(w, a.seed, a.out);
  cfg.insitu.cadence = 0;
  cfg.ledger_path.clear();
  cfg.insitu.output_dir = a.out + "/repeat";
  // Extend the z range by one step of the same Δa, so the restored state
  // (at the configured final z) has one more step to take.
  const double ai = cosmology::Cosmology::a_of_z(cfg.z_initial);
  const double af = cosmology::Cosmology::a_of_z(cfg.z_final);
  cfg.steps += 1;
  cfg.z_final = 1.0 / (af + (af - ai) / w.steps) - 1.0;
  const cosmology::Cosmology cosmo;
  int step_restored = 0;
  const Workload shape = restore_shape(w);
  rec.attempt("restore", [&] {
    comm::Machine::run(shape.ranks, [&](comm::Comm& c) {
      set_threads(shape, rec);
      Simulation sim(c, cosmo, cfg);
      for (int k = 0; k < kIoRepeats; ++k) {
        const double t = timed(c, [&] { sim.read_checkpoint(ckpt); });
        if (c.rank() == 0) rec.restore_s.push_back(t);
      }
      const Simulation::HealthReport h = sim.health_check();
      sim.run_insitu();
      if (c.rank() == 0) {
        check_health(rec, "restore_health", h);
        step_restored = sim.steps_taken();
      }
      if (extra_step) {
        sim.step();
        const Simulation::HealthReport h2 = sim.health_check();
        if (c.rank() == 0) check_health(rec, "restore_step_health", h2);
      }
    });
  });
  rec.attempt("halo catalogs", [&] {
    const auto ref = halo_rows(halo_ref);
    const auto rep = halo_rows(serve::halos_path(a.out + "/repeat", step_restored));
    rec.check("halos_restore", ref == rep,
              "halo catalog rows differ after the elastic restore (" +
                  std::to_string(ref.size()) + " vs " +
                  std::to_string(rep.size()) + " bytes)");
  });
}

/// The IC seed of trajectory `i` of a run: the run's seed, then distinct
/// deterministic realizations.
std::uint64_t realization_seed(std::uint64_t seed, int i) {
  return seed + static_cast<std::uint64_t>(i) * 0x9E3779B97F4A7C15ull;
}

/// Setup, trajectories and (untraced) the checkpoint / in-situ samples of
/// a workload stepped by the benchmark itself.
void run_stepped(const Workload& w, const Args& a, Record& rec,
                 TraceShared* trace) {
  const cosmology::Cosmology cosmo;
  const std::string ckpt = a.out + "/ckpt.gio";
  std::vector<Trajectory> trajectories;
  rec.attempt("trajectories", [&] {
    comm::Machine::run(w.ranks, [&](comm::Comm& c) {
      set_threads(w, rec);
      const bool root = c.rank() == 0;
      std::unique_ptr<Simulation> sim;
      std::unique_ptr<core::CheckpointSet> ckpts;
      if (w.supervised)
        ckpts = std::make_unique<core::CheckpointSet>(a.out + "/ckpt", 2);
      for (int i = 0; i < a.trajectories; ++i) {
        const core::SimulationConfig cfg =
            make_config(w, realization_seed(a.seed, i), a.out);
        for (int k = 0; k < setups_per_trajectory(a); ++k) {
          sim.reset();
          const double t = timed(c, [&] {
            sim = std::make_unique<Simulation>(c, cosmo, cfg);
            sim->initialize();
          });
          if (root) rec.setup_s.push_back(t);
        }
        if (ckpts && root) std::filesystem::create_directories(ckpts->dir());
        Trajectory traj;
        std::unique_ptr<Replayer> replayer;
        if (trace != nullptr) {
          SpanLog& log = trace->logs[static_cast<std::size_t>(c.rank())];
          replayer = std::make_unique<Replayer>(c, *sim, w, log,
                                                a.out + "/replay");
          trace->ic_s[static_cast<std::size_t>(c.rank())] = replayer->replay_ic();
          c.barrier();
          if (root)
            trace->ic_max =
                *std::max_element(trace->ic_s.begin(), trace->ic_s.end());
        }
        run_trajectory(c, *sim, traj, rec, ckpts.get(), replayer.get(), trace,
                       w.threads, std::to_string(i));
        if (root) {
          trajectories.push_back(traj);
          rec.step_s = traj.iter_s;
          rec.loop_ns.push_back(loop_ns(traj.iter_s, w));
        }
      }
      if (trace != nullptr) return;
      // Interleaved, so a burst of host noise hits few samples of each.
      for (int k = 0; k < std::max(kIoRepeats, kInsituRepeats); ++k) {
        if (k < kIoRepeats) {
          const double t = timed(c, [&] { sim->write_checkpoint(ckpt); });
          if (root) rec.checkpoint_s.push_back(t);
        }
        if (k < kInsituRepeats) {
          const double t = timed(c, [&] { sim->run_insitu(); });
          if (root) rec.insitu_s.push_back(t);
        }
      }
    });
  });
  if (trace == nullptr && !rec.checkpoint_s.empty())
    run_restore(w, a, rec, ckpt,
                serve::halos_path(a.out + "/catalogs", w.steps), false);
  if (trace != nullptr && !trajectories.empty()) {
    // Strong scaling over step 1: the same problem on one rank, one thread.
    rec.attempt("strong scaling", [&] {
      core::SimulationConfig one = make_config(w, a.seed, a.out);
      one.insitu.output_dir = a.out + "/scaling";
      double t1 = 0;
      comm::Machine::run(1, [&](comm::Comm& c) {
        omp_set_num_threads(1);
        Simulation sim(c, cosmo, one);
        sim.initialize();
        t1 = timed(c, [&] { sim.step(); });
      });
      const double tp = trajectories.front().step_s.front();
      rec.metric("scaling.strong_eff", t1 / (w.ranks * w.threads * tp),
                 "ratio");
    });
  }
}

/// One Supervisor-driven trajectory of the production-shaped workload, in
/// its own directory. Checkpoint and loop times come from the Supervisor's
/// event stream, in-situ times from its ledger. Returns the last
/// checkpoint's path ("" when the run failed).
std::string supervised_trajectory(const Workload& w, std::uint64_t seed,
                                  const std::string& dir, const std::string& tag,
                                  int setups, Record& rec) {
  const core::SimulationConfig cfg = make_config(w, seed, dir);
  const cosmology::Cosmology cosmo;
  rec.attempt("setup", [&] {
    comm::Machine::run(w.ranks, [&](comm::Comm& c) {
      set_threads(w, rec);
      for (int k = 0; k < setups; ++k) {
        const double t = timed(c, [&] {
          Simulation sim(c, cosmo, cfg);
          sim.initialize();
        });
        if (c.rank() == 0) rec.setup_s.push_back(t);
      }
    });
  });

  core::SupervisorConfig scfg;
  scfg.sim = cfg;
  scfg.nranks = w.ranks;
  scfg.checkpoint_dir = dir + "/ckpt";
  scfg.checkpoint_every = 1;
  scfg.keep = 2;
  scfg.max_retries = 0;
  scfg.max_momentum_drift = drift_budget(particle_count(w));
  core::Supervisor sup(cosmo, scfg);
  struct Event {
    std::string kind;
    int step;
    double t;
  };
  std::mutex mu;
  std::vector<Event> events;
  Timer clock;
  sup.on_event = [&](const obs::EventRecord& e) {
    const double t = clock.elapsed();
    std::lock_guard<std::mutex> lock(mu);
    events.push_back(Event{e.kind, e.step, t});
  };
  sup.on_finished = [&](Simulation& sim, comm::Comm& c) {
    const Simulation::HealthReport h = sim.health_check();
    auto pk = sim.power_spectrum(pk_bins(sim.config()));
    note_team(w, rec);
    if (c.rank() != 0) return;
    check_health(rec, "health." + tag, h);
    rec.final_pk.push_back(std::move(pk));
    for (const obs::StepRecord& r : sim.ledger().records()) {
      const auto it = r.phases.find("insitu");
      if (it != r.phases.end()) rec.insitu_s.push_back(it->second.max);
    }
  };
  core::SupervisorReport report;
  if (!rec.attempt("supervisor", [&] { report = sup.run(); })) return "";
  rec.check("supervisor." + tag, report.completed && report.attempts == 1,
            "attempts=" + std::to_string(report.attempts) + " " +
                report.last_error);
  if (!report.completed) return "";

  // Per step the root emits "audit" (health gate passed) and then
  // "checkpoint" (verified file published).
  std::map<int, double> audit_t, ckpt_t;
  for (const Event& e : events) {
    if (e.kind == "audit") audit_t[e.step] = e.t;
    if (e.kind == "checkpoint") ckpt_t[e.step] = e.t;
  }
  std::vector<double> iter_s;
  for (const auto& [step, t] : ckpt_t) {
    if (audit_t.count(step)) rec.checkpoint_s.push_back(t - audit_t[step]);
    if (step > 1 && ckpt_t.count(step - 1))
      iter_s.push_back(t - ckpt_t[step - 1]);
  }
  if (static_cast<int>(iter_s.size()) == w.steps - 1) {
    iter_s.insert(iter_s.begin(), 0.0);  // step 1 is warm-up, not timed
    rec.loop_ns.push_back(loop_ns(iter_s, w));
    rec.step_s = iter_s;
  }

  rec.attempt("growth", [&] {
    const double ai = cosmology::Cosmology::a_of_z(cfg.z_initial);
    const double da =
        (cosmology::Cosmology::a_of_z(cfg.z_final) - ai) / w.steps;
    const auto from = spectrum_rows(
        serve::spectrum_path(cfg.insitu.output_dir, kGrowthFrom));
    const auto to =
        spectrum_rows(serve::spectrum_path(cfg.insitu.output_dir, kGrowthTo));
    const std::string err =
        growth_error(from, ai + kGrowthFrom * da, to, ai + kGrowthTo * da);
    rec.physics_check("growth." + tag, err.empty(), err);
  });
  return sup.checkpoints().path_for_step(w.steps);
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot read " + path);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

/// The production-shaped workload: Supervisor-driven trajectories, then
/// the elastic restore of the last one. Trajectory 1 repeats trajectory 0's
/// seed, and the two halo catalogs of every step must be byte-identical
/// (stepping is deterministic); later trajectories are new realizations. A
/// trajectory that failed is already counted and is neither compared nor
/// restored.
void run_supervised(const Workload& w, const Args& a, Record& rec) {
  std::string ckpt, dir;
  int completed_pair = 0;
  for (int i = 0; i < a.trajectories; ++i) {
    const std::string run_dir = a.out + "/run" + std::to_string(i);
    const std::uint64_t seed = realization_seed(a.seed, std::max(0, i - 1));
    const std::string last = supervised_trajectory(
        w, seed, run_dir, std::to_string(i), setups_per_trajectory(a), rec);
    if (last.empty()) continue;
    if (i < 2) ++completed_pair;
    ckpt = last;
    dir = run_dir;
  }
  if (completed_pair == 2) {
    rec.attempt("halo catalogs", [&] {
      std::string differ;
      for (int s = 1; s <= w.steps; ++s) {
        const std::string first = a.out + "/run0/catalogs",
                          again = a.out + "/run1/catalogs";
        if (file_bytes(serve::halos_path(first, s)) !=
            file_bytes(serve::halos_path(again, s)))
          differ += " " + std::to_string(s);
      }
      rec.check("halos_repeat", differ.empty(),
                "halo catalogs of one seed differ at steps" + differ);
    });
  }
  if (!ckpt.empty())
    run_restore(w, a, rec, ckpt, serve::halos_path(dir + "/catalogs", w.steps),
                true);
}

void traced_metrics(const Workload& w, Record& rec, const TraceTotals& t,
                    double ic_s, double fma_gflops) {
  auto m = [&](const std::string& name, double v, const char* unit) {
    rec.metric(name, v, unit);
  };
  const double kernel = t.self("tree.short_range");
  const double interactions = t.count("tree.interactions");
  const double cores = static_cast<double>(w.ranks) * w.threads;
  m("tree.build_s", t.self("tree.build"), "s");
  m("tree.walk_s", t.self("tree.walk"), "s");
  m("tree.kernel_s", kernel, "s");
  m("tree.interactions", interactions, "count");
  m("tree.walk_visits", t.count("tree.walk_visits"), "count");
  m("tree.ns_per_interaction",
    interactions > 0 ? t.per(t.kernel_core_s) * 1e9 / interactions : 0, "ns");
  const double gflops =
      kernel > 0 ? tree::kFlopsPerInteraction * interactions / kernel / 1e9 : 0;
  m("tree.gflops", gflops, "GF/s");
  m("tree.model_ratio",
    gflops / perfmodel::TileKernelModel{}.roofline_gflops(fma_gflops * cores),
    "ratio");
  m("tree.sr_imbalance", interactions > 0 ? t.per(t.imbalance) : 0, "ratio");
  m("fft.forward_s", t.self("fft.forward"), "s");
  m("fft.inverse_s", t.self("fft.inverse"), "s");
  m("fft.transpose_bytes", t.count("fft.transpose_bytes"), "B");
  m("mesh.poisson_s", t.total("mesh.poisson"), "s");
  m("mesh.remap_s", t.self("mesh.remap"), "s");
  m("mesh.cic_deposit_s", t.self("mesh.cic_deposit"), "s");
  m("mesh.cic_interp_s", t.self("mesh.cic_interp"), "s");
  m("mesh.ghost_fold_s", t.self("mesh.ghost_fold"), "s");
  m("mesh.ghost_fill_s", t.self("mesh.ghost_fill"), "s");
  m("mesh.density_contrast_s", t.self("mesh.density_contrast"), "s");
  m("core.refresh_s", t.self("core.refresh"), "s");
  m("core.refresh_migrated", t.count("core.refresh_migrated"), "count");
  m("core.refresh_bytes", t.count("core.refresh_bytes"), "B");
  m("core.audit_s", t.self("core.audit"), "s");
  m("core.health_check_s", t.self("core.health_check"), "s");
  m("core.stream_s", t.self("core.stream"), "s");
  m("core.kick_s", t.self("core.kick"), "s");
  for (const char* op : {"alltoall", "nbr_alltoall", "reduce", "bcast", "p2p"}) {
    const std::string base = std::string("comm.") + op;
    m(base + ".bytes_sent", t.count(base + ".bytes_sent"), "B");
    m(base + ".msgs_sent", t.count(base + ".msgs_sent"), "count");
  }
  m("comm.wait_s", t.per(t.wait_s), "s");
  m("cosmology.ic_s", ic_s, "s");
  m("cosmology.fof_s", t.self("cosmology.fof"), "s");
  m("cosmology.pk_s", t.self("cosmology.pk"), "s");
  const double write_s = t.self("gio.write"), read_s = t.self("gio.read");
  const double ckpt_bytes = t.count("gio.bytes_per_checkpoint");
  m("gio.write_s", write_s, "s");
  m("gio.verify_s", t.self("gio.verify"), "s");
  m("gio.read_s", read_s, "s");
  m("gio.write_MBps", write_s > 0 ? ckpt_bytes / write_s / 1e6 : 0, "MB/s");
  m("gio.read_MBps", read_s > 0 ? t.count("gio.read_bytes") / read_s / 1e6 : 0,
    "MB/s");
  m("gio.bytes_per_checkpoint", ckpt_bytes, "B");
  m("serve.catalog_write_s", t.self("serve.catalogs"), "s");
  m("serve.catalog_bytes", t.count("serve.catalog_bytes"), "B");
  m("obs.ledger_s", t.self("obs.ledger"), "s");

  // Layer shares of the untraced step wall at the replayed steps.
  const double wall = t.per(t.step_s);
  std::map<std::string, double> layer;
  for (const auto& [name, s] : t.self_s) {
    if (name == "gio.read") continue;  // restore side, not part of a step
    layer[name.substr(0, name.find('.'))] += t.per(s);
  }
  layer["comm"] += t.per(t.wait_s);
  for (const char* l : {"tree", "fft", "mesh", "core", "comm", "cosmology",
                        "gio", "serve", "obs"})
    m(std::string("share.") + l, wall > 0 ? layer[l] / wall : 0, "fraction");
  m("trace.step_wall_s", wall, "s");
  m("trace.replay_wall_s", t.per(t.replay_s), "s");
  m("trace.overhead_s", t.per(t.replay_s) - wall, "s");
  m("trace.coverage", wall > 0 ? t.per(t.covered_s) / wall : 0, "fraction");
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (k == "--smoke") {
      a.smoke = true;
    } else if (k == "--describe") {
      a.describe = true;
    } else if ((v = next()) == nullptr) {
      return false;
    } else if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v);
    } else if (k == "--trace") {
      a.trace = std::atoi(v) != 0;
    } else if (k == "--out") {
      a.out = v;
    } else if (k == "--steps") {
      a.steps = std::atoi(v);
    } else {
      return false;
    }
  }
  return !a.workload.empty() && (a.describe || !a.out.empty());
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: stepbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --out <dir> [--smoke] [--steps <n>] | --describe\n");
    return 2;
  }
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads)
    if (a.workload == w.name) found = &w;
  if (found == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", a.workload.c_str());
    return 2;
  }
  Workload w = a.smoke ? smoke(*found) : *found;
  if (a.steps > 0) w.steps = a.steps;
  // A run steps a fixed number of realizations, so one seed always means
  // the same work: as many nominal trajectories as fit in --seconds.
  a.trajectories =
      a.trace ? 1
              : std::max(1, static_cast<int>(std::lround(a.seconds /
                                                         w.trajectory_s)));
  if (a.describe) {
    std::printf("{\"ranks\": %d, \"threads\": %d}\n", w.ranks, w.threads);
    return 0;
  }
  std::filesystem::create_directories(a.out);

  Record rec;
  rec.smoke = a.smoke;
  const int cores = usable_cores();
  rec.check("cores", w.ranks * w.threads <= cores,
            std::to_string(w.ranks) + " ranks x " + std::to_string(w.threads) +
                " threads oversubscribe " + std::to_string(cores) + " cores");
  TraceShared trace;
  const double fma = fma_peak_gflops();
  if (w.ranks * w.threads <= cores) {
    if (!a.trace && w.supervised) {
      run_supervised(w, a, rec);
    } else if (!a.trace) {
      run_stepped(w, a, rec, nullptr);
    } else {
      trace.logs.clear();
      for (int r = 0; r < w.ranks; ++r) trace.logs.emplace_back(r);
      trace.slots.resize(static_cast<std::size_t>(w.ranks));
      trace.ic_s.resize(static_cast<std::size_t>(w.ranks));
      run_stepped(w, a, rec, &trace);
      if (!write_spans(a.out + "/spans.jsonl", trace.logs))
        rec.attempt("spans", [] { throw Error("cannot write spans.jsonl"); });
    }
    rec.check("threads", rec.teams_seen > 0 && rec.teams_wrong == 0,
              std::to_string(rec.teams_wrong) + " of " +
                  std::to_string(rec.teams_seen) +
                  " rank threads got an OpenMP team of other than " +
                  std::to_string(w.threads));
  }

  if (a.trace) {
    traced_metrics(w, rec, trace.totals, trace.ic_max, fma);
  } else {
    rec.metric("ns_per_substep_particle", median(rec.loop_ns), "ns");
    rec.metric("setup_s", median(rec.setup_s), "s");
    rec.metric("checkpoint_s", median(rec.checkpoint_s), "s");
    rec.metric("restore_s", median(rec.restore_s), "s");
    rec.metric("insitu_s", median(rec.insitu_s), "s");
  }
  rec.metric("peak_rss_mb", static_cast<double>(obs::peak_rss_bytes()) / 1e6,
             "MB");

  std::ostringstream o;
  o << "{\"workload\": " << json_string(w.name) << ", \"seed\": " << a.seed
    << ", \"trace\": " << (a.trace ? 1 : 0)
    << ", \"smoke\": " << (a.smoke ? "true" : "false")
    << ", \"ranks\": " << w.ranks << ", \"threads\": " << w.threads
    << ", \"particles_per_dim\": " << w.particles_per_dim
    << ", \"grid\": " << w.grid << ", \"cores\": " << cores
    << ", \"compiler\": " << json_string(__VERSION__)
    << ", \"cxx_flags\": " << json_string(HACC_BENCH_CXX_FLAGS)
    << ", \"build_type\": " << json_string(HACC_BENCH_BUILD_TYPE)
    << ", \"fma_peak_gflops\": " << json_number(fma)
    << ", \"attempted\": " << rec.attempted << ", \"failed\": " << rec.failed
    << ", \"failures\": [";
  for (std::size_t i = 0; i < rec.failures.size(); ++i)
    o << (i ? ", " : "") << json_string(rec.failures[i]);
  o << "], \"checks\": {";
  for (std::size_t i = 0; i < rec.checks.size(); ++i)
    o << (i ? ", " : "") << json_string(rec.checks[i].first) << ": "
      << json_string(rec.checks[i].second);
  o << "}, \"samples\": {";
  const std::pair<const char*, const std::vector<double>*> samples[] = {
      {"setup_s", &rec.setup_s},         {"checkpoint_s", &rec.checkpoint_s},
      {"restore_s", &rec.restore_s},     {"insitu_s", &rec.insitu_s},
      {"ns_per_substep_particle", &rec.loop_ns},
      {"step_s", &rec.step_s}};
  for (std::size_t i = 0; i < std::size(samples); ++i) {
    o << (i ? ", " : "") << json_string(samples[i].first) << ": [";
    for (std::size_t j = 0; j < samples[i].second->size(); ++j)
      o << (j ? ", " : "") << json_number((*samples[i].second)[j]);
    o << "]";
  }
  o << "}, \"final_pk\": [";
  for (std::size_t t = 0; t < rec.final_pk.size(); ++t) {
    o << (t ? ", [" : "[");
    for (std::size_t i = 0; i < rec.final_pk[t].size(); ++i)
      o << (i ? ", " : "") << "[" << json_number(rec.final_pk[t][i].k) << ", "
        << json_number(rec.final_pk[t][i].power) << ", "
        << rec.final_pk[t][i].modes << "]";
    o << "]";
  }
  o << "], \"metrics\": {";
  std::size_t i = 0;
  for (const auto& [name, vu] : rec.metrics)
    o << (i++ ? ", " : "") << json_string(name) << ": {\"value\": "
      << json_number(vu.first) << ", \"unit\": " << json_string(vu.second)
      << "}";
  o << "}}";
  std::printf("%s\n", o.str().c_str());
  return 0;
}
