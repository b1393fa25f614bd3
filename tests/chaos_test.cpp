// Chaos campaign harness: elastic degraded-mode recovery under randomized,
// seeded fault schedules.
//
// PR 4 proved the Supervisor survives ONE scripted failure at fixed width.
// This suite turns that into the property production actually needs
// (Heitmann et al., arXiv:1904.11970: multi-month campaigns surviving
// repeated node losses): a seeded RNG generates hostile FaultPlan campaigns
// — rank kills, dropped/corrupted sends, receive stalls, collective
// failures, post-write checkpoint damage — and every campaign must
// *terminate* (complete, or give up cleanly after the retry budget) with
// conservation intact, while the ElasticPolicy sheds capacity instead of
// retrying forever at a width that keeps dying.
//
// Invariants per campaign:
//   * termination: Supervisor::run returns (the receive deadline converts
//     any induced hang into a diagnosed DeadlockError);
//   * conservation: global active count and total mass match the reference
//     always; momentum drift stays within the health budget;
//   * trajectory: bit-for-bit against a clean fixed-width reference when
//     the run finished at the launch width (canonical ordering), and within
//     tight tolerances after a width change (different decompositions
//     reorder float sums, so bit-identity across widths is not defined);
//   * audit: the ledger records the full shrink/restore/resume trail.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "comm/comm.h"
#include "comm/fault.h"
#include "core/simulation.h"
#include "core/supervisor.h"
#include "cosmology/background.h"
#include "gio/gio.h"
#include "util/rng.h"

namespace hacc::core {
namespace {

namespace fs = std::filesystem;

int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atoi(v) : fallback;
}

/// The small deterministic workload every test here evolves: big enough to
/// exercise every phase (tree, FFT, refresh, checkpoint), small enough that
/// a 20-campaign sweep stays in CI budget.
SimulationConfig chaos_config() {
  SimulationConfig cfg;
  cfg.grid = 16;
  cfg.particles_per_dim = 12;
  cfg.box_mpch = 32.0;
  cfg.z_initial = 30.0;
  cfg.z_final = 10.0;
  cfg.steps = 5;
  cfg.subcycles = 2;
  cfg.overload = 3.0;
  return cfg;
}

struct FinalState {
  /// id -> raw float bits of (x y z vx vy vz): exact comparison currency.
  std::map<std::uint64_t, std::array<std::uint32_t, 6>> bits;
  /// id -> (x y z vx vy vz) values for tolerance comparison across widths.
  std::map<std::uint64_t, std::array<float, 6>> values;
  double mass_sum = 0;
  std::array<double, 3> momentum{};
  std::vector<cosmology::PowerBin> pk;
};

std::uint32_t float_bits(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, 4);
  return u;
}

/// Collective: gathers the final particle state and spectra to rank 0's
/// `out` (untouched on other ranks).
void collect_state(Simulation& sim, comm::Comm& c, FinalState* out) {
  // Collectives run on every rank, but only rank 0 may touch `out` — the
  // other rank threads racing the assignments would be a data race.
  auto pk = sim.power_spectrum(/*bins=*/8);
  auto momentum = sim.total_momentum();
  auto all = sim.gather_active();
  if (c.rank() != 0) return;
  out->pk = std::move(pk);
  out->momentum = momentum;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const std::array<float, 6> v{all.x[i],  all.y[i],  all.z[i],
                                 all.vx[i], all.vy[i], all.vz[i]};
    out->values[all.id[i]] = v;
    out->bits[all.id[i]] = {float_bits(v[0]), float_bits(v[1]),
                            float_bits(v[2]), float_bits(v[3]),
                            float_bits(v[4]), float_bits(v[5])};
    out->mass_sum += all.mass[i];
  }
}

/// Clean uninterrupted run at `nranks`: the truth a chaotic run must match.
FinalState reference_run(const SimulationConfig& cfg,
                         const cosmology::Cosmology& cosmo, int nranks) {
  FinalState ref;
  comm::Machine::run(nranks, [&](comm::Comm& c) {
    Simulation sim(c, cosmo, cfg);
    sim.initialize();
    sim.run();
    collect_state(sim, c, &ref);
  });
  return ref;
}

/// Minimum-image distance along one axis of a periodic grid of side n.
float periodic_delta(float a, float b, float n) {
  float d = std::fabs(a - b);
  while (d > n) d -= n;
  return std::min(d, n - d);
}

/// Cross-width comparison: same particles, conserved mass, and positions/
/// velocities within `pos_tol`/`vel_tol` (different widths re-order float
/// sums in the FFT and deposit, so exact identity is not defined).
void expect_state_close(const FinalState& ref, const FinalState& got,
                        float grid, float pos_tol, float vel_tol) {
  ASSERT_EQ(ref.values.size(), got.values.size());
  EXPECT_NEAR(got.mass_sum, ref.mass_sum, 1e-9 * std::fabs(ref.mass_sum));
  float worst_pos = 0, worst_vel = 0;
  for (const auto& [id, rv] : ref.values) {
    const auto it = got.values.find(id);
    ASSERT_NE(it, got.values.end()) << "id " << id;
    const auto& gv = it->second;
    for (int a = 0; a < 3; ++a) {
      worst_pos = std::max(worst_pos, periodic_delta(rv[a], gv[a], grid));
      worst_vel = std::max(worst_vel,
                           std::fabs(rv[a + 3] - gv[a + 3]));
    }
  }
  EXPECT_LE(worst_pos, pos_tol);
  EXPECT_LE(worst_vel, vel_tol);
}

/// Bin-by-bin relative power spectrum agreement on populated bins.
void expect_pk_close(const std::vector<cosmology::PowerBin>& ref,
                     const std::vector<cosmology::PowerBin>& got,
                     double rtol) {
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (ref[i].modes == 0) continue;
    EXPECT_EQ(ref[i].modes, got[i].modes) << "bin " << i;
    EXPECT_NEAR(got[i].power, ref[i].power, rtol * ref[i].power)
        << "bin " << i << " k=" << ref[i].k;
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// ---- elastic shrink: one rank dies, the run finishes narrower --------------

TEST(ElasticShrink, KilledRankResumesAtReducedWidthWithAuditTrail) {
  const SimulationConfig cfg = chaos_config();
  cosmology::Cosmology cosmo;
  const FinalState ref = reference_run(cfg, cosmo, 4);

  SupervisorConfig scfg;
  scfg.sim = cfg;
  scfg.nranks = 4;
  scfg.elastic.rule = ElasticRule::kShrinkByFailed;
  scfg.elastic.min_ranks = 2;
  scfg.checkpoint_dir =
      (fs::temp_directory_path() / "hacc_chaos_shrink").string();
  scfg.sim.ledger_path = scfg.checkpoint_dir + "/ledger.jsonl";
  scfg.checkpoint_every = 2;
  scfg.keep = 2;
  scfg.max_retries = 3;
  scfg.max_momentum_drift = 1e-2;
  scfg.machine.verify_payloads = true;
  scfg.machine.recv_timeout_s = 60;
  fs::remove_all(scfg.checkpoint_dir);
  fs::create_directories(scfg.checkpoint_dir);

  comm::FaultPlan plan;
  plan.kill_at_step(/*rank=*/3, /*step=*/4);  // checkpoint at step 2 exists
  scfg.machine.fault_plan = &plan;

  Supervisor sup(cosmo, scfg);
  FinalState got;
  Simulation::HealthReport health;
  sup.on_finished = [&](Simulation& sim, comm::Comm& c) {
    health = sim.health_check();
    collect_state(sim, c, &got);
    EXPECT_EQ(c.size(), 3);  // resumed one rank short
  };
  const SupervisorReport rep = sup.run();

  EXPECT_TRUE(rep.completed);
  EXPECT_EQ(rep.attempts, 2);
  EXPECT_EQ(rep.restores, 1);
  EXPECT_EQ(rep.shrinks, 1);
  EXPECT_EQ(rep.final_width, 3);
  EXPECT_EQ(rep.width_history, (std::vector<int>{4, 3}));
  EXPECT_EQ(rep.final_step, cfg.steps);
  // Per-width throughput was captured on both sides of the shrink.
  ASSERT_EQ(rep.step_stats.size(), 2u);
  EXPECT_EQ(rep.step_stats[0].width, 4);
  EXPECT_EQ(rep.step_stats[1].width, 3);
  EXPECT_GT(rep.step_stats[0].steps, 0);
  EXPECT_GT(rep.step_stats[1].steps, 0);
  EXPECT_GT(rep.step_stats[1].steps_per_sec(), 0.0);

  // Conservation at the reduced width.
  EXPECT_TRUE(health.finite);
  EXPECT_TRUE(health.counts_ok());
  EXPECT_EQ(health.active, 12u * 12u * 12u);
  expect_state_close(ref, got, static_cast<float>(cfg.grid),
                     /*pos_tol=*/1e-3f, /*vel_tol=*/1e-3f);
  expect_pk_close(ref.pk, got.pk, /*rtol=*/1e-3);

  // The ledger records the whole degradation history, durably.
  const std::string text = read_file(scfg.sim.ledger_path);
  for (const char* kind :
       {"attempt_start", "checkpoint", "attempt_failed", "shrink",
        "restore", "resume_at_width", "run_complete"}) {
    EXPECT_NE(text.find(std::string("\"event\":\"") + kind + '"'),
              std::string::npos)
        << kind << "\n" << text;
  }
  EXPECT_NE(text.find("width 4 -> 3"), std::string::npos) << text;
  EXPECT_NE(text.find("\"event\":\"resume_at_width\""), std::string::npos);

  fs::remove_all(scfg.checkpoint_dir);
}

// ---- satellite: the 4-rank checkpoint restores onto 2 AND 3 ranks ----------

TEST(ElasticShrink, CheckpointRestoresOntoTwoAndThreeRanks) {
  // The gio elastic read + alltoallv redistribution must work INSIDE the
  // recovery loop (gio_test only proves it in isolation): a 4-rank run is
  // killed mid-flight and must resume on 3 ranks (shrink_by_failed) and on
  // 2 ranks (halve), each conserving mass/active count and reproducing the
  // reference power spectrum.
  const SimulationConfig cfg = chaos_config();
  cosmology::Cosmology cosmo;
  const FinalState ref = reference_run(cfg, cosmo, 4);

  struct Case {
    ElasticRule rule;
    int expect_width;
  };
  for (const Case c : {Case{ElasticRule::kShrinkByFailed, 3},
                       Case{ElasticRule::kHalve, 2}}) {
    SCOPED_TRACE(elastic_rule_name(c.rule));
    SupervisorConfig scfg;
    scfg.sim = cfg;
    scfg.nranks = 4;
    scfg.elastic.rule = c.rule;
    scfg.elastic.min_ranks = 2;
    scfg.checkpoint_dir =
        (fs::temp_directory_path() / "hacc_chaos_widths").string();
    scfg.checkpoint_every = 2;
    scfg.keep = 2;
    scfg.max_retries = 3;
    scfg.max_momentum_drift = 1e-2;
    fs::remove_all(scfg.checkpoint_dir);

    comm::FaultPlan plan;
    plan.kill_at_step(/*rank=*/1, /*step=*/3);
    scfg.machine.fault_plan = &plan;

    Supervisor sup(cosmo, scfg);
    FinalState got;
    Simulation::HealthReport health;
    sup.on_finished = [&](Simulation& sim, comm::Comm& comm) {
      health = sim.health_check();
      collect_state(sim, comm, &got);
    };
    const SupervisorReport rep = sup.run();

    EXPECT_TRUE(rep.completed);
    EXPECT_EQ(rep.final_width, c.expect_width);
    EXPECT_EQ(rep.shrinks, 1);
    EXPECT_TRUE(health.finite);
    EXPECT_TRUE(health.counts_ok());
    expect_state_close(ref, got, static_cast<float>(cfg.grid),
                       /*pos_tol=*/1e-3f, /*vel_tol=*/1e-3f);
    expect_pk_close(ref.pk, got.pk, /*rtol=*/1e-3);
    fs::remove_all(scfg.checkpoint_dir);
  }
}

// ---- fault-plan width remapping --------------------------------------------

TEST(ElasticShrink, FaultPlanRemapsVictimsAcrossWidths) {
  // A campaign planned at width 4 must keep firing after the machine
  // shrinks: a kill aimed at rank 3 of a 2-rank machine folds onto rank
  // 3 % 2 == 1. Two kills: the first shrinks 4 -> 2 (halve), the second —
  // aimed at a rank that no longer exists — must still fire on a survivor
  // and shrink the run to the min_ranks floor of 1.
  const SimulationConfig cfg = chaos_config();
  cosmology::Cosmology cosmo;

  SupervisorConfig scfg;
  scfg.sim = cfg;
  scfg.nranks = 4;
  scfg.elastic.rule = ElasticRule::kHalve;
  scfg.elastic.min_ranks = 1;
  scfg.checkpoint_dir =
      (fs::temp_directory_path() / "hacc_chaos_remap").string();
  scfg.checkpoint_every = 1;
  scfg.keep = 3;
  scfg.max_retries = 4;
  fs::remove_all(scfg.checkpoint_dir);

  comm::FaultPlan plan;
  plan.kill_at_step(/*rank=*/2, /*step=*/2);
  plan.kill_at_step(/*rank=*/3, /*step=*/4);  // fires as rank 3 % 2 == 1
  scfg.machine.fault_plan = &plan;

  Supervisor sup(cosmo, scfg);
  int finish_width = 0;
  sup.on_finished = [&](Simulation&, comm::Comm& c) {
    if (c.rank() == 0) finish_width = c.size();
  };
  const SupervisorReport rep = sup.run();

  EXPECT_TRUE(rep.completed);
  EXPECT_EQ(rep.shrinks, 2);
  EXPECT_EQ(rep.final_width, 1);
  EXPECT_EQ(finish_width, 1);
  EXPECT_EQ(rep.width_history, (std::vector<int>{4, 2, 1}));
  // The second kill's diagnosis names the *remapped* victim.
  EXPECT_NE(rep.last_error.find("rank 1"), std::string::npos)
      << rep.last_error;
  fs::remove_all(scfg.checkpoint_dir);
}

// ---- the chaos campaign ----------------------------------------------------

/// One randomized campaign: builds a FaultPlan + checkpoint-damage schedule
/// from `seed`, runs it under an elastic Supervisor, and checks the
/// termination/conservation/trajectory invariants against `ref`.
struct CampaignOutcome {
  bool completed = false;
  int attempts = 0;
  int final_width = 0;
  int shrinks = 0;
  int faults_planned = 0;
  int checkpoints_damaged = 0;
  bool sdc_detected = false;
  bool rolled_back = false;
};

CampaignOutcome run_campaign(std::uint64_t seed, const SimulationConfig& cfg,
                             const cosmology::Cosmology& cosmo,
                             const FinalState& ref) {
  Philox philox(seed, /*stream=*/0xC4A05);
  Philox::Stream rng(philox);

  SupervisorConfig scfg;
  scfg.sim = cfg;
  scfg.nranks = 4;
  scfg.elastic.rule = rng.uniform() < 0.5 ? ElasticRule::kShrinkByFailed
                                          : ElasticRule::kHalve;
  scfg.elastic.min_ranks = 1 + static_cast<int>(rng.index(2));  // 1 or 2
  scfg.checkpoint_dir =
      (fs::temp_directory_path() / ("hacc_chaos_" + std::to_string(seed)))
          .string();
  scfg.checkpoint_every = 1 + static_cast<int>(rng.index(2));  // 1 or 2
  scfg.keep = 2;
  scfg.max_retries = 4;
  scfg.max_momentum_drift = 1e-2;
  scfg.machine.verify_payloads = true;
  // The termination guarantee: any induced hang (dropped message, stalled
  // peer) dies with a DeadlockError at this deadline instead of wedging
  // the campaign.
  scfg.machine.recv_timeout_s = 3.0;
  scfg.sim.ledger_path = scfg.checkpoint_dir + "/ledger.jsonl";
  fs::remove_all(scfg.checkpoint_dir);
  fs::create_directories(scfg.checkpoint_dir);

  comm::FaultPlan plan;
  CampaignOutcome out;
  // 1-2 scheduled rank kills at random (rank, step) — ranks are drawn from
  // the LAUNCH width; the remap keeps late kills live after shrinks.
  const int kills = 1 + static_cast<int>(rng.index(2));
  for (int k = 0; k < kills; ++k) {
    plan.kill_at_step(static_cast<int>(rng.index(4)),
                      1 + static_cast<int>(rng.index(
                              static_cast<std::uint64_t>(cfg.steps))));
    ++out.faults_planned;
  }
  if (rng.uniform() < 0.4) {  // corrupted payload (verify_payloads catches)
    plan.corrupt_send(static_cast<int>(rng.index(4)), comm::fault::kAnyTag,
                      static_cast<int>(rng.index(64)));
    ++out.faults_planned;
  }
  if (rng.uniform() < 0.3) {  // dropped message -> diagnosed timeout
    plan.drop_send(static_cast<int>(rng.index(4)), comm::fault::kAnyTag,
                   static_cast<int>(rng.index(64)));
    ++out.faults_planned;
  }
  if (rng.uniform() < 0.3) {  // benign stall, below the deadline
    plan.stall_recv(static_cast<int>(rng.index(4)), /*seconds=*/0.2,
                    static_cast<int>(rng.index(64)));
    ++out.faults_planned;
  }
  if (rng.uniform() < 0.3) {  // collective entry failure
    plan.fail_collective(static_cast<int>(rng.index(4)),
                         rng.uniform() < 0.5 ? comm::telemetry::Op::kBarrier
                                             : comm::telemetry::Op::kAlltoall,
                         static_cast<int>(rng.index(16)));
    ++out.faults_planned;
  }
  if (rng.uniform() < 0.5) {  // resident particle memory flip (ABFT checksum)
    plan.flip_bits_in_particles(
        static_cast<int>(rng.index(4)),
        1 + static_cast<int>(
                rng.index(static_cast<std::uint64_t>(cfg.steps))),
        1 + static_cast<int>(rng.index(2)));
    ++out.faults_planned;
  }
  if (rng.uniform() < 0.25) {  // resident grid memory flip (mass audit)
    plan.flip_bits_in_grid(
        static_cast<int>(rng.index(4)),
        1 + static_cast<int>(
                rng.index(static_cast<std::uint64_t>(cfg.steps))));
    ++out.faults_planned;
  }
  scfg.machine.fault_plan = &plan;

  Supervisor sup(cosmo, scfg);
  sup.between_attempts = [&](int /*attempt*/) {
    // Post-write damage: with probability 0.4 the newest checkpoint is
    // corrupted on disk while the machine is down, forcing the chain
    // re-verification to reject it and fall back.
    if (rng.uniform() >= 0.4) return;
    const auto steps = sup.checkpoints().existing();
    if (steps.empty()) return;
    gio::flip_byte_in_variable(sup.checkpoints().path_for_step(steps.front()),
                               /*block=*/0, "x",
                               /*byte_in_block=*/rng.index(256));
    ++out.checkpoints_damaged;
  };
  FinalState got;
  Simulation::HealthReport health;
  sup.on_finished = [&](Simulation& sim, comm::Comm& c) {
    health = sim.health_check();
    collect_state(sim, c, &got);
  };
  const SupervisorReport rep = sup.run();  // termination == this returns

  out.completed = rep.completed;
  out.attempts = rep.attempts;
  out.final_width = rep.final_width;
  out.shrinks = rep.shrinks;

  if (!rep.completed) {
    // Clean give-up: the whole retry budget was consumed and said so.
    EXPECT_EQ(rep.attempts, scfg.max_retries + 1) << "seed " << seed;
    EXPECT_FALSE(rep.last_error.empty()) << "seed " << seed;
  } else {
    EXPECT_TRUE(health.finite) << "seed " << seed;
    EXPECT_TRUE(health.counts_ok()) << "seed " << seed;
    EXPECT_NEAR(got.mass_sum, ref.mass_sum, 1e-9 * std::fabs(ref.mass_sum))
        << "seed " << seed;
    if (rep.final_width == scfg.nranks) {
      // Same width all along: canonical ordering makes recovery exact.
      EXPECT_EQ(ref.bits, got.bits) << "seed " << seed;
    } else {
      expect_state_close(ref, got, static_cast<float>(cfg.grid),
                         /*pos_tol=*/1e-3f, /*vel_tol=*/1e-3f);
      expect_pk_close(ref.pk, got.pk, /*rtol=*/1e-3);
    }
  }

  // SDC trail: whenever a campaign repaired corruption in place, the ledger
  // must show the full escalation story in order — detection, then the
  // in-place rollback, then the no-relaunch resume. (A campaign may instead
  // escalate to relaunch or give up; only the in-place path is ordered.)
  const std::string text = read_file(scfg.sim.ledger_path);
  const std::size_t at_detect = text.find("\"event\":\"sdc_detected\"");
  const std::size_t at_rollback = text.find("\"event\":\"rollback\"");
  const std::size_t at_resume = text.find("\"event\":\"resume\"");
  out.sdc_detected = at_detect != std::string::npos;
  if (at_rollback != std::string::npos) {
    out.rolled_back = true;
    EXPECT_NE(at_detect, std::string::npos) << "seed " << seed;
    EXPECT_LT(at_detect, at_rollback) << "seed " << seed;
    EXPECT_NE(at_resume, std::string::npos) << "seed " << seed;
    if (at_resume != std::string::npos) {
      EXPECT_LT(at_rollback, at_resume) << "seed " << seed;
    }
  }

  fs::remove_all(scfg.checkpoint_dir);
  return out;
}

TEST(ChaosCampaign, SeededCampaignsAllTerminateAndConserve) {
  // HACC_CHAOS_CAMPAIGNS trims the sweep for sanitizer builds (check.sh);
  // the default matches the acceptance bar of >= 20 campaigns.
  const int campaigns = env_int("HACC_CHAOS_CAMPAIGNS", 20);
  const std::uint64_t base_seed =
      static_cast<std::uint64_t>(env_int("HACC_CHAOS_SEED", 20120));

  SimulationConfig cfg = chaos_config();
  cfg.steps = 4;  // keep each campaign cheap; faults land on steps 1..4
  cosmology::Cosmology cosmo;
  const FinalState ref = reference_run(cfg, cosmo, 4);

  int completed = 0, gave_up = 0, shrunk = 0, sdc = 0, rolled = 0;
  for (int i = 0; i < campaigns; ++i) {
    SCOPED_TRACE("campaign " + std::to_string(i));
    const CampaignOutcome out = run_campaign(base_seed + static_cast<std::uint64_t>(i), cfg, cosmo, ref);
    completed += out.completed ? 1 : 0;
    gave_up += out.completed ? 0 : 1;
    shrunk += out.shrinks > 0 ? 1 : 0;
    sdc += out.sdc_detected ? 1 : 0;
    rolled += out.rolled_back ? 1 : 0;
  }
  std::printf(
      "chaos: %d campaigns, %d completed, %d gave up, %d shrank, "
      "%d caught SDC (%d repaired in place)\n",
      campaigns, completed, gave_up, shrunk, sdc, rolled);
  // Every campaign terminated (we got here). The sweep must not be
  // degenerate: most campaigns finish, and the elastic path was exercised.
  EXPECT_GE(completed, (2 * campaigns) / 3);
  if (campaigns >= 10) {
    EXPECT_GT(shrunk, 0);
    // Memory flips land with probability ~0.6 per campaign; the ABFT
    // audits must have fired on some of them.
    EXPECT_GT(sdc, 0);
  }
}

}  // namespace
}  // namespace hacc::core
