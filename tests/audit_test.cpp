// Tests for the silent-data-corruption defense (core/audit.h + the
// Supervisor's in-place rollback ladder):
//   * the canonical-order payload checksum is permutation-invariant and
//     sensitive to every single bit of every active payload field;
//   * the resident-memory fault hooks fire one-shot across re-runs, honor
//     pinned bits, remap victims across widths, and are seed-deterministic;
//   * sampled duplicate execution never false-positives on clean state
//     across 50 seeded draws for BOTH kernel variants, and catches a
//     flipped mantissa or exponent bit of a stored force at both variants
//     (one fat leaf, and a sweep over a multi-leaf tree); with a kept
//     scratch list it allocates nothing in steady state (this binary
//     replaces the global allocator to count, see alloc_hook.h);
//   * the health gate (audits included) costs exactly ONE allreduce;
//   * end-to-end: a seeded bit flip at step N — in the particle payload or
//     in the long-range acceleration carried across the step boundary — is
//     detected within one audit cadence, rolled back in place (no machine
//     relaunch), and the run completes bit-for-bit identical to an
//     uninterrupted one; a
//     CRC-clean-but-physically-poisoned checkpoint is skipped via its audit
//     verdict; detection with no restorable checkpoint escalates to the
//     relaunch ladder.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "alloc_hook.h"
#include "comm/comm.h"
#include "comm/fault.h"
#include "comm/telemetry.h"
#include "core/audit.h"
#include "core/simulation.h"
#include "core/supervisor.h"
#include "cosmology/background.h"
#include "obs/counters.h"
#include "obs/obs.h"
#include "p3m/chaining_mesh.h"
#include "tree/force_kernel.h"
#include "tree/rcb_tree.h"
#include "util/rng.h"

namespace hacc::core {
namespace {

namespace fs = std::filesystem;

using tree::KernelVariant;
using tree::ParticleArray;
using tree::RcbConfig;
using tree::RcbTree;
using tree::Role;
using tree::ShortRangeKernel;

ParticleArray random_particles(std::size_t n, float box, std::uint64_t seed,
                               bool clustered = true) {
  ParticleArray p;
  Philox rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    Philox::Stream s(rng, i);
    float x = static_cast<float>(s.uniform(0, box));
    float y = static_cast<float>(s.uniform(0, box));
    float z = static_cast<float>(s.uniform(0, box));
    if (clustered && i % 2 == 0) {  // half the points in a dense clump
      x = box / 2 + 0.1f * x;
      y = box / 2 + 0.1f * y;
      z = box / 2 + 0.1f * z;
    }
    p.push_back(x, y, z, 0, 0, 0, 1.0f, i, Role::kActive);
  }
  return p;
}

void flip_float_bit(float& v, int bit) {
  std::uint32_t u;
  std::memcpy(&u, &v, 4);
  u ^= 1u << bit;
  std::memcpy(&v, &u, 4);
}

// ---- payload checksum ------------------------------------------------------

TEST(ParticleChecksum, InvariantUnderPermutationAndPassives) {
  ParticleArray p = random_particles(64, 10.0f, 11);
  const std::uint64_t h0 = particle_checksum(p);

  // Reverse the storage order: the canonical (id-sorted) hash is unchanged.
  ParticleArray rev;
  for (std::size_t i = p.size(); i-- > 0;)
    rev.push_back(p.x[i], p.y[i], p.z[i], p.vx[i], p.vy[i], p.vz[i],
                  p.mass[i], p.id[i], p.role[i]);
  EXPECT_EQ(particle_checksum(rev), h0);

  // Passive replicas do not contribute: adding one (with a duplicate id,
  // as real replicas have) or corrupting it leaves the hash alone.
  ParticleArray with_passive = p;
  with_passive.push_back(1, 2, 3, 4, 5, 6, 1.0f, p.id[0], Role::kPassive);
  EXPECT_EQ(particle_checksum(with_passive), h0);
  with_passive.x[with_passive.size() - 1] = 99.0f;
  EXPECT_EQ(particle_checksum(with_passive), h0);

  // The fast path for already-sorted arrays matches the sorting path.
  ParticleArray sorted;
  for (std::size_t i = 0; i < p.size(); ++i)  // ids are 0..n-1 in order
    sorted.push_back(p.x[i], p.y[i], p.z[i], p.vx[i], p.vy[i], p.vz[i],
                     p.mass[i], p.id[i], p.role[i]);
  EXPECT_EQ(particle_checksum(sorted, /*assume_id_sorted=*/true), h0);
}

TEST(ParticleChecksum, SensitiveToEverySingleBitOfEveryField) {
  ParticleArray p = random_particles(8, 10.0f, 13);
  const std::uint64_t h0 = particle_checksum(p);
  for (std::size_t i = 0; i < p.size(); ++i) {
    float* fields[7] = {&p.x[i],  &p.y[i],  &p.z[i], &p.vx[i],
                        &p.vy[i], &p.vz[i], &p.mass[i]};
    for (int f = 0; f < 7; ++f) {
      for (int bit = 0; bit < 32; ++bit) {
        flip_float_bit(*fields[f], bit);
        EXPECT_NE(particle_checksum(p), h0)
            << "particle " << i << " field " << f << " bit " << bit;
        flip_float_bit(*fields[f], bit);  // restore
      }
    }
  }
  EXPECT_EQ(particle_checksum(p), h0);  // restores were exact
}

TEST(ParticleChecksum, GoldenValueOfFixedArray) {
  // Pins the hash bit for bit, so a change to the payload byte order or to
  // the FNV-1a fold cannot pass silently.
  ParticleArray p;
  p.push_back(1.0f, 2.0f, 3.0f, 0.5f, -0.25f, 0.125f, 1.0f, 7, Role::kActive);
  p.push_back(4.5f, 5.5f, 6.5f, -1.0f, 2.0f, -3.0f, 2.0f, 3, Role::kActive);
  p.push_back(0.0f, 8.0f, 16.0f, 0.0f, 0.0f, 0.0f, 0.5f, 11, Role::kActive);
  EXPECT_EQ(particle_checksum(p), 0x7d4477a3fe771f93ULL);
}

// ---- resident-memory fault hooks -------------------------------------------

TEST(MemoryFaults, OneShotAcrossRunsAndSeedDeterministic) {
  comm::FaultPlan plan;
  plan.flip_bits_in_particles(/*rank=*/0, /*step=*/3, /*nbits=*/4);

  std::vector<comm::fault::MemoryFlip> first;
  {
    comm::fault::Scope scope(&plan, /*rank=*/0, /*width=*/1);
    comm::fault::set_step(2);  // wrong step: nothing fires
    EXPECT_TRUE(comm::fault::take_memory_flips(
                    comm::fault::MemoryTarget::kParticles, 1000, 0, 32)
                    .empty());
    comm::fault::set_step(3);
    // Wrong target: a particle spec never leaks onto the grid.
    EXPECT_TRUE(comm::fault::take_memory_flips(
                    comm::fault::MemoryTarget::kGrid, 1000, 0, 32)
                    .empty());
    first = comm::fault::take_memory_flips(
        comm::fault::MemoryTarget::kParticles, 1000, 0, 32);
    ASSERT_EQ(first.size(), 4u);
    for (const auto& f : first) {
      EXPECT_LT(f.element, 1000u);
      EXPECT_GE(f.bit, 0);
      EXPECT_LT(f.bit, 32);
    }
    // Consuming is firing: the same step never yields flips twice.
    EXPECT_TRUE(comm::fault::take_memory_flips(
                    comm::fault::MemoryTarget::kParticles, 1000, 0, 32)
                    .empty());
  }
  {
    // A fresh run (new Scope, same plan): still spent — the one-shot state
    // lives in the plan, exactly like kill_at_step across attempts.
    comm::fault::Scope scope(&plan, 0, 1);
    comm::fault::set_step(3);
    EXPECT_TRUE(comm::fault::take_memory_flips(
                    comm::fault::MemoryTarget::kParticles, 1000, 0, 32)
                    .empty());
  }

  // Same seed, fresh plan: identical damage (reproducible campaigns).
  comm::FaultPlan plan2;
  plan2.flip_bits_in_particles(0, 3, 4);
  comm::fault::Scope scope(&plan2, 0, 1);
  comm::fault::set_step(3);
  const auto second = comm::fault::take_memory_flips(
      comm::fault::MemoryTarget::kParticles, 1000, 0, 32);
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(second[i].element, first[i].element);
    EXPECT_EQ(second[i].bit, first[i].bit);
  }
}

TEST(MemoryFaults, PinnedBitAndElasticVictimRemap) {
  comm::FaultPlan plan;
  // Aimed at rank 5 of a 2-wide machine: fires on rank 5 % 2 == 1.
  plan.flip_bits_in_grid(/*rank=*/5, /*step=*/2, /*nbits=*/3).pin_bit(48);
  {
    comm::fault::Scope scope(&plan, /*rank=*/0, /*width=*/2);
    comm::fault::set_step(2);
    EXPECT_TRUE(comm::fault::take_memory_flips(
                    comm::fault::MemoryTarget::kGrid, 4096, 48, 64)
                    .empty());
  }
  {
    comm::fault::Scope scope(&plan, /*rank=*/1, /*width=*/2);
    comm::fault::set_step(2);
    const auto flips = comm::fault::take_memory_flips(
        comm::fault::MemoryTarget::kGrid, 4096, 48, 64);
    ASSERT_EQ(flips.size(), 3u);
    for (const auto& f : flips) EXPECT_EQ(f.bit, 48);  // pinned
  }
}

// ---- sampled duplicate execution -------------------------------------------

/// Duplicate execution over {kernel variant} x {leaf partition}: the RCB
/// tree, or the chaining mesh with cells of the hand-over radius.
class DupExecVariant
    : public ::testing::TestWithParam<std::tuple<KernelVariant, bool>> {
 protected:
  static KernelVariant variant() { return std::get<0>(GetParam()); }
  static bool chaining_mesh() { return std::get<1>(GetParam()); }
  /// The partition under test over `p`; `leaf_size` sizes the tree.
  static std::unique_ptr<tree::LeafPartition> build(
      ParticleArray& p, const ShortRangeKernel& kernel,
      std::size_t leaf_size) {
    if (chaining_mesh())
      return std::make_unique<p3m::ChainingMesh>(p, kernel.rmax);
    return std::make_unique<RcbTree>(p, RcbConfig{leaf_size});
  }
};
INSTANTIATE_TEST_SUITE_P(
    Kernels, DupExecVariant,
    ::testing::Combine(::testing::Values(KernelVariant::kScalar,
                                         KernelVariant::kBatched),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string(tree::kernel_variant_name(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "_ChainingMesh" : "_RcbTree");
    });

TEST_P(DupExecVariant, CleanStateNeverFalsePositivesAcross50Draws) {
  ParticleArray p = random_particles(400, 12.0f, 17);
  ShortRangeKernel kernel;
  kernel.softening = 0.05f;
  kernel.fgrid = tree::default_fgrid_poly5();
  const auto part = build(p, kernel, 32);
  std::vector<float> ax(p.size()), ay(p.size()), az(p.size());
  compute_short_range(*part, kernel, ax, ay, az, /*mass_scale=*/1.0f,
                      variant());

  AuditConfig config;
  config.sample_leaves = 4;
  std::size_t checked = 0;
  for (std::uint64_t draw = 1; draw <= 50; ++draw) {
    const DuplicateExecutionResult r = duplicate_execution_check(
        *part, kernel, ax, ay, az, 1.0f, config, draw);
    EXPECT_EQ(r.mismatches, 0u) << "draw " << draw << ": " << r.detail;
    EXPECT_EQ(r.sampled_leaves, 4u);
    checked += r.checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST_P(DupExecVariant, CatchesFlippedMantissaAndExponentBits) {
  // An exhaustive budget re-executes every leaf, so the sample always
  // covers the victim and detection is deterministic, not probabilistic:
  // one fat tree leaf holds every particle; the mesh sweeps all its cells.
  ParticleArray p = random_particles(300, 8.0f, 19);
  ShortRangeKernel kernel;
  kernel.softening = 0.05f;
  kernel.fgrid = tree::default_fgrid_poly5();
  const auto part = build(p, kernel, 512);
  if (!chaining_mesh()) {
    ASSERT_EQ(part->leaves().size(), 1u);
  }
  std::vector<float> ax(p.size()), ay(p.size()), az(p.size());
  compute_short_range(*part, kernel, ax, ay, az, 1.0f, variant());

  // Victim: the largest stored force component (a mantissa flip of a
  // near-zero component hides below the absolute tolerance by design).
  std::size_t k = 0;
  for (std::size_t i = 0; i < p.size(); ++i)
    if (std::fabs(ax[i]) > std::fabs(ax[k])) k = i;
  ASSERT_GT(std::fabs(ax[k]), 1e-2f);

  AuditConfig config;
  config.sample_leaves = static_cast<int>(part->leaves().size());
  for (const int bit : {18, 27}) {  // mid-mantissa; exponent
    flip_float_bit(ax[k], bit);
    const DuplicateExecutionResult r = duplicate_execution_check(
        *part, kernel, ax, ay, az, 1.0f, config, /*draw_key=*/7);
    EXPECT_GE(r.mismatches, 1u) << "bit " << bit;
    EXPECT_FALSE(r.detail.empty()) << "bit " << bit;
    flip_float_bit(ax[k], bit);  // restore
  }
  const DuplicateExecutionResult clean = duplicate_execution_check(
      *part, kernel, ax, ay, az, 1.0f, config, 7);
  EXPECT_EQ(clean.mismatches, 0u) << clean.detail;
}

TEST_P(DupExecVariant, MultiLeafSweepCatchesFlips) {
  ParticleArray p = random_particles(500, 10.0f, 23);
  ShortRangeKernel kernel;
  kernel.softening = 0.05f;
  kernel.fgrid = tree::default_fgrid_poly5();
  const auto part = build(p, kernel, 32);
  ASSERT_GT(part->leaves().size(), 4u);
  std::vector<float> ax(p.size()), ay(p.size()), az(p.size());
  compute_short_range(*part, kernel, ax, ay, az, 1.0f, variant());

  AuditConfig config;
  config.sample_leaves = 4;
  const DuplicateExecutionResult clean =
      duplicate_execution_check(*part, kernel, ax, ay, az, 1.0f, config, 3);
  EXPECT_EQ(clean.mismatches, 0u) << clean.detail;
  EXPECT_EQ(clean.sampled_leaves, 4u);

  // Flip the max component; a budget of one sample per leaf sweeps every
  // leaf exhaustively, so the victim's leaf is always re-executed.
  std::size_t k = 0;
  for (std::size_t i = 0; i < p.size(); ++i)
    if (std::fabs(ay[i]) > std::fabs(ay[k])) k = i;
  flip_float_bit(ay[k], 20);
  config.sample_leaves = static_cast<int>(part->leaves().size());
  const DuplicateExecutionResult r =
      duplicate_execution_check(*part, kernel, ax, ay, az, 1.0f, config, 3);
  EXPECT_EQ(r.sampled_leaves, part->leaves().size());
  EXPECT_GE(r.mismatches, 1u);
}

TEST_P(DupExecVariant, SteadyStateAuditIsAllocationFree) {
  // Simulation keeps one scratch list for the audit's gather, so an audited
  // step allocates nothing once the list has grown. An exhaustive budget
  // visits every leaf in the warm-up, so the second call needs no more
  // capacity than the first.
  ParticleArray p = random_particles(600, 12.0f, 29);
  ShortRangeKernel kernel;
  kernel.softening = 0.05f;
  kernel.fgrid = tree::default_fgrid_poly5();
  const auto part = build(p, kernel, 32);
  std::vector<float> ax(p.size()), ay(p.size()), az(p.size());
  compute_short_range(*part, kernel, ax, ay, az, 1.0f, variant());

  AuditConfig config;
  config.sample_leaves = static_cast<int>(part->leaves().size());
  tree::NeighborList scratch;
  (void)duplicate_execution_check(*part, kernel, ax, ay, az, 1.0f, config, 5,
                                  &scratch);
  alloc_hook::count.store(0);
  alloc_hook::armed.store(true);
  const DuplicateExecutionResult r = duplicate_execution_check(
      *part, kernel, ax, ay, az, 1.0f, config, 5, &scratch);
  alloc_hook::armed.store(false);
  EXPECT_EQ(alloc_hook::count.load(), 0u);
  EXPECT_EQ(r.mismatches, 0u) << r.detail;
  EXPECT_EQ(r.checked, p.size());
}

// ---- the health gate stays a single allreduce ------------------------------

TEST(AuditCost, HealthGateWithAuditsCostsExactlyOneAllreduce) {
  SimulationConfig cfg;
  cfg.grid = 16;
  cfg.particles_per_dim = 8;
  cfg.steps = 2;
  cfg.subcycles = 2;
  cfg.overload = 2.0;
  cosmology::Cosmology cosmo;
  for (const auto solver :
       {ShortRangeSolver::kTreePP, ShortRangeSolver::kP3m}) {
    cfg.solver = solver;
    comm::Machine::run(2, [&](comm::Comm& c) {
      SCOPED_TRACE(solver == ShortRangeSolver::kP3m ? "P3M" : "PPTreePM");
      Simulation sim(c, cosmo, cfg);
      sim.initialize();
      sim.step();
      obs::Counters counters;
      {
        obs::Binding bind(nullptr, &counters);
        const auto health = sim.health_check();
        EXPECT_TRUE(health.audited);  // default cadence 1: full suite ran
        // Duplicate execution re-ran leaves of either solver's partition.
        EXPECT_GT(health.dup_samples, 0u);
      }
      // SimMPI's allreduce = one reduce + one bcast; every other collective
      // class must be silent. The whole audit suite rides that one gate.
      using comm::telemetry::Op;
      const auto calls = [&](Op op) {
        return counters.value(comm::telemetry::ids(op).calls);
      };
      EXPECT_EQ(calls(Op::kReduce), 1u);
      EXPECT_EQ(calls(Op::kBcast), 1u);
      for (const Op op : {Op::kBarrier, Op::kAllgather, Op::kGatherv,
                          Op::kAlltoall, Op::kNeighborAlltoall})
        EXPECT_EQ(calls(op), 0u) << comm::telemetry::op_name(op);
    });
  }
}

// ---- end-to-end: detect, roll back in place, finish bit-for-bit ------------

SimulationConfig sdc_config() {
  SimulationConfig cfg;
  cfg.grid = 16;
  cfg.particles_per_dim = 12;
  cfg.box_mpch = 32.0;
  cfg.z_initial = 30.0;
  cfg.z_final = 10.0;
  cfg.steps = 6;
  cfg.subcycles = 2;
  cfg.overload = 3.0;
  return cfg;
}

using Bits = std::map<std::uint64_t, std::array<std::uint32_t, 6>>;

std::uint32_t float_bits(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, 4);
  return u;
}

/// Collective; only rank 0 may touch `out`.
void collect_bits(Simulation& sim, comm::Comm& c, Bits* out) {
  auto all = sim.gather_active();
  if (c.rank() != 0) return;
  for (std::size_t i = 0; i < all.size(); ++i)
    (*out)[all.id[i]] = {float_bits(all.x[i]),  float_bits(all.y[i]),
                         float_bits(all.z[i]),  float_bits(all.vx[i]),
                         float_bits(all.vy[i]), float_bits(all.vz[i])};
}

Bits reference_bits(const SimulationConfig& cfg,
                    const cosmology::Cosmology& cosmo, int nranks) {
  Bits ref;
  comm::Machine::run(nranks, [&](comm::Comm& c) {
    Simulation sim(c, cosmo, cfg);
    sim.initialize();
    sim.run();
    collect_bits(sim, c, &ref);
  });
  return ref;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

SupervisorConfig sdc_supervisor_config(const SimulationConfig& cfg,
                                       const std::string& tag) {
  SupervisorConfig scfg;
  scfg.sim = cfg;
  scfg.nranks = 2;
  scfg.checkpoint_dir = (fs::temp_directory_path() / tag).string();
  scfg.sim.ledger_path = scfg.checkpoint_dir + "/ledger.jsonl";
  scfg.checkpoint_every = 2;
  scfg.keep = 3;
  scfg.max_retries = 2;
  fs::remove_all(scfg.checkpoint_dir);
  fs::create_directories(scfg.checkpoint_dir);
  return scfg;
}

TEST(SdcRollback, ParticleFlipDetectedAndRolledBackInPlaceBitForBit) {
  const SimulationConfig cfg = sdc_config();
  cosmology::Cosmology cosmo;
  const Bits ref = reference_bits(cfg, cosmo, 2);

  SupervisorConfig scfg = sdc_supervisor_config(cfg, "hacc_sdc_particle");
  comm::FaultPlan plan;
  plan.flip_bits_in_particles(/*rank=*/1, /*step=*/4, /*nbits=*/3);
  scfg.machine.fault_plan = &plan;

  Supervisor sup(cosmo, scfg);
  Bits got;
  sup.on_finished = [&](Simulation& sim, comm::Comm& c) {
    collect_bits(sim, c, &got);
  };
  const SupervisorReport rep = sup.run();

  // Detected within one audit cadence, repaired on the live machine: one
  // attempt, zero relaunch-path restores, one in-place rollback.
  EXPECT_TRUE(rep.completed) << rep.last_error;
  EXPECT_EQ(rep.attempts, 1);
  EXPECT_EQ(rep.restores, 0);
  EXPECT_EQ(rep.sdc_detections, 1);
  EXPECT_EQ(rep.rollbacks, 1);
  EXPECT_EQ(rep.final_step, cfg.steps);

  // The repaired run is indistinguishable from one that never saw the
  // flip: bit-for-bit identical final state at the same width.
  EXPECT_EQ(ref, got);

  // The ledger carries the whole trail, in order:
  // detection -> rollback -> resume, and no relaunch events.
  const std::string text = read_file(scfg.sim.ledger_path);
  const std::size_t at_detect = text.find("\"event\":\"sdc_detected\"");
  const std::size_t at_rollback = text.find("\"event\":\"rollback\"");
  const std::size_t at_resume = text.find("\"event\":\"resume\"");
  ASSERT_NE(at_detect, std::string::npos) << text;
  ASSERT_NE(at_rollback, std::string::npos) << text;
  ASSERT_NE(at_resume, std::string::npos) << text;
  EXPECT_LT(at_detect, at_rollback);
  EXPECT_LT(at_rollback, at_resume);
  EXPECT_NE(text.find("\"event\":\"audit\""), std::string::npos);
  EXPECT_NE(text.find("checksum mismatch"), std::string::npos) << text;
  EXPECT_EQ(text.find("\"event\":\"attempt_failed\""), std::string::npos);
  EXPECT_EQ(text.find("\"event\":\"restore\""), std::string::npos);

  // The rollback restored the step-2 checkpoint (the newest clean one).
  const std::size_t line_end = text.find('\n', at_rollback);
  const std::string rollback_line = text.substr(
      text.rfind('\n', at_rollback) + 1, line_end - text.rfind('\n', at_rollback) - 1);
  EXPECT_NE(rollback_line.find("\"step\":2"), std::string::npos)
      << rollback_line;

  fs::remove_all(scfg.checkpoint_dir);
}

TEST(SdcRollback, AccelerationFlipDetectedAndRolledBackBitForBit) {
  // The long-range acceleration stays resident across the step boundary
  // (the next step's opening half-kick reads it), so the invariance window
  // covers it as well. Pin one flip into element 7 of rank 1's actives —
  // field 7 of the lowest-id active's 10 resident floats, its ax — at the
  // start of step 4, on a high mantissa bit: finite and physically
  // plausible, so only the checksum can see it. The gate after step 4
  // catches it, and the in-place rollback finishes bit-for-bit like a run
  // that never saw the flip.
  const SimulationConfig cfg = sdc_config();
  cosmology::Cosmology cosmo;
  const Bits ref = reference_bits(cfg, cosmo, 2);

  SupervisorConfig scfg = sdc_supervisor_config(cfg, "hacc_sdc_accel");
  comm::FaultPlan plan;
  plan.flip_bits_in_particles(/*rank=*/1, /*step=*/4)
      .pin_element(7)
      .pin_bit(20);
  scfg.machine.fault_plan = &plan;

  Supervisor sup(cosmo, scfg);
  Bits got;
  sup.on_finished = [&](Simulation& sim, comm::Comm& c) {
    collect_bits(sim, c, &got);
  };
  const SupervisorReport rep = sup.run();

  EXPECT_TRUE(rep.completed) << rep.last_error;
  EXPECT_EQ(rep.attempts, 1);
  EXPECT_EQ(rep.restores, 0);
  EXPECT_EQ(rep.sdc_detections, 1);
  EXPECT_EQ(rep.rollbacks, 1);
  EXPECT_EQ(ref, got);

  const std::string text = read_file(scfg.sim.ledger_path);
  const std::size_t at_detect = text.find("\"event\":\"sdc_detected\"");
  ASSERT_NE(at_detect, std::string::npos) << text;
  EXPECT_NE(text.find("checksum mismatch", at_detect), std::string::npos)
      << text;
  const std::size_t at_rollback = text.find("\"event\":\"rollback\"");
  ASSERT_NE(at_rollback, std::string::npos) << text;
  EXPECT_NE(text.find("\"step\":2", at_rollback), std::string::npos) << text;

  fs::remove_all(scfg.checkpoint_dir);
}

TEST(SdcRollback, PoisonedButCrcCleanCheckpointIsSkipped) {
  // Audit cadence 2 + checkpoint every step: a flip at step 3 is silently
  // checkpointed into ckpt_3 (its CRCs are fine — the corruption is inside
  // the payload) and only detected at the step-4 audit gate. The verdict
  // sidecar must steer the rollback past ckpt_3 to ckpt_2.
  const SimulationConfig cfg = sdc_config();
  cosmology::Cosmology cosmo;
  const Bits ref = reference_bits(cfg, cosmo, 2);

  SupervisorConfig scfg = sdc_supervisor_config(cfg, "hacc_sdc_poisoned");
  scfg.sim.audit.cadence = 2;
  scfg.checkpoint_every = 1;
  scfg.keep = 4;
  comm::FaultPlan plan;
  plan.flip_bits_in_particles(/*rank=*/0, /*step=*/3, /*nbits=*/1);
  scfg.machine.fault_plan = &plan;

  Supervisor sup(cosmo, scfg);
  Bits got;
  sup.on_finished = [&](Simulation& sim, comm::Comm& c) {
    collect_bits(sim, c, &got);
  };
  const SupervisorReport rep = sup.run();

  EXPECT_TRUE(rep.completed) << rep.last_error;
  EXPECT_EQ(rep.attempts, 1);
  EXPECT_EQ(rep.rollbacks, 1);
  EXPECT_EQ(rep.sdc_detections, 1);
  EXPECT_EQ(ref, got);

  const std::string text = read_file(scfg.sim.ledger_path);
  // ckpt_3 was rejected on its audit verdict, not its CRC, and the
  // rollback landed on step 2.
  EXPECT_NE(text.find("audit verdict poisoned"), std::string::npos) << text;
  const std::size_t at_rollback = text.find("\"event\":\"rollback\"");
  ASSERT_NE(at_rollback, std::string::npos) << text;
  EXPECT_NE(text.find("\"step\":2", at_rollback), std::string::npos) << text;

  fs::remove_all(scfg.checkpoint_dir);
}

TEST(SdcRollback, GridFlipCaughtByMassConservation) {
  // The particle checksum cannot see grid corruption; the CIC
  // partition-of-unity audit must. Pin the flip to a high mantissa bit so
  // the damage is silent (finite, no health-guard backstop).
  const SimulationConfig cfg = sdc_config();
  cosmology::Cosmology cosmo;
  const Bits ref = reference_bits(cfg, cosmo, 2);

  SupervisorConfig scfg = sdc_supervisor_config(cfg, "hacc_sdc_grid");
  comm::FaultPlan plan;
  plan.flip_bits_in_grid(/*rank=*/0, /*step=*/3).pin_bit(48);
  scfg.machine.fault_plan = &plan;

  Supervisor sup(cosmo, scfg);
  Bits got;
  sup.on_finished = [&](Simulation& sim, comm::Comm& c) {
    collect_bits(sim, c, &got);
  };
  const SupervisorReport rep = sup.run();

  EXPECT_TRUE(rep.completed) << rep.last_error;
  EXPECT_EQ(rep.attempts, 1);
  EXPECT_EQ(rep.rollbacks, 1);
  EXPECT_EQ(ref, got);

  const std::string text = read_file(scfg.sim.ledger_path);
  const std::size_t at_detect = text.find("\"event\":\"sdc_detected\"");
  ASSERT_NE(at_detect, std::string::npos) << text;
  EXPECT_NE(text.find("mass residual"), std::string::npos) << text;

  fs::remove_all(scfg.checkpoint_dir);
}

TEST(SdcRollback, EscalatesToRelaunchWhenNothingIsRestorable) {
  // A flip before the first checkpoint exists: the in-place ladder has no
  // candidate and must hand the failure to the relaunch path, which
  // cold-starts — and the spent one-shot spec lets the retry finish clean.
  const SimulationConfig cfg = sdc_config();
  cosmology::Cosmology cosmo;
  const Bits ref = reference_bits(cfg, cosmo, 2);

  SupervisorConfig scfg = sdc_supervisor_config(cfg, "hacc_sdc_escalate");
  comm::FaultPlan plan;
  plan.flip_bits_in_particles(/*rank=*/1, /*step=*/1, /*nbits=*/2);
  scfg.machine.fault_plan = &plan;

  Supervisor sup(cosmo, scfg);
  Bits got;
  sup.on_finished = [&](Simulation& sim, comm::Comm& c) {
    collect_bits(sim, c, &got);
  };
  const SupervisorReport rep = sup.run();

  EXPECT_TRUE(rep.completed) << rep.last_error;
  EXPECT_EQ(rep.attempts, 2);
  EXPECT_EQ(rep.restores, 1);
  EXPECT_EQ(rep.rollbacks, 0);
  EXPECT_EQ(rep.sdc_detections, 1);
  EXPECT_EQ(ref, got);  // cold restart at the same width is deterministic

  const std::string text = read_file(scfg.sim.ledger_path);
  EXPECT_NE(text.find("\"event\":\"rollback_failed\""), std::string::npos)
      << text;
  EXPECT_NE(text.find("\"event\":\"attempt_failed\""), std::string::npos);
  EXPECT_NE(text.find("\"event\":\"restore_cold\""), std::string::npos);

  fs::remove_all(scfg.checkpoint_dir);
}

}  // namespace
}  // namespace hacc::core
