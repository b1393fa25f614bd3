#include "core/simulation.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <numbers>

#include "comm/fault.h"
#include "gio/particle_io.h"
#include "mesh/cic.h"
#include "obs/obs.h"
#include "obs/reduce.h"
#include "p3m/chaining_mesh.h"
#include "tree/interaction_batch.h"

namespace hacc::core {

using cosmology::Cosmology;

namespace {

// Pre-interned phase ids: phase_ids() interns three names; these run every
// (sub)step.
const obs::PhaseIds kPhaseStep = obs::phase_ids(TimerRegistry::kRootPhase);
const obs::PhaseIds kPhaseInit = obs::phase_ids("init");
const obs::PhaseIds kPhaseCic = obs::phase_ids("cic");
const obs::PhaseIds kPhaseGridExchange = obs::phase_ids("grid-exchange");
const obs::PhaseIds kPhasePoisson = obs::phase_ids("poisson");
const obs::PhaseIds kPhaseLrKick = obs::phase_ids("lr-kick");
const obs::PhaseIds kPhaseTreeBuild = obs::phase_ids("tree-build");
const obs::PhaseIds kPhaseSrKernel = obs::phase_ids("sr-kernel");
const obs::PhaseIds kPhaseStream = obs::phase_ids("stream");
const obs::PhaseIds kPhaseRefresh = obs::phase_ids("refresh");
const obs::PhaseIds kPhaseCheckpoint = obs::phase_ids("checkpoint");
const obs::PhaseIds kPhaseInsitu = obs::phase_ids("insitu");
const obs::PhaseIds kPhaseAudit = obs::phase_ids("audit");

const NameId kCtrInteractions = obs::counter_id("tree.pp_interactions");
// Pairs the gathers listed before the cull: beside tree.pp_interactions it
// shows how much of the walk's output the kernel never saw.
const NameId kCtrListed = obs::counter_id("tree.pp_listed");
const NameId kCtrWalkVisits = obs::counter_id("tree.walk_visits");
// Vector lanes of the short-range kernel this rank runs (1: scalar loop), so
// every ledger record and /metrics scrape names the width behind its times.
const NameId kGaugeKernelLanes = obs::gauge_id("tree.kernel_lanes");
const NameId kGaugePeakRss = obs::gauge_id("mem.peak_rss_bytes");

// SDC audit observability: per-gate totals plus the injection count (so a
// chaos run's ledger shows the flips that were actually applied).
const NameId kCtrAuditRuns = obs::counter_id("audit.runs");
const NameId kCtrAuditChecksum = obs::counter_id("audit.checksum_mismatches");
const NameId kCtrAuditDup = obs::counter_id("audit.dup_mismatches");
const NameId kCtrAuditDupSamples = obs::counter_id("audit.dup_samples");
const NameId kGaugeAuditMassResidual =
    obs::gauge_id("audit.mass_residual_nano");
const NameId kCtrMemoryFlips = obs::counter_id("fault.memory_flips");

// Ghost width of the PM grids: an in-domain active's CIC cloud reaches at
// most one cell past the interior's high edge.
constexpr std::size_t kGridGhost = 1;

/// Flip one bit of a float (SDC injection applied to resident state).
inline void flip_float_bit(float& v, int bit) noexcept {
  std::uint32_t u;
  std::memcpy(&u, &v, sizeof(u));
  u ^= std::uint32_t{1} << (bit & 31);
  std::memcpy(&v, &u, sizeof(v));
}

/// Flip one bit of a double (grid cells are double).
inline void flip_double_bit(double& v, int bit) noexcept {
  std::uint64_t u;
  std::memcpy(&u, &v, sizeof(u));
  u ^= std::uint64_t{1} << (bit & 63);
  std::memcpy(&v, &u, sizeof(v));
}

// Live-scrape slots: step wall-time distribution plus the cost-map summary
// gauges (the _micro suffix is the fixed-point convention for fractional
// values in uint64 counter slots; the Prometheus exporter divides by 1e6).
const NameId kHistStepWall = obs::histogram_id("step.wall_ns");
const NameId kGaugeCostKernelNs = obs::gauge_id("cost.kernel_ns");
const NameId kGaugeCostLeaves = obs::gauge_id("cost.leaves");
const NameId kGaugeCostLeafImbalance = obs::gauge_id("cost.leaf_imbalance_micro");
const NameId kGaugeCostNsPerInteraction =
    obs::gauge_id("cost.ns_per_interaction_micro");
const NameId kGaugeCostTopDecile = obs::gauge_id("cost.top_decile_share_micro");

}  // namespace

Simulation::Simulation(comm::Comm& world, const Cosmology& cosmo,
                       const SimulationConfig& config)
    : world_(world),
      cosmo_(cosmo),
      config_(config),
      decomp_(mesh::BlockDecomp3D::balanced(
          {config.grid, config.grid, config.grid}, world.size())),
      rho_(decomp_, world.rank(), kGridGhost),
      force_{mesh::DistGrid(decomp_, world.rank(), kGridGhost),
             mesh::DistGrid(decomp_, world.rank(), kGridGhost),
             mesh::DistGrid(decomp_, world.rank(), kGridGhost)} {
  HACC_CHECK(config.steps >= 1 && config.subcycles >= 1);
  HACC_CHECK(config.particles_per_dim >= 1);
  HACC_CHECK_MSG(config.z_initial > config.z_final,
                 "z must decrease over the run");

  watchdog_ = obs::Watchdog(config.watchdog_config);
  domain_ = std::make_unique<OverloadDomain>(decomp_, world.rank(),
                                             config.overload);
  domain_->set_canonical_order(config.canonical_order);
  poisson_ = std::make_unique<mesh::PoissonSolver>(world, decomp_,
                                                   config.spectral);

  // Short-range kernel: subtract the force-matched filtered grid force.
  kernel_.softening = config.softening;
  kernel_.rmax = 3.0f;  // the paper's hand-over scale (3 grid spacings)
  const mesh::SpectralConfig def{};
  const bool default_spectral =
      config.spectral.sigma == def.sigma && config.spectral.ns == def.ns &&
      config.spectral.green == def.green &&
      config.spectral.gradient == def.gradient;
  if (default_spectral) {
    kernel_.fgrid = tree::default_fgrid_poly5();
  } else {
    tree::ForceMatchConfig fm;
    fm.spectral = config.spectral;
    fm.rmax = kernel_.rmax;
    kernel_.fgrid = tree::match_grid_force(fm);
  }

  // Inner-loop choice: the config knob, unless HACC_KERNEL overrides it.
  kernel_variant_ = tree::kernel_variant_from_env(config.kernel);
  const tree::TileKernel* tile = tree::tile_kernel_for(kernel_variant_);
  counters_.set(kGaugeKernelLanes, tile != nullptr ? tile->lanes : 1);

  const double np_total = std::pow(
      static_cast<double>(config.particles_per_dim), 3);
  const double cells = std::pow(static_cast<double>(config.grid), 3);
  const double rho_bar = np_total / cells;  // unit particle masses
  mass_scale_ =
      static_cast<float>(1.0 / (4.0 * std::numbers::pi * rho_bar));

  a_ = Cosmology::a_of_z(config.z_initial);
}

void Simulation::initialize() {
  obs::Binding binding(&tracer_, &counters_);
  obs::PhaseScope scope(&counters_, kPhaseInit);
  cosmology::IcConfig ic = config_.ic;
  ic.particles_per_dim = config_.particles_per_dim;
  ic.box_mpch = config_.box_mpch;
  ic.z_init = config_.z_initial;
  ic.seed = config_.seed;
  cosmology::generate_zeldovich(world_, decomp_, cosmo_, ic, particles_);
  domain_->refresh(world_, particles_);
  accel_valid_ = false;  // the first step() solves before its opening kick
  steps_taken_ = 0;
  a_ = Cosmology::a_of_z(config_.z_initial);
  // Open the first invariance window over the freshly initialized state,
  // so a flip at step 1 is already caught.
  reset_audit_window();
  audit_end_step();
}

mesh::DistGrid& Simulation::density_contrast() {
  // Deposit *active* particles only (passives are someone else's mass).
  for (auto& v : active_pos_) v.clear();
  auto& [xs, ys, zs] = active_pos_;
  for (std::size_t i = 0; i < particles_.size(); ++i) {
    if (particles_.role[i] != tree::Role::kActive) continue;
    xs.push_back(particles_.x[i]);
    ys.push_back(particles_.y[i]);
    zs.push_back(particles_.z[i]);
  }
  deposit_density(rho_, xs, ys, zs);
  return rho_;
}

void Simulation::deposit_density(mesh::DistGrid& rho,
                                 std::span<const float> x,
                                 std::span<const float> y,
                                 std::span<const float> z) {
  {
    obs::PhaseScope scope(&counters_, kPhaseCic);
    rho.fill(0.0);
    if (config_.threaded_deposit) {
      mesh::cic_deposit_threaded(rho, x, y, z, 1.0f);
    } else {
      mesh::cic_deposit(rho, x, y, z, 1.0f);
    }
  }
  {
    obs::PhaseScope scope(&counters_, kPhaseGridExchange);
    rho.fold_ghosts(world_);
  }
  // Grid-resident fault injection fires here — after the fold, before the
  // mass audit captures the interior sum, so the damage both corrupts the
  // physics downstream and is visible to the conservation check. Flips are
  // drawn from the high mantissa/exponent/sign bits (the physically
  // consequential ones; a low-mantissa flip is below deposit rounding).
  if (comm::fault::active()) {
    const auto& box = rho.interior();
    const std::uint64_t ex = box.x.extent();
    const std::uint64_t ey = box.y.extent();
    const std::uint64_t ez = box.z.extent();
    const auto flips = comm::fault::take_memory_flips(
        comm::fault::MemoryTarget::kGrid, ex * ey * ez, 48, 64);
    for (const auto& flip : flips) {
      const auto i = static_cast<std::ptrdiff_t>(flip.element / (ey * ez));
      const auto j =
          static_cast<std::ptrdiff_t>((flip.element / ez) % ey);
      const auto k = static_cast<std::ptrdiff_t>(flip.element % ez);
      flip_double_bit(rho.at(i, j, k), flip.bit);
    }
    if (!flips.empty()) counters_.add(kCtrMemoryFlips, flips.size());
  }
  if (config_.audit.cadence > 0) {
    audit_.grid_mass += rho.interior_sum();
    audit_.deposits += 1.0;
  }
  mesh::to_density_contrast(rho, world_);
}

void Simulation::solve_long_range() {
  {
    obs::PhaseScope scope(&counters_, kPhaseRefresh);
    domain_->migrate(world_, particles_);
  }
  // particles_ now holds exactly this rank's in-domain actives.
  deposit_density(rho_, particles_.x, particles_.y, particles_.z);
  {
    obs::PhaseScope scope(&counters_, kPhasePoisson);
    poisson_->solve(world_, rho_, force_);
  }
  {
    obs::PhaseScope scope(&counters_, kPhaseGridExchange);
    for (auto& f : force_) f.fill_ghosts(world_);
  }
  obs::PhaseScope scope(&counters_, kPhaseLrKick);
  mesh::cic_interpolate(force_[0], particles_.x, particles_.y, particles_.z,
                        particles_.ax);
  mesh::cic_interpolate(force_[1], particles_.x, particles_.y, particles_.z,
                        particles_.ay);
  mesh::cic_interpolate(force_[2], particles_.x, particles_.y, particles_.z,
                        particles_.az);
}

void Simulation::replicate() {
  obs::PhaseScope scope(&counters_, kPhaseRefresh);
  domain_->replicate(world_, particles_);
}

void Simulation::long_range_kick(double a0, double a1) {
  obs::PhaseScope scope(&counters_, kPhaseLrKick);
  const auto f = static_cast<float>(1.5 * cosmo_.omega_m *
                                    cosmo_.kick_factor(a0, a1));
  for (std::size_t i = 0; i < particles_.size(); ++i) {
    particles_.vx[i] += f * particles_.ax[i];
    particles_.vy[i] += f * particles_.ay[i];
    particles_.vz[i] += f * particles_.az[i];
  }
}

void Simulation::apply_short_kick(double coeff) {
  if (config_.solver == ShortRangeSolver::kNone || particles_.empty())
    return;
  sr_ax_.assign(particles_.size(), 0.0f);
  sr_ay_.assign(particles_.size(), 0.0f);
  sr_az_.assign(particles_.size(), 0.0f);
  // The leaf partition: the RCB tree, or P3M's chaining mesh with cells of
  // the hand-over radius. Either permutes particles_ in place.
  std::unique_ptr<tree::LeafPartition> partition;
  {
    obs::PhaseScope scope(&counters_, kPhaseTreeBuild);
    if (config_.solver == ShortRangeSolver::kTreePP)
      partition = std::make_unique<tree::RcbTree>(
          particles_, tree::RcbConfig{config_.leaf_size});
    else
      partition = std::make_unique<p3m::ChainingMesh>(particles_, kernel_.rmax);
  }
  obs::PhaseScope scope(&counters_, kPhaseSrKernel);
  stats_ = tree::compute_short_range(*partition, kernel_, sr_ax_, sr_ay_,
                                     sr_az_, mass_scale_, kernel_variant_,
                                     &sr_workspace_);
  obs::add_counter(kCtrInteractions, stats_.interactions);
  obs::add_counter(kCtrListed, stats_.listed);
  obs::add_counter(kCtrWalkVisits, stats_.walk_visits);
  if (audit_.dup_pending) {
    audit_.dup_pending = false;
    obs::PhaseScope audit_scope(&counters_, kPhaseAudit);
    const DuplicateExecutionResult dup = duplicate_execution_check(
        *partition, kernel_, sr_ax_, sr_ay_, sr_az_, mass_scale_,
        config_.audit, static_cast<std::uint64_t>(steps_taken_ + 1),
        &audit_list_);
    audit_.dup_mismatches += static_cast<double>(dup.mismatches);
    audit_.dup_samples += static_cast<double>(dup.checked);
  }
  const auto c = static_cast<float>(coeff);
  for (std::size_t i = 0; i < particles_.size(); ++i) {
    particles_.vx[i] += c * sr_ax_[i];
    particles_.vy[i] += c * sr_ay_[i];
    particles_.vz[i] += c * sr_az_[i];
  }
}

void Simulation::drift(double factor) {
  obs::PhaseScope scope(&counters_, kPhaseStream);
  const auto f = static_cast<float>(factor);
  for (std::size_t i = 0; i < particles_.size(); ++i) {
    particles_.x[i] += f * particles_.vx[i];
    particles_.y[i] += f * particles_.vy[i];
    particles_.z[i] += f * particles_.vz[i];
  }
  // Positions are NOT wrapped here: passive replicas must stay in the
  // receiver's unwrapped frame. The refresh wraps actives.
}

void Simulation::short_range_subcycles(double a0, double a1) {
  const int nc = config_.subcycles;
  const double prefac = 1.5 * cosmo_.omega_m;
  for (int c = 0; c < nc; ++c) {
    const double b0 =
        a0 + (a1 - a0) * static_cast<double>(c) / static_cast<double>(nc);
    const double b1 = a0 + (a1 - a0) * static_cast<double>(c + 1) /
                               static_cast<double>(nc);
    const double bm = 0.5 * (b0 + b1);
    // S K S: stream - short-range kick - stream.
    drift(cosmo_.drift_factor(b0, bm));
    apply_short_kick(prefac * cosmo_.kick_factor(b0, b1));
    drift(cosmo_.drift_factor(bm, b1));
  }
}

void Simulation::step() {
  obs::CostMap* cost = config_.cost_attribution ? &cost_map_ : nullptr;
  if (cost != nullptr) cost->begin_step();
  const std::uint64_t wall_t0 = util::now_ns();
  {
    obs::Binding binding(&tracer_, &counters_, cost);
    obs::PhaseScope step_scope(&counters_, kPhaseStep);
    // SDC window: fire any due resident-memory faults, then verify the
    // state is bit-identical to the end of the previous step.
    audit_begin_step();
    const double a0 = a_;
    const double a_final = Cosmology::a_of_z(config_.z_final);
    const double a_init = Cosmology::a_of_z(config_.z_initial);
    const double da = (a_final - a_init) / static_cast<double>(config_.steps);
    const double a1 = std::min(a0 + da, a_final);
    const double am = 0.5 * (a0 + a1);

    if (!accel_valid_) {
      // Stale acceleration (fresh or restored state): rebuild the boundary
      // state the previous step would have left, minus its kick.
      solve_long_range();
      replicate();
      accel_valid_ = true;
    }
    long_range_kick(a0, am);        // M_lr(t/2): actives and passives
    short_range_subcycles(a0, a1);  // (M_sr(t/n_c))^{n_c}
    solve_long_range();             // the step's one PM solve
    long_range_kick(am, a1);        // M_lr(t/2): the migrated actives
    replicate();                    // passives take the kicked state
    a_ = a1;
    ++steps_taken_;
    // In-situ hook lives here (not in run()) so supervised/chaos-driven
    // stepping streams catalogs too.
    if (config_.insitu.cadence > 0 &&
        steps_taken_ % config_.insitu.cadence == 0)
      run_insitu();
    // Open the next invariance window over the boundary state.
    audit_end_step();
  }
  // Both sinks are atomics, safe against a live scrape.
  histograms_.record(kHistStepWall, util::now_ns() - wall_t0);
  if (cost != nullptr) publish_cost_gauges();
}

void Simulation::apply_particle_memory_faults() {
  if (!comm::fault::active()) return;
  // Actives only: passive replicas are rebuilt at every refresh, so a flip
  // there models a transient the next exchange heals; the actives are the
  // authoritative state the audit defends.
  std::vector<std::size_t> actives;
  actives.reserve(particles_.size());
  for (std::size_t i = 0; i < particles_.size(); ++i)
    if (particles_.role[i] == tree::Role::kActive) actives.push_back(i);
  if (actives.empty()) return;
  // 10 resident float fields per active: x, y, z, vx, vy, vz, mass and the
  // acceleration ax, ay, az.
  constexpr std::size_t kFields = 10;
  const auto flips = comm::fault::take_memory_flips(
      comm::fault::MemoryTarget::kParticles, actives.size() * kFields, 0,
      32);
  for (const auto& flip : flips) {
    const std::size_t i = actives[flip.element / kFields];
    float* fields[kFields] = {
        &particles_.x[i],  &particles_.y[i],  &particles_.z[i],
        &particles_.vx[i], &particles_.vy[i], &particles_.vz[i],
        &particles_.mass[i], &particles_.ax[i], &particles_.ay[i],
        &particles_.az[i]};
    flip_float_bit(*fields[flip.element % kFields], flip.bit);
  }
  if (!flips.empty()) counters_.add(kCtrMemoryFlips, flips.size());
}

std::uint64_t Simulation::window_checksum() const {
  return acceleration_checksum(
      particles_, particle_checksum(particles_, config_.canonical_order),
      config_.canonical_order);
}

void Simulation::audit_begin_step() {
  apply_particle_memory_faults();
  const AuditConfig& audit = config_.audit;
  if (audit.cadence > 0 && audit.checksum && audit_.stash_valid) {
    obs::PhaseScope scope(&counters_, kPhaseAudit);
    // The inter-step window is idle: nothing legitimately mutates particle
    // state between the end-of-step stash and here, so any difference is
    // resident-memory corruption.
    if (window_checksum() != audit_.stash) audit_.checksum_mismatches += 1.0;
  }
  audit_.stash_valid = false;  // consumed; re-stashed at end of step
  audit_.dup_pending = audit.cadence > 0 && audit.duplicate_execution &&
                       audit_due(steps_taken_ + 1);
}

void Simulation::audit_end_step() {
  const AuditConfig& audit = config_.audit;
  if (audit.cadence > 0 && audit.checksum) {
    obs::PhaseScope scope(&counters_, kPhaseAudit);
    audit_.stash = window_checksum();
    audit_.stash_valid = true;
  }
}

void Simulation::reset_audit_window() {
  audit_ = AuditScratch{};
  prev_audit_kinetic_ = 0;
}

void Simulation::publish_cost_gauges() {
  const obs::CostMap::Summary s = cost_map_.summarize();
  counters_.set(kGaugeCostKernelNs, s.kernel_ns);
  counters_.set(kGaugeCostLeaves, s.leaves);
  counters_.set(kGaugeCostLeafImbalance,
                static_cast<std::uint64_t>(s.leaf_imbalance * 1e6));
  counters_.set(kGaugeCostNsPerInteraction,
                static_cast<std::uint64_t>(s.ns_per_interaction * 1e6));
  counters_.set(kGaugeCostTopDecile,
                static_cast<std::uint64_t>(s.top_decile_share * 1e6));
}

Simulation::ActiveSnapshot Simulation::active_snapshot() const {
  ActiveSnapshot snap;
  for (std::size_t i = 0; i < particles_.size(); ++i) {
    if (particles_.role[i] == tree::Role::kActive)
      snap.actives.append_from(particles_, i);
  }
  snap.meta.scale_factor = a_;
  snap.meta.box_mpch = config_.box_mpch;
  snap.meta.grid = config_.grid;
  snap.gio.aggregators = config_.io_aggregators;
  snap.gio.verify_after_write = config_.checkpoint_verify;
  return snap;
}

TimerRegistry Simulation::timers() const {
  // A phase's ns and calls slots land in the same entry.
  TimerRegistry reg;
  for (const obs::Counters::Sample& s : counters_.snapshot()) {
    const obs::PhaseSlot slot = obs::phase_slot(s.id);
    if (slot.kind == obs::PhaseSlot::kNs)
      reg.add(slot.phase, static_cast<double>(s.value) * 1e-9, 0);
    else if (slot.kind == obs::PhaseSlot::kCalls)
      reg.add(slot.phase, 0.0, s.value);
  }
  return reg;
}

serve::InSituReport Simulation::run_insitu() {
  obs::Binding binding(&tracer_, &counters_);
  obs::PhaseScope scope(&counters_, kPhaseInsitu);
  // Products see actives only — passives are replicas of someone else's
  // mass and would double-count.
  const ActiveSnapshot snap = active_snapshot();
  std::vector<cosmology::PowerBin> spectrum;
  if (config_.insitu.spectrum)
    spectrum = power_spectrum(config_.insitu.spectrum_bins);
  return serve::write_catalogs(world_, config_.insitu, steps_taken_,
                               snap.meta, snap.actives, spectrum, snap.gio);
}

void Simulation::run() {
  const bool ledger_on = !config_.ledger_path.empty();
  const bool trace_on = !config_.trace_path.empty();
  if (trace_on) tracer_.set_enabled(true);
  if (ledger_on) {
    // Stream records as they are produced (one fsync'd JSONL line per
    // step) instead of writing the file at end of run: a crashed run keeps
    // every completed step's record on disk.
    if (world_.rank() == 0 && !ledger_.streaming())
      ledger_.stream_to(config_.ledger_path);
    // Reset the delta baseline so constructor/initialize() phases and
    // counters do not leak into the first step's record.
    (void)ledger_samples();
  }
  for (int s = 0; s < config_.steps; ++s) {
    step();
    if (ledger_on) record_step_ledger();
  }
  if (ledger_on && world_.rank() == 0) ledger_.print_phase_table(std::cout);
  if (trace_on) obs::write_merged_trace(world_, tracer_, config_.trace_path);
}

std::vector<std::pair<NameId, double>> Simulation::ledger_samples() {
  counters_.set(kGaugePeakRss, obs::peak_rss_bytes());
  std::vector<std::pair<NameId, double>> out;
  for (const auto& s : counters_.snapshot()) {
    const obs::PhaseSlot::Kind slot = obs::phase_slot(s.id).kind;
    if (slot == obs::PhaseSlot::kCalls) continue;  // not a ledger column
    if (obs::kind_of(s.id) == obs::CounterKind::kGauge) {
      out.emplace_back(s.id, static_cast<double>(s.value));
      continue;
    }
    if (prev_counters_.size() <= s.id)
      prev_counters_.resize(static_cast<std::size_t>(s.id) + 1, 0);
    const std::uint64_t delta = s.value - prev_counters_[s.id];
    prev_counters_[s.id] = s.value;
    if (delta == 0) continue;
    // Phase time travels in seconds, every other counter as its count.
    const double scale = slot == obs::PhaseSlot::kNs ? 1e-9 : 1.0;
    out.emplace_back(s.id, static_cast<double>(delta) * scale);
  }
  return out;
}

void Simulation::record_step_ledger() {
  // Deliberately *not* bound to the counters: the ledger's own reductions
  // would otherwise pollute the next step's comm deltas.
  const auto samples = ledger_samples();
  const std::array<double, 3> momentum = total_momentum();
  if (!momentum0_) momentum0_ = momentum;
  const auto rows = obs::reduce_samples(
      world_, std::span<const std::pair<NameId, double>>(samples));
  // Cost attribution is reduced collectively too (even though only the
  // root keeps the record) — every rank must participate.
  obs::CostMapRecord cost_rec;
  if (config_.cost_attribution)
    cost_rec =
        obs::reduce_cost_map(world_, cost_map_.summarize(), steps_taken_);
  if (world_.rank() != 0) return;  // reductions land on the root only

  obs::StepRecord rec;
  rec.step = steps_taken_;
  rec.a = a_;
  rec.z = current_z();
  rec.momentum = momentum;
  double drift = 0;
  for (int d = 0; d < 3; ++d)
    drift = std::max(drift, std::abs(momentum[static_cast<std::size_t>(d)] -
                                     (*momentum0_)[static_cast<std::size_t>(d)]));
  rec.momentum_drift = drift;
  for (const auto& r : rows) {
    const obs::PhaseStat ps{r.min, r.mean, r.max, r.imbalance()};
    const obs::PhaseSlot slot = obs::phase_slot(r.name);
    if (r.name == kPhaseStep.ns) {
      rec.wall = ps;
    } else if (slot.kind == obs::PhaseSlot::kNs) {
      rec.phases.emplace(std::string(slot.phase), ps);
    } else {
      if (r.name == kGaugePeakRss)
        rec.peak_rss_bytes = static_cast<std::uint64_t>(r.max);
      rec.counters.emplace(std::string(name_of(r.name)), ps);
    }
  }
  const double np_total =
      std::pow(static_cast<double>(config_.particles_per_dim), 3);
  if (rec.wall.mean > 0 && np_total > 0)
    rec.t_per_substep_per_particle =
        rec.wall.mean / static_cast<double>(config_.subcycles) / np_total;
  rec.breakdown = obs::paper_breakdown(rec.phases, rec.wall.mean);

  // Watchdog inspects the reduced record before it is consumed; anomalies
  // interleave with the step/costmap lines in the streamed ledger.
  std::vector<obs::Anomaly> anomalies;
  if (config_.watchdog)
    anomalies = watchdog_.observe(
        rec, config_.cost_attribution ? &cost_rec : nullptr);

  ledger_.append(std::move(rec));
  if (config_.cost_attribution) ledger_.append_costmap(cost_rec);
  for (const obs::Anomaly& a : anomalies)
    ledger_.append_event(obs::Watchdog::to_event(a, steps_taken_));
}

std::vector<cosmology::PowerBin> Simulation::power_spectrum(
    std::size_t bins) {
  const mesh::DistGrid& delta = density_contrast();
  return cosmology::measure_power_spectrum(world_, poisson_->fft(), delta,
                                           config_.box_mpch, bins);
}

tree::ParticleArray Simulation::gather_active() {
  return gio::gather_actives(world_, particles_);
}

void Simulation::write_checkpoint(const std::string& path) {
  obs::Binding binding(&tracer_, &counters_);
  obs::PhaseScope scope(&counters_, kPhaseCheckpoint);
  // Strip passives: they are someone else's actives and get rebuilt.
  const ActiveSnapshot snap = active_snapshot();
  gio::write_particles(world_, path, snap.meta, snap.actives, snap.gio);
}

void Simulation::read_checkpoint(const std::string& path) {
  obs::Binding binding(&tracer_, &counters_);
  obs::PhaseScope scope(&counters_, kPhaseCheckpoint);
  const gio::ReadReport report =
      gio::read_particles(world_, path, particles_);
  if (!report.corrupt.empty()) {
    // Restarting from zero-filled physics would be silently wrong; refuse
    // and name the damage (the gio read itself never aborts).
    std::string what = "checkpoint " + path + " has corrupt blocks:";
    for (const auto& c : report.corrupt)
      what += " [block " + std::to_string(c.block) + " var " + c.var_name +
              "]";
    throw Error(what);
  }
  HACC_CHECK_MSG(report.meta.grid == config_.grid &&
                     report.meta.box_mpch == config_.box_mpch,
                 "checkpoint does not match the simulation configuration");
  a_ = report.meta.scale_factor;
  // Recompute how many steps the restored state corresponds to.
  const double a_init = Cosmology::a_of_z(config_.z_initial);
  const double a_final = Cosmology::a_of_z(config_.z_final);
  const double da = (a_final - a_init) / static_cast<double>(config_.steps);
  steps_taken_ = static_cast<int>(std::lround((a_ - a_init) / da));
  // Elastic restore: the blocks just read are partitioned by file order,
  // not by domain — migrate with every rank as a peer routes each particle
  // to its owner, then replicate rebuilds the passive layer.
  domain_->refresh(world_, particles_, Reach::kWorld);
  accel_valid_ = false;  // not checkpointed: the next step() solves
  // The restored state seeds fresh audit baselines: stale windows or
  // accumulated findings from the abandoned trajectory must not trip the
  // next gate.
  reset_audit_window();
  audit_end_step();
}

Simulation::EnergyDiagnostics Simulation::energy() {
  const mesh::DistGrid& delta = density_contrast();
  // force_ is scratch between steps (the acceleration lives on the
  // particles), so the diagnostic solve may reuse it.
  mesh::DistGrid phi(decomp_, world_.rank(), kGridGhost);
  poisson_->solve(world_, delta, force_, &phi);
  phi.fill_ghosts(world_);
  const auto& [xs, ys, zs] = active_pos_;  // density_contrast() filled it
  std::vector<float> phi_at(xs.size());
  mesh::cic_interpolate(phi, xs, ys, zs, phi_at);

  EnergyDiagnostics e;
  for (std::size_t i = 0; i < particles_.size(); ++i) {
    if (particles_.role[i] != tree::Role::kActive) continue;
    const float p2 = particles_.vx[i] * particles_.vx[i] +
                     particles_.vy[i] * particles_.vy[i] +
                     particles_.vz[i] * particles_.vz[i];
    e.kinetic += 0.5 * static_cast<double>(p2);
  }
  e.kinetic /= a_ * a_;
  for (float ph : phi_at) e.potential += ph;
  e.potential *= 0.5 * 1.5 * cosmo_.omega_m / a_;
  e.kinetic = world_.allreduce_value(e.kinetic, comm::ReduceOp::kSum);
  e.potential = world_.allreduce_value(e.potential, comm::ReduceOp::kSum);
  return e;
}

std::array<double, 3> Simulation::total_momentum() {
  std::array<double, 3> sum{0, 0, 0};
  for (std::size_t i = 0; i < particles_.size(); ++i) {
    if (particles_.role[i] != tree::Role::kActive) continue;
    sum[0] += particles_.vx[i];
    sum[1] += particles_.vy[i];
    sum[2] += particles_.vz[i];
  }
  world_.allreduce(std::span<double>(sum), comm::ReduceOp::kSum);
  return sum;
}

std::string Simulation::HealthReport::describe(double max_drift) const {
  std::string what;
  if (!finite) what += "non-finite particle state; ";
  if (!counts_ok())
    what += "active particle count " + std::to_string(active) + " != " +
            std::to_string(expected) + "; ";
  if (max_drift > 0 && momentum_drift > max_drift)
    what += "momentum drift " + std::to_string(momentum_drift) +
            " exceeds budget " + std::to_string(max_drift) + "; ";
  if (!what.empty()) what.resize(what.size() - 2);  // trailing "; "
  return what;
}

std::string Simulation::HealthReport::describe_sdc(
    const AuditConfig& audit) const {
  std::string what;
  if (checksum_mismatches > 0)
    what += std::to_string(checksum_mismatches) +
            " payload checksum mismatch(es); ";
  if (dup_mismatches > 0)
    what += std::to_string(dup_mismatches) + " of " +
            std::to_string(dup_samples) +
            " duplicate-execution sample(s) disagree; ";
  if (mass_residual > audit.mass_rtol)
    what += "CIC mass residual " + std::to_string(mass_residual) +
            " exceeds " + std::to_string(audit.mass_rtol) + "; ";
  if (audit.kinetic_jump > 0 && kinetic_jump > 0 &&
      (kinetic_jump > audit.kinetic_jump ||
       kinetic_jump < 1.0 / audit.kinetic_jump))
    what += "kinetic energy jumped " + std::to_string(kinetic_jump) +
            "x between audits (budget " +
            std::to_string(audit.kinetic_jump) + "x); ";
  if (!what.empty()) what.resize(what.size() - 2);  // trailing "; "
  return what;
}

Simulation::HealthReport Simulation::health_check() {
  const auto finite = [](float v) { return std::isfinite(v); };
  // Local scan, then ONE 10-wide allreduce: {nonfinite particles, actives,
  // momentum x/y/z, kinetic p^2 sum} plus the SDC audit accumulators
  // {checksum mismatches, dup mismatches, dup samples, grid mass}. The
  // audits ride the existing gate collective — a gated step still costs
  // exactly one allreduce.
  std::array<double, 10> agg{};
  for (std::size_t i = 0; i < particles_.size(); ++i) {
    if (particles_.role[i] != tree::Role::kActive) continue;
    agg[1] += 1.0;
    if (!finite(particles_.x[i]) || !finite(particles_.y[i]) ||
        !finite(particles_.z[i]) || !finite(particles_.vx[i]) ||
        !finite(particles_.vy[i]) || !finite(particles_.vz[i]) ||
        !finite(particles_.mass[i]))
      agg[0] += 1.0;
    agg[2] += particles_.vx[i];
    agg[3] += particles_.vy[i];
    agg[4] += particles_.vz[i];
    agg[5] += 0.5 * (static_cast<double>(particles_.vx[i]) * particles_.vx[i] +
                     static_cast<double>(particles_.vy[i]) * particles_.vy[i] +
                     static_cast<double>(particles_.vz[i]) * particles_.vz[i]);
  }
  agg[6] = audit_.checksum_mismatches;
  agg[7] = audit_.dup_mismatches;
  agg[8] = audit_.dup_samples;
  agg[9] = audit_.grid_mass;
  world_.allreduce(std::span<double>(agg), comm::ReduceOp::kSum);

  HealthReport report;
  report.finite = agg[0] == 0;
  report.active = static_cast<std::uint64_t>(agg[1]);
  const double np = static_cast<double>(config_.particles_per_dim);
  report.expected = static_cast<std::uint64_t>(np * np * np);
  report.momentum = {agg[2], agg[3], agg[4]};
  if (!momentum0_) momentum0_ = report.momentum;
  for (int d = 0; d < 3; ++d) {
    const auto sd = static_cast<std::size_t>(d);
    report.momentum_drift = std::max(
        report.momentum_drift,
        std::abs(report.momentum[sd] - (*momentum0_)[sd]));
  }
  report.kinetic = a_ > 0 ? agg[5] / (a_ * a_) : agg[5];
  report.checksum_mismatches = static_cast<std::uint64_t>(agg[6]);
  report.dup_mismatches = static_cast<std::uint64_t>(agg[7]);
  report.dup_samples = static_cast<std::uint64_t>(agg[8]);
  if (audit_.deposits > 0) {
    // Each deposit's global grid sum must equal the global active count
    // (CIC is a partition of unity); the accumulated residual is relative
    // to the accumulated expectation, so it is cadence-independent.
    const double expected_mass =
        audit_.deposits * static_cast<double>(report.expected);
    if (expected_mass > 0)
      report.mass_residual = std::abs(agg[9] - expected_mass) / expected_mass;
  }
  report.audited = audit_due(steps_taken_);
  if (report.audited) {
    if (prev_audit_kinetic_ > 0 && report.kinetic > 0)
      report.kinetic_jump = report.kinetic / prev_audit_kinetic_;
    prev_audit_kinetic_ = report.kinetic;
    // This gate consumed the accumulated findings; publish them to the
    // live counters and start the next accumulation window.
    counters_.add(kCtrAuditRuns, 1);
    counters_.add(kCtrAuditChecksum, report.checksum_mismatches);
    counters_.add(kCtrAuditDup, report.dup_mismatches);
    counters_.add(kCtrAuditDupSamples, report.dup_samples);
    counters_.set(kGaugeAuditMassResidual,
                  static_cast<std::uint64_t>(report.mass_residual * 1e9));
    audit_.checksum_mismatches = 0;
    audit_.dup_mismatches = 0;
    audit_.dup_samples = 0;
    audit_.grid_mass = 0;
    audit_.deposits = 0;
  }
  return report;
}

}  // namespace hacc::core
