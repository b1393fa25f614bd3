// The HACC simulation driver: spectral PM long/medium-range force +
// pluggable rank-local short-range solver + sub-cycled symplectic stepping
// + particle overloading.
//
// Time stepping (paper Sec. II, Eq. 6): a 2nd-order split-operator
// symplectic scheme that sub-cycles the short/close-range evolution within
// long/medium-range 'kick' maps,
//
//   M_full(t) = M_lr(t/2) (M_sr(t/n_c))^{n_c} M_lr(t/2),
//
// where M_lr updates only momenta (positions frozen) from the PM force, and
// each M_sr is itself a symmetric stream-kick-stream (SKS) composition for
// the short-range force. n_c is typically 5-10.
//
// One PM solve per step. The closing M_lr(t/2) of step n and the opening
// M_lr(t/2) of step n+1 act at the same positions, so they share one
// solve. step() ends by migrating the actives to their owners (id order),
// depositing them, solving once, interpolating the acceleration at the
// actives into ParticleArray::ax/ay/az, applying the closing half-kick to
// the actives and replicating them, so every passive carries its owner's
// kicked velocity and exact acceleration. The next step() opens with a
// half-kick of actives and passives from those stored accelerations — no
// deposit, solve or interpolation. The stored acceleration is valid from
// the end of a step() to the opening kick of the next; initialize(),
// read_checkpoint() and mutable_particles() mark it stale, and the next
// step() then rebuilds it (migrate, solve, replicate — no kick) before its
// opening kick. The boundary state therefore depends only on the
// id-ordered actives, which keeps restart bit-for-bit at the launch width.
//
// Units and equations of motion (derivation in cosmology/background.h):
// lengths in grid cells, tau = H0 t, p = a^2 dx/dtau. Then
//     dx/dtau = p / a^2,
//     dp/dtau = (3/2) Omega_m a^{-1} g(x),
// with g = -grad phi_c and nabla^2 phi_c = delta (the code-unit Poisson
// solve). The short-range kernel carries the same normalization through the
// mass scale mu = m / (4 pi rho_bar).
//
// Mixed precision per the paper: the spectral solve is double; particle
// state, short-range forces and the kick/drift updates are float.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "comm/comm.h"
#include "core/audit.h"
#include "core/domain.h"
#include "cosmology/background.h"
#include "cosmology/initial_conditions.h"
#include "cosmology/power_spectrum.h"
#include "gio/gio.h"
#include "mesh/poisson.h"
#include "obs/costmap.h"
#include "obs/counters.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "serve/insitu.h"
#include "tree/force_matcher.h"
#include "tree/rcb_tree.h"
#include "util/timer.h"

namespace hacc::core {

/// Which short/close-range algorithm backs the long-range solver
/// (paper Sec. II: P3M on accelerated systems, PPTreePM on Blue Gene).
enum class ShortRangeSolver {
  kNone,    ///< pure PM (long/medium range only)
  kTreePP,  ///< RCB tree + particle-particle kernel ("PPTreePM")
  kP3m,     ///< chaining-mesh direct particle-particle ("P3M")
};

struct SimulationConfig {
  std::size_t grid = 32;               ///< PM grid cells per dimension
  std::size_t particles_per_dim = 32;  ///< np^3 particles
  double box_mpch = 64.0;              ///< box side [Mpc/h]
  double z_initial = 50.0;
  double z_final = 0.0;
  int steps = 10;          ///< long-range steps
  int subcycles = 5;       ///< n_c short-range sub-cycles per step
  double overload = 4.0;   ///< particle replication depth [grid units]
  ShortRangeSolver solver = ShortRangeSolver::kTreePP;
  std::size_t leaf_size = 64;   ///< RCB fat-leaf size
  /// Use the OpenMP-threaded forward CIC (paper Sec. VI future work).
  bool threaded_deposit = false;
  /// Checkpoint writer aggregation width M (gio fan-in); 0 = gio default.
  int io_aggregators = 0;
  /// Write-then-verify checkpoints: rank 0 re-reads and CRC-validates the
  /// tmp file before the atomic rename publishes it (gio
  /// GioConfig::verify_after_write). A checkpoint that cannot be read back
  /// clean is refused instead of published.
  bool checkpoint_verify = true;
  /// Keep particles in canonical (id) order at every refresh, so float
  /// summation order — and the whole trajectory — is independent of
  /// arrival/removal history. Required for bit-for-bit restart
  /// reproducibility (a restore permutes particles); costs one O(n log n)
  /// sort per refresh.
  bool canonical_order = true;
  /// Short-range inner-loop implementation: the tile-batched explicit
  /// vector kernel (default) or the scalar `omp simd` reference loop. The
  /// HACC_KERNEL environment variable ("scalar"|"batched") overrides this.
  tree::KernelVariant kernel = tree::KernelVariant::kBatched;
  float softening = 0.1f;       ///< eps in (s + eps)^{-3/2} [grid units^2]
  mesh::SpectralConfig spectral{};
  cosmology::IcConfig ic{};     ///< particles_per_dim/box are overwritten
  std::uint64_t seed = 2012;
  /// When non-empty, run() reduces a per-step StepRecord across ranks and
  /// rank 0 writes the run ledger (JSONL, one object per step) here, plus a
  /// phase table to stdout. Empty = no extra collectives per step.
  std::string ledger_path;
  /// When non-empty, run() enables the per-rank tracer and rank 0 writes a
  /// merged Chrome trace_event JSON (pid = rank) here at end of run.
  std::string trace_path;
  /// In-situ analysis pipeline: when insitu.cadence > 0, every cadence-th
  /// completed step streams halo/spectrum/slice catalogs into
  /// insitu.output_dir (see serve/insitu.h). Runs inside step(), so
  /// supervised/chaos-driven runs stream catalogs too.
  serve::InSituConfig insitu;
  /// Per-leaf cost attribution: bind the rank's CostMap during step() so
  /// the short-range kernels record {leaf box, interactions, kernel ns}
  /// per leaf, and (when the ledger is on) reduce + stream a per-step
  /// {"costmap":...} record — the measured-cost input for the roadmap's
  /// cost-based rebalancer.
  bool cost_attribution = true;
  /// Drift watchdog: inspect each reduced step record (straggler
  /// imbalance, model-vs-measured ns/interaction drift, phase-coverage
  /// gaps) and ledger {"event":"anomaly"} lines. Only active when the
  /// ledger is on (the watchdog reads reduced records).
  bool watchdog = true;
  obs::WatchdogConfig watchdog_config{};
  /// Silent-data-corruption audits (core/audit.h): payload-invariance
  /// checksums, CIC mass conservation, kinetic-energy drift, and sampled
  /// duplicate execution, all folded into health_check()'s one allreduce.
  AuditConfig audit{};
};

class Simulation {
 public:
  /// Collective over `world`; builds the decomposition, the Poisson solver,
  /// the short-range kernel (shipped force-matched poly5 for the default
  /// spectral config, freshly matched otherwise).
  Simulation(comm::Comm& world, const cosmology::Cosmology& cosmo,
             const SimulationConfig& config);

  /// Generate Zel'dovich initial conditions and perform the first
  /// overloading refresh. Collective.
  void initialize();

  /// Advance one full long-range step: half-kick, sub-cycles, then the
  /// step boundary (migrate, one PM solve, half-kick, replicate).
  void step();

  /// Run all configured steps.
  void run();

  double current_a() const noexcept { return a_; }
  double current_z() const noexcept {
    return cosmology::Cosmology::z_of_a(a_);
  }
  int steps_taken() const noexcept { return steps_taken_; }

  const tree::ParticleArray& particles() const noexcept { return particles_; }
  /// Mutable access marks the stored long-range acceleration stale: the
  /// next step() recomputes it from the (possibly edited) particles.
  tree::ParticleArray& mutable_particles() noexcept {
    accel_valid_ = false;
    return particles_;
  }
  const OverloadDomain& domain() const noexcept { return *domain_; }
  const SimulationConfig& config() const noexcept { return config_; }
  const cosmology::Cosmology& cosmology() const noexcept { return cosmo_; }
  const tree::ShortRangeKernel& kernel() const noexcept { return kernel_; }

  /// Mass normalization mu = 1/(4 pi rho_bar) applied to short-range
  /// neighbor masses (rho_bar = mean particle mass per grid cell).
  float mass_scale() const noexcept { return mass_scale_; }

  /// Deposit the actives into the persistent PM grid and return it as the
  /// density contrast (collective); valid until the next step or spectral
  /// call (power_spectrum(), energy()). The actives must lie in this
  /// rank's domain, as they do between steps.
  mesh::DistGrid& density_contrast();

  /// Measured matter power spectrum of the current state (collective):
  /// density_contrast() through the Poisson solver's own BlockFft.
  std::vector<cosmology::PowerBin> power_spectrum(std::size_t bins = 32);

  /// Gather every *active* particle to rank 0 (empty elsewhere). Collective.
  tree::ParticleArray gather_active();

  /// Run the in-situ analysis pipeline on the current state: FOF halos,
  /// P(k), and a region slice streamed as gio catalogs into
  /// config().insitu.output_dir (products per the config). Collective;
  /// step() calls this automatically at the configured cadence, and drivers
  /// may invoke it directly for an on-demand catalog.
  serve::InSituReport run_insitu();

  /// Per-phase totals since construction ("step", "cic", "poisson",
  /// "poisson.fft", "sr-kernel", "refresh", ...): a snapshot filled from
  /// the phase.<x>.ns / phase.<x>.calls slots of counters().
  TimerRegistry timers() const;

  /// Interaction statistics of the last short-range evaluation.
  const tree::InteractionStats& last_stats() const noexcept { return stats_; }

  /// This rank's event tracer / counter registry. step() binds both to the
  /// calling thread, so all instrumented layers (comm, fft, tree, gio)
  /// record here while the simulation runs.
  obs::Tracer& tracer() noexcept { return tracer_; }
  obs::Counters& counters() noexcept { return counters_; }
  /// Per-leaf kernel cost of the latest step (cost_attribution on).
  const obs::CostMap& cost_map() const noexcept { return cost_map_; }
  /// Histogram slots (step.wall_ns, plus anything a driver mirrors in);
  /// together with counters() this is the rank's live /metrics source.
  obs::HistogramSet& histograms() noexcept { return histograms_; }
  const obs::HistogramSet& histograms() const noexcept { return histograms_; }
  /// Drift watchdog state (anomaly totals feed /healthz).
  const obs::Watchdog& watchdog() const noexcept { return watchdog_; }
  /// Mutable access for drivers: the Supervisor notes SDC detections here
  /// so /healthz anomaly totals include them.
  obs::Watchdog& mutable_watchdog() noexcept { return watchdog_; }
  std::uint64_t anomaly_count() const noexcept { return watchdog_.anomalies(); }

  /// The per-step run ledger (populated by run() when config().ledger_path
  /// is set, or explicitly via record_step_ledger()).
  const obs::Ledger& ledger() const noexcept { return ledger_; }
  /// Mutable access for drivers (the Supervisor streams events into it and
  /// re-opens the sink in append mode across recovery attempts).
  obs::Ledger& mutable_ledger() noexcept { return ledger_; }

  /// Reduce this step's telemetry across ranks and append a StepRecord on
  /// rank 0 (no-op record elsewhere). Collective; called by run() after
  /// every step when config().ledger_path is non-empty.
  void record_step_ledger();

  /// Sum of momenta over active particles (collective; conservation checks).
  std::array<double, 3> total_momentum();

  /// Cross-rank state invariants, combined in ONE allreduce: a NaN/inf scan
  /// over active particle state, the global active count against the
  /// configured particle total, the global momentum sum and its drift from
  /// the first recorded value. The Supervisor runs this after every step —
  /// a checkpoint of sick state would poison recovery. Collective;
  /// identical result on every rank.
  struct HealthReport {
    bool finite = true;          ///< no NaN/inf in any active's state
    std::uint64_t active = 0;    ///< global active particle count
    std::uint64_t expected = 0;  ///< configured particles_per_dim^3
    std::array<double, 3> momentum{};
    double momentum_drift = 0;   ///< max |component - first recorded|
    // ---- SDC audit findings, accumulated since the last audited gate and
    // reduced in the SAME allreduce (zeros when the audit is off) ----
    bool audited = false;  ///< this gate falls on the audit cadence
    std::uint64_t checksum_mismatches = 0;  ///< payload-invariance breaks
    std::uint64_t dup_mismatches = 0;  ///< duplicate-execution disagreements
    std::uint64_t dup_samples = 0;     ///< particles re-executed
    double mass_residual = 0;  ///< relative CIC grid-mass error (worst case)
    double kinetic = 0;        ///< global kinetic energy sum p^2 / 2a^2
    double kinetic_jump = 0;   ///< ratio vs previous audited gate (0 = n/a)
    bool counts_ok() const noexcept { return active == expected; }
    /// Healthy under a drift budget (<= 0 disables the drift test).
    bool ok(double max_drift = 0) const noexcept {
      return finite && counts_ok() &&
             (max_drift <= 0 || momentum_drift <= max_drift);
    }
    /// Human-readable diagnosis of what failed ("" when ok()).
    std::string describe(double max_drift = 0) const;
    /// No audit tripped: checksums held, mass conserved, duplicate
    /// execution agreed, kinetic energy within the jump budget. Evaluated
    /// by the Supervisor on audited gates only.
    bool sdc_clean(const AuditConfig& audit) const noexcept {
      return checksum_mismatches == 0 && dup_mismatches == 0 &&
             mass_residual <= audit.mass_rtol &&
             (audit.kinetic_jump <= 0 || kinetic_jump <= 0 ||
              (kinetic_jump <= audit.kinetic_jump &&
               kinetic_jump >= 1.0 / audit.kinetic_jump));
    }
    /// Human-readable diagnosis of the audit findings ("" when clean).
    std::string describe_sdc(const AuditConfig& audit) const;
  };
  HealthReport health_check();

  /// Cosmic energy (Layzer-Irvine) diagnostics over active particles.
  /// kinetic  T = sum p^2 / (2 a^2),
  /// potential W = (1/2) sum Phi(x_i) with Phi = (3/2)(Omega_m/a) phi_c
  /// (PM potential only; the LI monitor T + W + int E (2T + W) dtau is
  /// conserved for PM-only runs — see tests/integration_test.cpp).
  struct EnergyDiagnostics {
    double kinetic = 0;
    double potential = 0;
  };
  EnergyDiagnostics energy();

  /// Checkpoint: one self-describing gio file at `path` (actives only;
  /// replicas are rebuilt on restore), written collectively through
  /// config().io_aggregators writer ranks with per-block CRC64 protection
  /// and an atomic tmp+rename publish. Collective.
  void write_checkpoint(const std::string& path);

  /// Restore from a checkpoint written with the *same configuration but any
  /// rank count*: blocks are read elastically, every CRC is verified (a
  /// corrupt checkpoint is refused with the damaged blocks listed),
  /// particles are redistributed to their domain owners, and the
  /// overloading refresh rebuilds the passive layer. The long-range
  /// acceleration is not checkpointed: the next step() recomputes it.
  /// Also the in-place SDC recovery: on a live machine it restores without
  /// a Machine teardown, and it re-arms the audit window so the restored
  /// state seeds fresh baselines. Collective.
  void read_checkpoint(const std::string& path);

 private:
  /// The first half of the step boundary: migrate(), deposit the migrated
  /// actives into rho_, one PM solve into force_, and interpolate the
  /// acceleration at the actives into particles_.ax/ay/az. Leaves
  /// particles_ holding this rank's actives only.
  void solve_long_range();
  /// The second half: replicate() the actives, acceleration included.
  void replicate();
  /// Kick every particle now in particles_ from its stored acceleration.
  void long_range_kick(double a0, double a1);
  /// Deposit (x, y, z) into `rho` and turn it into the density contrast:
  /// deposit, fold, grid-fault hook, mass audit capture, contrast.
  void deposit_density(mesh::DistGrid& rho, std::span<const float> x,
                       std::span<const float> y, std::span<const float> z);
  void short_range_subcycles(double a0, double a1);
  void apply_short_kick(double coeff);
  void drift(double factor);

  /// Fire any due kFlipParticleMemory specs on this rank: flip the drawn
  /// bits in resident active particle state (the seven payload fields and
  /// the acceleration). Called at the top of step(), before the audit
  /// recomputes the invariance checksum.
  void apply_particle_memory_faults();
  /// The SDC window's checksum: particle_checksum with the actives'
  /// acceleration chained on, in the same id order.
  std::uint64_t window_checksum() const;
  /// Local audit work at the start of a step: memory-fault injection, then
  /// the payload-invariance recompute against the stash.
  void audit_begin_step();
  /// Local audit work at the end of a step: stash the post-refresh
  /// canonical checksum for the next step's window.
  void audit_end_step();
  /// Drop the stash and accumulated findings (initialize, read_checkpoint):
  /// the restored state seeds fresh baselines instead of tripping the window.
  void reset_audit_window();
  /// True when the gate after `step` falls on the audit cadence.
  bool audit_due(int step) const noexcept {
    return config_.audit.cadence > 0 && step > 0 &&
           step % config_.audit.cadence == 0;
  }

  /// counters_ since the previous call, as the ledger's samples: counter
  /// deltas (phase.<x>.ns deltas in seconds; call counts left out) and
  /// gauges' absolute values. Advances the baseline.
  std::vector<std::pair<NameId, double>> ledger_samples();
  /// Publish the cost-map summary gauges into counters_ for a live scrape.
  void publish_cost_gauges();

  /// This rank's actives (replicas stripped) with the gio metadata and
  /// writer config that checkpoints and in-situ catalogs are written with.
  struct ActiveSnapshot {
    tree::ParticleArray actives;
    gio::GlobalMeta meta;
    gio::GioConfig gio;
  };
  ActiveSnapshot active_snapshot() const;

  comm::Comm world_;
  cosmology::Cosmology cosmo_;
  SimulationConfig config_;
  mesh::BlockDecomp3D decomp_;
  std::unique_ptr<OverloadDomain> domain_;
  std::unique_ptr<mesh::PoissonSolver> poisson_;
  // PM grids, solved in place every step. Only in-domain actives touch
  // them, so one ghost layer holds every CIC cloud.
  mesh::DistGrid rho_;
  std::array<mesh::DistGrid, 3> force_;
  // The actives' positions density_contrast() deposits, reused per call.
  std::array<std::vector<float>, 3> active_pos_;
  /// particles_.ax/ay/az hold the acceleration of the current boundary
  /// state (see the header comment).
  bool accel_valid_ = false;
  tree::ShortRangeKernel kernel_;
  tree::ParticleArray particles_;
  float mass_scale_ = 1.0f;
  double a_ = 0.0;
  int steps_taken_ = 0;
  tree::InteractionStats stats_;
  // Scratch short-range force accumulators.
  std::vector<float> sr_ax_, sr_ay_, sr_az_;
  // Resolved kernel variant (config knob, overridable by HACC_KERNEL) and
  // the persistent workspace that keeps the kernel phase allocation-free.
  tree::KernelVariant kernel_variant_ = tree::KernelVariant::kBatched;
  tree::ShortRangeWorkspace sr_workspace_;
  // The duplicate-execution audit's gather, kept so the audit phase
  // allocates nothing in steady state.
  tree::NeighborList audit_list_;
  // Observability: per-rank sinks (phase times live in counters_), the run
  // ledger, and the counter baseline record_step_ledger() differences
  // against.
  obs::Tracer tracer_;
  obs::Counters counters_;
  obs::Ledger ledger_;
  obs::CostMap cost_map_;
  obs::HistogramSet histograms_;
  obs::Watchdog watchdog_;
  std::optional<std::array<double, 3>> momentum0_;
  std::vector<std::uint64_t> prev_counters_;  // indexed by NameId
  // ---- SDC audit state ----
  // Local findings accumulate here between audited gates; health_check()
  // folds them into its allreduce and clears them once a gate on the audit
  // cadence has consumed them.
  struct AuditScratch {
    bool stash_valid = false;    ///< a checksum window is open
    std::uint64_t stash = 0;     ///< canonical checksum at last step end
    double checksum_mismatches = 0;
    double grid_mass = 0;        ///< sum of local interior sums per deposit
    double deposits = 0;         ///< deposits captured (same on all ranks)
    double dup_mismatches = 0;
    double dup_samples = 0;
    bool dup_pending = false;    ///< run duplicate execution this step
  };
  AuditScratch audit_;
  double prev_audit_kinetic_ = 0;  ///< KE at the previous audited gate
};

}  // namespace hacc::core
