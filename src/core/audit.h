// Algorithm-based fault tolerance (ABFT) audits for silent data corruption.
//
// The crash-tolerance stack (supervised checkpoint-restart, payload
// checksums, storage CRCs) only defends against *loud* failures. At the
// paper's scale — ~1.5M BG/Q cores for weeks — undetected memory/FPU bit
// flips are a statistical certainty, and a flip in resident particle or
// mesh memory is silently computed on, silently checkpointed
// (verify_after_write checks bytes, not physics), and silently served.
// This module supplies the *detection* half of the SDC defense:
//
//   * payload-invariance checksum — a canonical-order FNV-1a over each
//     rank's active particle payloads, with their long-range acceleration
//     chained on, stashed at the end of every step (after the overload
//     exchange) and recomputed at the start of the next, before any physics
//     touches the state. The inter-step window is idle by construction, so
//     any difference is memory corruption — every bit of every resident
//     field is covered, exactly.
//   * CIC mass conservation — the deposit is a partition of unity, so the
//     global grid sum must equal the global active count to within float
//     deposit rounding. Catches grid-resident corruption the particle
//     checksum cannot see.
//   * energy drift tracker — the global kinetic energy is compared across
//     audited steps; a jump beyond a generous factor flags exponent-scale
//     velocity corruption that momentum sums can cancel away.
//   * sampled duplicate execution — a few randomly chosen leaves of the
//     short-range partition (RCB leaves, or chaining-mesh cells for P3M)
//     are re-run through the scalar reference kernel against a freshly
//     gathered neighbor list and compared with the accumulated short-range
//     forces within tolerance. Catches FPU/accumulator corruption inside
//     the force phase itself, for every HACC_KERNEL variant and solver.
//
// All findings are *local accumulations*: Simulation::health_check() folds
// them into its existing single allreduce, so the whole audit suite adds
// zero collectives to a gated step. The Supervisor evaluates the reduced
// verdict on the audit cadence and responds with the in-place rollback
// ladder (see core/supervisor.h).
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "tree/force_kernel.h"
#include "tree/leaf_partition.h"
#include "tree/particles.h"

namespace hacc::core {

/// Knobs of the ABFT audit suite (SimulationConfig::audit).
struct AuditConfig {
  /// Steps between full audit evaluations at the health gate; 0 disables
  /// the whole suite. The checksum window and the cheap local captures run
  /// every step regardless (they must — the invariance window is
  /// per-step); the cadence controls duplicate execution and when the
  /// Supervisor *acts* on accumulated findings.
  int cadence = 1;
  bool checksum = true;        ///< payload-invariance FNV-1a window
  bool duplicate_execution = true;
  /// Leaves re-executed through the scalar kernel per audited step.
  int sample_leaves = 2;
  /// Relative tolerance on |grid sum - active count| / active count. CIC
  /// partition-of-unity rounding is ~1e-9 relative at test sizes (float
  /// weight error ~1e-7 per particle, accumulating as sqrt(N)); 1e-6
  /// leaves two decades of margin while catching any flip of a high
  /// mantissa / exponent / sign bit of a grid double.
  double mass_rtol = 1e-6;
  /// Kinetic-energy ratio between audited steps beyond which the state is
  /// declared corrupt (checked both ways; <= 0 disables). Physical KE
  /// evolves by a few percent per step, so 10x only fires on
  /// exponent-scale damage.
  double kinetic_jump = 10.0;
  /// Duplicate-execution comparison: mismatch when
  /// |recomputed - stored| > dup_atol + dup_rtol * max(|recomputed|,
  /// |stored|). The batched and scalar kernels agree to ~3e-6 relative
  /// (tests/kernel), so 1e-3 is two-plus decades of margin; the absolute
  /// floor absorbs summation-order noise on cancellation-dominated
  /// components.
  float dup_rtol = 1e-3f;
  float dup_atol = 1e-4f;
  /// Philox seed for the leaf-sampling draws (keyed further by step).
  std::uint64_t seed = 0x5DCau;
};

/// Canonical-order FNV-1a checksum over the *active* particle payloads
/// (x, y, z, vx, vy, vz, mass, id). Actives are hashed in ascending-id
/// order — ids are unique among actives — so the value is independent of
/// the array's arrival/removal permutation and comparable across the
/// overload exchanges a refresh performs. `assume_id_sorted` skips the
/// O(n log n) ordering pass when the array is already in canonical order
/// (SimulationConfig::canonical_order keeps it so at every refresh).
std::uint64_t particle_checksum(const tree::ParticleArray& particles,
                                bool assume_id_sorted = false);

/// FNV-1a over the actives' long-range acceleration (ax, ay, az), in the
/// same canonical order as particle_checksum, folded onto `h`. Chained onto
/// particle_checksum it brings the acceleration a simulation keeps across
/// the step boundary into the SDC window.
std::uint64_t acceleration_checksum(const tree::ParticleArray& particles,
                                    std::uint64_t h,
                                    bool assume_id_sorted = false);

/// Outcome of one sampled duplicate-execution audit.
struct DuplicateExecutionResult {
  std::size_t sampled_leaves = 0;
  std::size_t checked = 0;     ///< particles re-executed and compared
  std::size_t mismatches = 0;  ///< particles disagreeing beyond tolerance
  /// First disagreement, for the ledger ("" when clean).
  std::string detail;
};

/// Re-run `config.sample_leaves` seeded-random leaves of `partition`
/// through the scalar reference kernel (fresh neighbor gather,
/// evaluate_neighbor_list) and compare against the accumulated short-range
/// forces ax/ay/az (indexed like the permuted particle array). `draw_key`
/// (e.g. the step number) varies the sample across calls while keeping it
/// reproducible. The oracle runs over the whole gathered list, not the
/// kernel's culled sub-leaf lists, so it also checks that the cull dropped
/// no pair inside the cutoff. `scratch` (optional) holds the gather: a
/// caller that keeps one across calls makes the audit allocation-free in
/// steady state.
DuplicateExecutionResult duplicate_execution_check(
    const tree::LeafPartition& partition, const tree::ShortRangeKernel& kernel,
    std::span<const float> ax, std::span<const float> ay,
    std::span<const float> az, float mass_scale, const AuditConfig& config,
    std::uint64_t draw_key, tree::NeighborList* scratch = nullptr);

}  // namespace hacc::core
