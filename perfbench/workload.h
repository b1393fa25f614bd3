// The benchmark's three workloads and the simulation configuration each one
// runs. Why each workload exists is written down in README.md.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>

#include "core/simulation.h"

namespace perfbench {

inline constexpr int kSteps = 10;      ///< long-range steps, z 50 -> 0
inline constexpr int kSubcycles = 5;   ///< short-range sub-cycles per step
inline constexpr double kBoxMpch = 64.0;
inline constexpr double kZInitial = 50.0;
inline constexpr double kZFinal = 0.0;
/// Overload depth in Mpc/h, the same physical depth on every grid: with 4
/// grid units on the 128^3 grid (2 Mpc/h) a fast late-time particle can
/// outrun the ghost layer within one step and trip DistGrid's bounds check.
inline constexpr double kOverloadMpch = 4.0;

struct Workload {
  const char* name;
  int ranks;    ///< SimMPI rank threads
  int threads;  ///< OpenMP team size inside each rank
  std::size_t particles_per_dim;
  std::size_t grid;
  hacc::core::ShortRangeSolver solver;
  /// Production-shaped: driven by core::Supervisor with a verified
  /// checkpoint, in-situ catalogs, audits and the ledger every step.
  bool supervised;
  /// Nominal wall of one trajectory (set-up + steps) on a 4-core host, with
  /// the run's fixed tail spread over it: an untraced run of --seconds
  /// steps round(seconds / this) realizations.
  double trajectory_s;
  int steps = kSteps;  ///< long-range steps over z 50 -> 0
};

inline constexpr Workload kWorkloads[] = {
    {"tree-clustered", 2, 2, 64, 64, hacc::core::ShortRangeSolver::kTreePP,
     false, 25.0},
    {"pm-long-range", 4, 1, 64, 128, hacc::core::ShortRangeSolver::kNone,
     false, 25.0},
    {"insitu-checkpoint", 4, 1, 48, 64,
     hacc::core::ShortRangeSolver::kTreePP, true, 10.0},
};

/// The same workload at a size that runs in seconds (the self-test).
inline Workload smoke(Workload w) {
  // Grid 24 keeps the restore width's blocks wider than the ghost layer.
  w.particles_per_dim /= 4;
  w.grid = std::max<std::size_t>(w.grid / 4, 24);
  return w;
}

/// Ranks x threads of the elastic restore, on the launch's cores at another
/// width: one rank fewer, or, for a workload that threads its ranks, one
/// single-threaded rank per core.
inline Workload restore_shape(Workload w) {
  if (w.threads > 1) {
    w.ranks *= w.threads;
    w.threads = 1;
  } else {
    w.ranks = std::max(1, w.ranks - 1);
  }
  return w;
}

inline double particle_count(const Workload& w) {
  return std::pow(static_cast<double>(w.particles_per_dim), 3);
}

/// The run's configuration. Everything not set here is the library
/// default, including audits at cadence 1.
inline hacc::core::SimulationConfig make_config(const Workload& w,
                                                std::uint64_t seed,
                                                const std::string& out_dir) {
  hacc::core::SimulationConfig cfg;
  cfg.grid = w.grid;
  cfg.particles_per_dim = w.particles_per_dim;
  cfg.box_mpch = kBoxMpch;
  cfg.z_initial = kZInitial;
  cfg.z_final = kZFinal;
  cfg.steps = w.steps;
  cfg.subcycles = kSubcycles;
  cfg.solver = w.solver;
  cfg.overload = kOverloadMpch * static_cast<double>(w.grid) / kBoxMpch;
  cfg.seed = seed;
  cfg.insitu.output_dir = out_dir + "/catalogs";
  if (w.supervised) {
    cfg.insitu.cadence = 1;
    cfg.ledger_path = out_dir + "/ledger.jsonl";
  }
  return cfg;
}

}  // namespace perfbench
