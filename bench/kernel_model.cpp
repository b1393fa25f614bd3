// Sec. III / IV-B single-node performance accounting.
//
// Prints the paper's instruction-level kernel claims next to the model and
// to measurements of the portable kernel:
//   * 26 instructions / 16 FMAs -> 168 of a possible 208 flops (81%);
//   * FPU/FXU mix 56.10/43.90 -> 1.783 instr/cycle max, 1.508 achieved (85%);
//   * node counters: 142.32 / 204.8 GFlops = 69.5% of peak;
//   * phase mix: 80% kernel / 10% walk / 5% FFT / 5% other,
// and, measured here, the phase mix of a real small PPTreePM run.
#include <cstdio>

#include "comm/comm.h"
#include "core/simulation.h"
#include "perfmodel/bgq_machine.h"
#include "perfmodel/kernel_model.h"
#include "perfmodel/scaling_model.h"

int main() {
  using namespace hacc;
  using namespace hacc::perfmodel;

  std::printf("=== Sec. III/IV-B: kernel & node performance accounting ===\n\n");

  const KernelInstructionMix mix;
  std::printf("kernel instruction model:\n");
  std::printf("  instructions/iteration:    %d (paper: 26)\n",
              mix.instructions);
  std::printf("  FMAs:                      %d (paper: 16)\n", mix.fma);
  std::printf("  flops/iteration:           %d (paper: 168 = 40 + 128)\n",
              mix.flops_per_iteration());
  std::printf("  max flops/iteration:       %d (paper: 208)\n",
              mix.max_flops_per_iteration());
  std::printf("  theoretical peak fraction: %.3f (paper: 0.81)\n",
              mix.theoretical_peak_fraction());
  std::printf("  flops/interaction:         %.0f\n\n",
              mix.flops_per_interaction());

  const IssueModel issue;
  std::printf("instruction-issue model (96-rack run):\n");
  std::printf("  FPU fraction:        %.4f (paper: 0.5610)\n",
              issue.fpu_fraction);
  std::printf("  max instr/cycle:     %.3f (paper: 1.783)\n",
              issue.max_issue());
  std::printf("  achieved / possible: %.2f (paper: 0.85)\n\n",
              issue.issue_efficiency());

  const double kernel_peak = kernel_peak_fraction(4, 16, 1500.0);
  const double full = full_code_peak_fraction(PhaseMix{}.kernel, kernel_peak);
  std::printf("node composition at the 16 ranks / 4 threads point:\n");
  std::printf("  kernel fraction of peak:   %.3f (paper: ~0.80)\n",
              kernel_peak);
  std::printf("  full-code fraction:        %.3f (paper counters: 142.32 / "
              "204.8 = 0.695)\n",
              full);
  std::printf("  modeled node GFlops:       %.1f (paper: 142.32)\n\n",
              full * BqcChip::peak_gflops_node());

  // Measured phase mix of a real (small) PPTreePM run on this host.
  std::printf("measured phase mix (SimMPI, 24^3 particles, 2 ranks; paper: "
              "80/10/5/5):\n");
  cosmology::Cosmology cosmo;
  core::SimulationConfig cfg;
  cfg.grid = 24;
  cfg.particles_per_dim = 24;
  cfg.box_mpch = 24.0;  // clustered quickly -> realistic kernel share
  cfg.z_initial = 30.0;
  cfg.z_final = 2.0;
  cfg.steps = 4;
  cfg.subcycles = 4;
  cfg.overload = 4.0;
  cfg.solver = core::ShortRangeSolver::kTreePP;
  comm::Machine::run(2, [&](comm::Comm& world) {
    core::Simulation sim(world, cosmo, cfg);
    sim.initialize();
    sim.run();
    if (world.rank() == 0) {
      for (const auto& row : sim.timers().report()) {
        std::printf("  %-14s %6.2fs  (%4.1f%%)\n", row.name.c_str(),
                    row.seconds, 100.0 * row.fraction);
      }
      // The paper's list size is the fat leaf's shared list; the kernel
      // runs each sub-leaf against that list culled to its box + r_cut.
      const tree::InteractionStats& st = sim.last_stats();
      std::printf("  mean neighbor-list size of final step: %.0f listed "
                  "(paper: ~500-2500), %.0f fed to the kernel\n",
                  st.particles ? static_cast<double>(st.listed) /
                                     static_cast<double>(st.particles)
                               : 0.0,
                  st.mean_neighbors());
    }
  });
  return 0;
}
