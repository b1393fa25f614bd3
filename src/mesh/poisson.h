// The HACC long/medium-range force solver.
//
// "The 'Poisson-solve' in HACC is the composition of all the kernels above
// in one single Fourier transform; each component of the potential field
// gradient then requires an independent FFT." (paper Sec. II)
//
// Pipeline per solve (double precision throughout — the spectral component
// of HACC's mixed-precision scheme), every transform through the solver's
// one BlockFft (mesh/block_fft.h):
//   1. forward: remap the density contrast from blocks to z-pencils and run
//      one real-to-complex pencil FFT (half spectrum),
//   2. multiply by filter (Eq. 5) x sixth-order influence function,
//   3. per axis: multiply by the Super-Lanczos gradient kernel, then one
//      inverse (complex-to-real pencil FFT, remap back to blocks) -> force
//      component grid,
//   4. optionally one more inverse for the potential itself.
//
// The multipliers of steps 2 and 3 depend only on the configuration and the
// rank's spectral box, so the constructor tabulates them once: the composed
// filter x Green's function per local mode, and the gradient kernel per
// local mode index along each axis.
//
// Force convention: the returned grids hold f_i = -d(phi)/dx_i, the
// gravitational acceleration per unit (4 pi G rho_bar a^2 ...) prefactor;
// physical prefactors are folded into the time-stepper's kick factors.
//
// Timing: the solver owns no telemetry sink. solve() times its phases
// "poisson.remap", "poisson.fft" and "poisson.kernel" with obs::PhaseScope
// into whatever obs::Counters (and Tracer) the calling thread has bound —
// Simulation::step() binds its rank's — and records nothing when unbound.
// It is the only caller that names phases to its BlockFft, so other
// spectral work through fft() lands in no poisson.* phase.
#pragma once

#include <array>
#include <vector>

#include "comm/comm.h"
#include "mesh/block_fft.h"
#include "mesh/grid.h"
#include "mesh/kernels.h"

namespace hacc::mesh {

class PoissonSolver {
 public:
  /// Collective over `world` (creates the pencil FFT's sub-communicators).
  /// `decomp` is the particle sector's block decomposition; the FFT pencil
  /// grid is chosen automatically.
  PoissonSolver(comm::Comm& world, const BlockDecomp3D& decomp,
                SpectralConfig config = {});

  /// The solver's block <-> half-spectrum transform. Other spectral work on
  /// the same decomposition (the in-situ P(k)) reuses it between solves.
  BlockFft& fft() noexcept { return fft_; }

  /// Solve for the force grids given the density-contrast grid `delta`
  /// (interior must be valid; ghosts ignored). Fills the interiors of
  /// forces[0..2] and zeroes their ghosts; callers fill_ghosts() before
  /// interpolating at particles near the domain edge. If `phi` is
  /// non-null, also returns the potential.
  /// Collective over the world communicator passed at construction.
  void solve(comm::Comm& world, const DistGrid& delta,
             std::array<DistGrid, 3>& forces, DistGrid* phi = nullptr);

 private:
  BlockFft fft_;
  // Persistent solve workspace: reused across solves so the spectral path
  // performs no steady-state allocations beyond the remap exchanges.
  std::vector<fft::Complex> spectrum_, component_;
  // Spectral tables over this rank's half-spectrum box (built once):
  // filter x Green's function per mode, in spectrum order, and
  // -gradient_multiplier per mode index along each axis.
  std::vector<double> green_filter_;
  std::array<std::vector<fft::Complex>, 3> gradient_;
};

}  // namespace hacc::mesh
