#include "mesh/poisson.h"

#include <vector>

#include "obs/obs.h"

namespace hacc::mesh {

namespace {
// Pre-interned phase ids: solve() is called every long-range step, so the
// phase scopes must not re-intern (hash + lock) per call.
const BlockFft::Phases kPhases{obs::phase_ids("poisson.remap"),
                               obs::phase_ids("poisson.fft")};
const obs::PhaseIds kPhaseKernel = obs::phase_ids("poisson.kernel");
}  // namespace

PoissonSolver::PoissonSolver(comm::Comm& world, const BlockDecomp3D& decomp,
                             SpectralConfig config)
    : fft_(world, decomp) {
  // Spectral tables over this rank's half-spectrum box, equal to the bit
  // to the per-mode kernels (kernels.h).
  const auto& dims = decomp.grid_dims();
  const fft::Box3D& sb = fft_.modes();
  const std::array<std::size_t, 3> lo{sb.x.lo, sb.y.lo, sb.z.lo};
  const std::array<std::size_t, 3> hi{sb.x.hi, sb.y.hi, sb.z.hi};
  green_filter_ = green_filter_table(dims, lo, hi, config);
  for (std::size_t axis = 0; axis < 3; ++axis) {
    // f = -grad(phi): note the minus sign.
    for (std::size_t m = lo[axis]; m < hi[axis]; ++m)
      gradient_[axis].push_back(-gradient_multiplier(
          wavenumber(m, dims[axis]), config.gradient));
  }
}

void PoissonSolver::solve(comm::Comm& world, const DistGrid& delta,
                          std::array<DistGrid, 3>& forces, DistGrid* phi) {
  // One real-to-complex forward FFT of the density: the input is real, so
  // the z half-spectrum carries all information.
  fft_.forward(world, delta, spectrum_, &kPhases);
  HACC_CHECK(spectrum_.size() == green_filter_.size());

  // Per-axis gradient: independent inverse FFT + remap back to blocks. Each
  // multiply folds in filter x Green's function, so spectrum_ keeps delta(k).
  const fft::Box3D& sb = fft_.modes();
  for (int axis = 0; axis < 3; ++axis) {
    {
      obs::PhaseScope scope(kPhaseKernel);
      // The gradient multiplier depends on one wavenumber only: the 1-D
      // table of this axis, indexed by the mode's offset along it.
      const auto& g = gradient_[static_cast<std::size_t>(axis)];
      const std::size_t ny = sb.y.extent(), nz = sb.z.extent();
      component_.resize(spectrum_.size());
      std::size_t idx = 0;
      for (std::size_t ix = 0; ix < sb.x.extent(); ++ix)
        for (std::size_t iy = 0; iy < ny; ++iy)
          for (std::size_t iz = 0; iz < nz; ++iz, ++idx)
            component_[idx] = (spectrum_[idx] * green_filter_[idx]) *
                              g[axis == 0 ? ix : axis == 1 ? iy : iz];
    }
    fft_.inverse(world, component_, forces[static_cast<std::size_t>(axis)],
                 &kPhases);
  }

  if (phi != nullptr) {
    {
      obs::PhaseScope scope(kPhaseKernel);
      component_.resize(spectrum_.size());
      for (std::size_t idx = 0; idx < spectrum_.size(); ++idx)
        component_[idx] = spectrum_[idx] * green_filter_[idx];
    }
    fft_.inverse(world, component_, *phi, &kPhases);
  }
}

}  // namespace hacc::mesh
