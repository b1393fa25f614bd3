#include "mesh/poisson.h"

#include <vector>

#include "obs/obs.h"

namespace hacc::mesh {

namespace {
// Pre-interned phase ids: solve() is called every long-range step, so the
// phase scopes must not re-intern (hash + lock) per call.
const obs::PhaseIds kPhaseRemap = obs::phase_ids("poisson.remap");
const obs::PhaseIds kPhaseFft = obs::phase_ids("poisson.fft");
const obs::PhaseIds kPhaseKernel = obs::phase_ids("poisson.kernel");
}  // namespace

PoissonSolver::PoissonSolver(comm::Comm& world, const BlockDecomp3D& decomp,
                             SpectralConfig config)
    : decomp_(decomp), config_(config) {
  const auto& dims = decomp.grid_dims();
  fft_ = std::make_unique<fft::PencilFft3D>(
      fft::PencilFft3D::balanced(world, dims[0], dims[1], dims[2]));
  // Layout tables for the block <-> z-pencil remap.
  std::vector<fft::Box3D> block_boxes, pencil_boxes;
  const int p = world.size();
  const int p1 = fft_->p1(), p2 = fft_->p2();
  for (int r = 0; r < p; ++r) {
    block_boxes.push_back(decomp.box_of(r));
    const int q1 = r / p2, q2 = r % p2;
    pencil_boxes.push_back(fft::Box3D{fft::block_range(dims[0], p1, q1),
                                      fft::block_range(dims[1], p2, q2),
                                      fft::Range{0, dims[2]}});
  }
  remap_ = std::make_unique<Redistributor>(std::move(block_boxes),
                                           std::move(pencil_boxes));

  // Spectral tables over this rank's half-spectrum box, equal to the bit
  // to the per-mode kernels (kernels.h).
  const fft::Box3D sb = fft_->spectral_box_r2c();
  const std::array<std::size_t, 3> lo{sb.x.lo, sb.y.lo, sb.z.lo};
  const std::array<std::size_t, 3> hi{sb.x.hi, sb.y.hi, sb.z.hi};
  green_filter_ = green_filter_table(dims, lo, hi, config_);
  for (std::size_t axis = 0; axis < 3; ++axis) {
    // f = -grad(phi): note the minus sign.
    for (std::size_t m = lo[axis]; m < hi[axis]; ++m)
      gradient_[axis].push_back(-gradient_multiplier(
          wavenumber(m, dims[axis]), config_.gradient));
  }
}

void PoissonSolver::solve(comm::Comm& world, const DistGrid& delta,
                          std::array<DistGrid, 3>& forces, DistGrid* phi) {
  const auto& box = delta.interior();

  // Pack the interior (strip ghosts) and remap to the z-pencil layout. The
  // pencil field stays real all the way into the FFT (r2c path).
  {
    obs::PhaseScope scope(kPhaseRemap);
    const auto ex = static_cast<std::ptrdiff_t>(box.x.extent());
    const auto ey = static_cast<std::ptrdiff_t>(box.y.extent());
    const auto ez = static_cast<std::ptrdiff_t>(box.z.extent());
    interior_.resize(box.volume());
    std::size_t idx = 0;
    for (std::ptrdiff_t i = 0; i < ex; ++i)
      for (std::ptrdiff_t j = 0; j < ey; ++j)
        for (std::ptrdiff_t k = 0; k < ez; ++k)
          interior_[idx++] = delta.at(i, j, k);
    interior_ = remap_->forward(world, interior_);
  }

  // One real-to-complex forward FFT of the density: the input is real, so
  // the z half-spectrum carries all information.
  const fft::Box3D sb = fft_->spectral_box_r2c();
  {
    obs::PhaseScope scope(kPhaseFft);
    fft_->forward_r2c(std::span<const double>(interior_), spectrum_);
  }

  // Filter x Green's function, from the table.
  {
    obs::PhaseScope scope(kPhaseKernel);
    HACC_CHECK(spectrum_.size() == green_filter_.size());
    for (std::size_t idx = 0; idx < spectrum_.size(); ++idx)
      spectrum_[idx] *= green_filter_[idx];
  }

  // Per-axis gradient: independent inverse FFT + remap back to blocks.
  auto store_to_grid = [&](const std::vector<double>& block_data,
                           DistGrid& grid) {
    const auto& b = grid.interior();
    const auto ex = static_cast<std::ptrdiff_t>(b.x.extent());
    const auto ey = static_cast<std::ptrdiff_t>(b.y.extent());
    const auto ez = static_cast<std::ptrdiff_t>(b.z.extent());
    grid.fill(0.0);
    std::size_t idx = 0;
    for (std::ptrdiff_t i = 0; i < ex; ++i)
      for (std::ptrdiff_t j = 0; j < ey; ++j)
        for (std::ptrdiff_t k = 0; k < ez; ++k)
          grid.at(i, j, k) = block_data[idx++];
  };

  auto inverse_to_real = [&]() {
    obs::PhaseScope scope(kPhaseFft);
    fft_->inverse_c2r(component_, real_out_);
  };

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
            component_[idx] =
                spectrum_[idx] * g[axis == 0 ? ix : axis == 1 ? iy : iz];
    }
    inverse_to_real();
    {
      obs::PhaseScope scope(kPhaseRemap);
      store_to_grid(remap_->backward(world, real_out_),
                    forces[static_cast<std::size_t>(axis)]);
    }
  }

  if (phi != nullptr) {
    component_ = spectrum_;
    inverse_to_real();
    obs::PhaseScope scope(kPhaseRemap);
    store_to_grid(remap_->backward(world, real_out_), *phi);
  }
}

}  // namespace hacc::mesh
