#include "cosmology/analysis.h"

#include <cmath>
#include <numbers>

#include "util/error.h"

namespace hacc::cosmology {

namespace {
double periodic_delta(double d, double box) {
  if (d > 0.5 * box) return d - box;
  if (d < -0.5 * box) return d + box;
  return d;
}
}  // namespace

std::vector<ProfileBin> halo_profile(const tree::ParticleArray& p,
                                     const Halo& halo, double box,
                                     double rmax, std::size_t bins) {
  HACC_CHECK(bins >= 2 && rmax > 0 && box > 0);
  std::vector<double> mass(bins, 0.0);
  std::vector<std::size_t> counts(bins, 0);
  // Profile over ALL particles (not just FOF members): the outskirts
  // beyond the linking surface are part of the profile.
  for (std::size_t i = 0; i < p.size(); ++i) {
    const double dx = periodic_delta(p.x[i] - halo.center[0], box);
    const double dy = periodic_delta(p.y[i] - halo.center[1], box);
    const double dz = periodic_delta(p.z[i] - halo.center[2], box);
    const double r = std::sqrt(dx * dx + dy * dy + dz * dz);
    if (r >= rmax) continue;
    const auto b = static_cast<std::size_t>(r / rmax *
                                            static_cast<double>(bins));
    const std::size_t bi = b >= bins ? bins - 1 : b;
    mass[bi] += p.mass[i];
    ++counts[bi];
  }
  std::vector<ProfileBin> out(bins);
  for (std::size_t b = 0; b < bins; ++b) {
    const double r0 = rmax * static_cast<double>(b) / static_cast<double>(bins);
    const double r1 =
        rmax * static_cast<double>(b + 1) / static_cast<double>(bins);
    const double vol =
        4.0 / 3.0 * std::numbers::pi * (r1 * r1 * r1 - r0 * r0 * r0);
    out[b].r = 0.5 * (r0 + r1);
    out[b].density = mass[b] / vol;
    out[b].count = counts[b];
  }
  return out;
}

std::vector<CorrelationBin> measure_correlation_function(
    comm::Comm& world, mesh::BlockFft& fft, const mesh::DistGrid& delta,
    double box_mpch, std::size_t bins) {
  HACC_CHECK(bins >= 2);
  const auto& dims = fft.decomp().grid_dims();
  HACC_CHECK(dims[0] == dims[1] && dims[1] == dims[2]);
  const std::size_t n = dims[0];
  const double cell = box_mpch / static_cast<double>(n);

  // delta -> |delta_k|^2 (real and Hermitian) -> inverse: each lag cell then
  // holds sum_x delta(x) delta(x + r). The lag grid has no ghosts, so its
  // storage is its interior in row-major order.
  std::vector<fft::Complex> spec;
  fft.forward(world, delta, spec);
  for (auto& v : spec) v = fft::Complex(std::norm(v), 0.0);
  mesh::DistGrid lag(fft.decomp(), world.rank(), 0);
  fft.inverse(world, spec, lag);

  // Bin by periodic lag radius over this rank's block.
  const fft::Box3D& b = lag.interior();
  const double ncells = static_cast<double>(n) * static_cast<double>(n) *
                        static_cast<double>(n);
  const double rmax = 0.5 * box_mpch;
  std::vector<double> xsum(bins, 0.0);
  std::vector<long long> counts(bins, 0);
  std::size_t idx = 0;
  for (std::size_t x = b.x.lo; x < b.x.hi; ++x) {
    const double lx =
        periodic_delta(static_cast<double>(x) * cell, box_mpch);
    for (std::size_t y = b.y.lo; y < b.y.hi; ++y) {
      const double ly =
          periodic_delta(static_cast<double>(y) * cell, box_mpch);
      for (std::size_t z = b.z.lo; z < b.z.hi; ++z, ++idx) {
        const double lz =
            periodic_delta(static_cast<double>(z) * cell, box_mpch);
        const double r = std::sqrt(lx * lx + ly * ly + lz * lz);
        if (r >= rmax) continue;
        const auto bi = static_cast<std::size_t>(
            r / rmax * static_cast<double>(bins));
        const std::size_t bb = bi >= bins ? bins - 1 : bi;
        xsum[bb] += lag.data()[idx] / ncells;  // normalize the correlation
        ++counts[bb];
      }
    }
  }
  world.allreduce(std::span<double>(xsum), comm::ReduceOp::kSum);
  world.allreduce(std::span<long long>(counts), comm::ReduceOp::kSum);

  std::vector<CorrelationBin> out;
  for (std::size_t bi = 0; bi < bins; ++bi) {
    if (counts[bi] == 0) continue;
    CorrelationBin cb;
    cb.r = (static_cast<double>(bi) + 0.5) * rmax / static_cast<double>(bins);
    cb.xi = xsum[bi] / static_cast<double>(counts[bi]);
    cb.cells = static_cast<std::size_t>(counts[bi]);
    out.push_back(cb);
  }
  return out;
}

double sigma_of_mass(const LinearPower& power, double m) {
  // Mean comoving matter density [Msun/h / (Mpc/h)^3].
  const double rho_crit = 2.775e11;
  const double rho_m = rho_crit * power.cosmology().omega_m;
  const double radius =
      std::cbrt(3.0 * m / (4.0 * std::numbers::pi * rho_m));
  return sigma_r(power, radius);
}

double press_schechter_dndlnm(const LinearPower& power, double z, double m) {
  const double rho_crit = 2.775e11;
  const double rho_m = rho_crit * power.cosmology().omega_m;
  const double delta_c = 1.686;
  const double growth =
      power.cosmology().growth_factor(Cosmology::a_of_z(z));
  const double sigma = sigma_of_mass(power, m) * growth;
  // dln(sigma)/dlnM by central difference.
  const double eps = 0.02;
  const double s_hi = sigma_of_mass(power, m * (1.0 + eps));
  const double s_lo = sigma_of_mass(power, m * (1.0 - eps));
  const double dlns_dlnm =
      (std::log(s_hi) - std::log(s_lo)) / (2.0 * std::log1p(eps));
  const double nu = delta_c / sigma;
  return std::sqrt(2.0 / std::numbers::pi) * rho_m / m * nu *
         std::abs(dlns_dlnm) * std::exp(-0.5 * nu * nu);
}

}  // namespace hacc::cosmology
