#include "cosmology/power_spectrum.h"

#include <cmath>
#include <numbers>

#include "mesh/kernels.h"
#include "util/error.h"

namespace hacc::cosmology {

LinearPower::LinearPower(const Cosmology& cosmo, TransferFunction tf)
    : cosmo_(cosmo), tf_(tf) {
  // Normalize to sigma8 with a self-referential two-pass: compute sigma(8)
  // with norm 1, then rescale.
  norm_ = 1.0;
  const double s8 = sigma_r(*this, 8.0);
  HACC_CHECK(s8 > 0.0);
  norm_ = (cosmo_.sigma8 * cosmo_.sigma8) / (s8 * s8);
}

double LinearPower::transfer(double k) const {
  if (k <= 0.0) return 1.0;
  switch (tf_) {
    case TransferFunction::kBbks: {
      // BBKS (1986) with the Sugiyama (1995) shape parameter.
      const double gamma =
          cosmo_.omega_m * cosmo_.h *
          std::exp(-cosmo_.omega_b * (1.0 + std::sqrt(2.0 * cosmo_.h) /
                                                cosmo_.omega_m));
      const double q = k / (gamma);
      return std::log(1.0 + 2.34 * q) / (2.34 * q) *
             std::pow(1.0 + 3.89 * q + std::pow(16.1 * q, 2) +
                          std::pow(5.46 * q, 3) + std::pow(6.71 * q, 4),
                      -0.25);
    }
    case TransferFunction::kEisensteinHu: {
      // Eisenstein & Hu (1998), zero-baryon ("no-wiggle") shape fit.
      const double om = cosmo_.omega_m, ob = cosmo_.omega_b, h = cosmo_.h;
      const double theta = 2.728 / 2.7;  // CMB temperature ratio
      const double om_h2 = om * h * h;
      const double s =
          44.5 * std::log(9.83 / om_h2) /
          std::sqrt(1.0 + 10.0 * std::pow(ob * h * h, 0.75));  // sound horizon
      const double alpha =
          1.0 - 0.328 * std::log(431.0 * om_h2) * (ob / om) +
          0.38 * std::log(22.3 * om_h2) * (ob / om) * (ob / om);
      const double gamma_eff =
          om * h *
          (alpha + (1.0 - alpha) / (1.0 + std::pow(0.43 * k * s * h, 4)));
      const double q = k * theta * theta / gamma_eff;
      const double l0 = std::log(2.0 * std::numbers::e + 1.8 * q);
      const double c0 = 14.2 + 731.0 / (1.0 + 62.5 * q);
      return l0 / (l0 + c0 * q * q);
    }
  }
  return 1.0;
}

double LinearPower::unnormalized(double k) const {
  const double t = transfer(k);
  return std::pow(k, cosmo_.n_s) * t * t;
}

double LinearPower::operator()(double k) const {
  if (k <= 0.0) return 0.0;
  return norm_ * unnormalized(k);
}

double LinearPower::at_redshift(double k, double z) const {
  const double d = cosmo_.growth_factor(Cosmology::a_of_z(z));
  return (*this)(k)*d * d;
}

namespace {
struct SigmaCtx {
  const LinearPower* power;
  double radius;
};
double sigma_integrand(double lnk, const void* ctx) {
  const auto& c = *static_cast<const SigmaCtx*>(ctx);
  const double k = std::exp(lnk);
  const double kr = k * c.radius;
  // Top-hat window.
  double w;
  if (kr < 1e-3) {
    w = 1.0 - kr * kr / 10.0;
  } else {
    w = 3.0 * (std::sin(kr) - kr * std::cos(kr)) / (kr * kr * kr);
  }
  // d sigma^2 / d ln k = k^3 P(k) W^2 / (2 pi^2)
  return k * k * k * (*c.power)(k)*w * w /
         (2.0 * std::numbers::pi * std::numbers::pi);
}
}  // namespace

double sigma_r(const LinearPower& power, double radius) {
  const SigmaCtx ctx{&power, radius};
  const double s2 = integrate(std::log(1e-5), std::log(1e3), sigma_integrand,
                              &ctx, 4096);
  return std::sqrt(s2);
}

std::vector<PowerBin> measure_power_spectrum(
    comm::Comm& world, const mesh::BlockFft& fft,
    std::span<const fft::Complex> spectrum, double box_mpch,
    std::size_t bins, bool deconvolve_cic) {
  HACC_CHECK(bins >= 2);
  const auto& dims = fft.decomp().grid_dims();
  HACC_CHECK_MSG(dims[0] == dims[1] && dims[1] == dims[2],
                 "P(k) estimator expects a cubic grid");
  const fft::Box3D& sb = fft.modes();
  HACC_CHECK_MSG(spectrum.size() == sb.volume(),
                 "P(k) estimator: the spectrum does not cover fft.modes()");
  const std::size_t n = dims[0];
  const double kf = 2.0 * std::numbers::pi / box_mpch;  // fundamental mode
  const double k_nyq = kf * static_cast<double>(n) / 2.0;

  // Bin |delta(k)|^2 over this rank's half spectrum; each mode also stands
  // for its Hermitian mirror, which has the same |k|, power and window.
  std::vector<double> psum(bins, 0.0), ksum(bins, 0.0);
  std::vector<long long> counts(bins, 0);
  std::size_t idx = 0;
  for (std::size_t mx = sb.x.lo; mx < sb.x.hi; ++mx) {
    const long sx = mesh::signed_mode(mx, n);
    for (std::size_t my = sb.y.lo; my < sb.y.hi; ++my) {
      const long sy = mesh::signed_mode(my, n);
      for (std::size_t mz = sb.z.lo; mz < sb.z.hi; ++mz, ++idx) {
        const long sz = mesh::signed_mode(mz, n);
        if (sx == 0 && sy == 0 && sz == 0) continue;
        const double kmag =
            kf * std::sqrt(static_cast<double>(sx * sx + sy * sy + sz * sz));
        if (kmag > k_nyq) continue;
        double p = std::norm(spectrum[idx]);
        if (deconvolve_cic) {
          auto w1 = [&](long m) {
            const double u = std::numbers::pi * static_cast<double>(m) /
                             static_cast<double>(n);
            return std::abs(u) < 1e-12 ? 1.0 : std::sin(u) / u;
          };
          const double w = w1(sx) * w1(sy) * w1(sz);
          const double w2 = w * w;
          p /= (w2 * w2);  // CIC window is sinc^2 per axis
        }
        const auto bin = static_cast<std::size_t>(kmag / k_nyq *
                                                  static_cast<double>(bins));
        const std::size_t bi = bin >= bins ? bins - 1 : bin;
        const int mult = fft.multiplicity(mz);
        psum[bi] += mult * p;
        ksum[bi] += mult * kmag;
        counts[bi] += mult;
      }
    }
  }
  world.allreduce(std::span<double>(psum), comm::ReduceOp::kSum);
  world.allreduce(std::span<double>(ksum), comm::ReduceOp::kSum);
  world.allreduce(std::span<long long>(counts), comm::ReduceOp::kSum);

  // Volume normalization: P(k) = |delta_k|^2 V / N_cells^2 with the
  // unnormalized forward transform convention.
  const double ncells = static_cast<double>(n) * static_cast<double>(n) *
                        static_cast<double>(n);
  const double volume = box_mpch * box_mpch * box_mpch;
  std::vector<PowerBin> out;
  for (std::size_t i = 0; i < bins; ++i) {
    if (counts[i] == 0) continue;
    PowerBin pb;
    pb.k = ksum[i] / static_cast<double>(counts[i]);
    pb.power = psum[i] / static_cast<double>(counts[i]) * volume /
               (ncells * ncells);
    pb.modes = static_cast<std::size_t>(counts[i]);
    out.push_back(pb);
  }
  return out;
}

}  // namespace hacc::cosmology
