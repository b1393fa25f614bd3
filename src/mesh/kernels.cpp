#include "mesh/kernels.h"

#include <cmath>
#include <numbers>

namespace hacc::mesh {

double wavenumber(std::size_t m, std::size_t n) {
  return 2.0 * std::numbers::pi * static_cast<double>(signed_mode(m, n)) /
         static_cast<double>(n);
}

namespace {

inline double sinc(double u) {
  if (std::abs(u) < 1e-12) return 1.0;
  return std::sin(u) / u;
}

/// One axis's term of k_eff^2 (greens_function sums them over x, y, z).
double keff2_term(double ki, GreenOrder order) {
  switch (order) {
    case GreenOrder::kExact:
      return ki * ki;
    case GreenOrder::kOrder2: {
      const double s = std::sin(0.5 * ki);
      return 4.0 * s * s;
    }
    case GreenOrder::kOrder6: {
      const double s2 = std::sin(0.5 * ki) * std::sin(0.5 * ki);
      return 4.0 * s2 * (1.0 + s2 / 3.0 + 8.0 * s2 * s2 / 45.0);
    }
  }
  return 0.0;
}

/// One axis's sinc^ns factor of the Eq. (5) filter.
double sinc_power(double ki, int ns) { return std::pow(sinc(0.5 * ki), ns); }

// The per-mode functions and the table both compose their per-axis pieces
// through green_of and filter_of, in the same operation order, so the two
// agree to the bit.

/// G = -1/k_eff^2 from the per-axis terms, summed x, y, z (0 at k = 0).
double green_of(const std::array<double, 3>& terms) {
  double keff2 = 0.0;
  for (const double t : terms) keff2 += t;
  if (keff2 == 0.0) return 0.0;  // zero mode: mean subtracted elsewhere
  return -1.0 / keff2;
}

/// The Eq. (5) filter from k and the per-axis sinc powers.
double filter_of(const std::array<double, 3>& k,
                 const std::array<double, 3>& powers, double sigma) {
  const double k2 = k[0] * k[0] + k[1] * k[1] + k[2] * k[2];
  double f = std::exp(-0.25 * k2 * sigma * sigma);
  for (const double p : powers) f *= p;
  return f;
}

}  // namespace

double greens_function(const std::array<double, 3>& k, GreenOrder order) {
  return green_of({keff2_term(k[0], order), keff2_term(k[1], order),
                   keff2_term(k[2], order)});
}

double spectral_filter(const std::array<double, 3>& k, double sigma, int ns) {
  return filter_of(
      k, {sinc_power(k[0], ns), sinc_power(k[1], ns), sinc_power(k[2], ns)},
      sigma);
}

std::vector<double> green_filter_table(const std::array<std::size_t, 3>& n,
                                       const std::array<std::size_t, 3>& lo,
                                       const std::array<std::size_t, 3>& hi,
                                       const SpectralConfig& config) {
  // Per-axis pieces, once per index along each axis.
  std::array<std::vector<double>, 3> k, terms, powers;
  for (std::size_t d = 0; d < 3; ++d) {
    for (std::size_t m = lo[d]; m < hi[d]; ++m) {
      k[d].push_back(wavenumber(m, n[d]));
      terms[d].push_back(keff2_term(k[d].back(), config.green));
      powers[d].push_back(sinc_power(k[d].back(), config.ns));
    }
  }
  std::vector<double> table;
  table.reserve(k[0].size() * k[1].size() * k[2].size());
  for (std::size_t i = 0; i < k[0].size(); ++i)
    for (std::size_t j = 0; j < k[1].size(); ++j)
      for (std::size_t l = 0; l < k[2].size(); ++l)
        table.push_back(
            green_of({terms[0][i], terms[1][j], terms[2][l]}) *
            filter_of({k[0][i], k[1][j], k[2][l]},
                      {powers[0][i], powers[1][j], powers[2][l]},
                      config.sigma));
  return table;
}

std::complex<double> gradient_multiplier(double k, GradientOrder order) {
  switch (order) {
    case GradientOrder::kExact:
      return {0.0, k};
    case GradientOrder::kOrder2:
      return {0.0, std::sin(k)};
    case GradientOrder::kSuperLanczos4:
      // Fourth-order low-noise Lanczos differentiator (Hamming, "Digital
      // Filters"): D(k) = (8 sin k - sin 2k) / 6.
      return {0.0, (8.0 * std::sin(k) - std::sin(2.0 * k)) / 6.0};
  }
  return {0.0, 0.0};
}

}  // namespace hacc::mesh
