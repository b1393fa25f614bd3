// Spectral kernels of the HACC "Poisson-solve" (paper Sec. II).
//
// The long/medium-range force is computed entirely in Fourier space as the
// composition of
//   * the density smoothing filter, Eq. (5):
//       exp(-k^2 sigma^2 / 4) * prod_i sinc^ns(k_i Delta / 2),
//     nominal sigma = 0.8, ns = 3 — the "isotropizing" filter that knocks
//     down CIC anisotropy noise by over an order of magnitude and lets the
//     short/long force hand-over sit at 3 grid spacings;
//   * a sixth-order periodic influence function (spectral representation of
//     the inverse Laplacian): with s_i = sin(k_i/2), the arcsin series
//       (k_i/2)^2 ~ s_i^2 (1 + s_i^2/3 + 8 s_i^4/45) + O(s^8)
//     gives k_eff^2 = 4 sum_i [s_i^2 + s_i^4/3 + 8 s_i^6/45];
//   * fourth-order Super-Lanczos spectral differencing (Hamming) for the
//     potential gradient: D(k) = i (8 sin k - sin 2k) / 6 per component.
//
// All lengths are in grid units (Delta = 1); wavenumbers are
// k_i = 2 pi m_i / N_i with m_i the (signed) integer mode.
#pragma once

#include <array>
#include <complex>
#include <cstddef>
#include <vector>

namespace hacc::mesh {

/// Influence-function discretization order.
enum class GreenOrder {
  kExact,   ///< continuum -1/k^2 (reference)
  kOrder2,  ///< plain sin^2 discretization
  kOrder6,  ///< HACC's sixth-order form (default)
};

/// Gradient (spectral differencing) discretization.
enum class GradientOrder {
  kExact,         ///< i k (reference)
  kOrder2,        ///< central difference: i sin k
  kSuperLanczos4  ///< HACC's fourth-order Super-Lanczos (default)
};

/// Parameters of the spectral solve.
struct SpectralConfig {
  double sigma = 0.8;  ///< Gaussian filter width (grid units)
  int ns = 3;          ///< sinc exponent in Eq. (5)
  GreenOrder green = GreenOrder::kOrder6;
  /// The solve runs through the real-to-complex half-spectrum pipeline,
  /// which needs the gradient kernel to vanish at the Nyquist frequency.
  /// Every discrete choice (kOrder2, kSuperLanczos4) does; only the kExact
  /// reference gradient on even grids violates it, at the Nyquist plane.
  GradientOrder gradient = GradientOrder::kSuperLanczos4;
};

/// Signed integer mode for index m in an N-point transform: m in
/// [-N/2, N/2).
inline long signed_mode(std::size_t m, std::size_t n) {
  const long lm = static_cast<long>(m);
  const long ln = static_cast<long>(n);
  return (2 * lm >= ln) ? lm - ln : lm;
}

/// Physical wavenumber of index m (grid units).
double wavenumber(std::size_t m, std::size_t n);

/// Green's function G(k) with phi(k) = G(k) delta(k); G(0) = 0.
/// k = (kx, ky, kz) are per-axis wavenumbers in grid units.
double greens_function(const std::array<double, 3>& k, GreenOrder order);

/// Eq. (5) smoothing filter value at k.
double spectral_filter(const std::array<double, 3>& k, double sigma, int ns);

/// Spectral derivative multiplier for one axis (purely imaginary; returns
/// the full complex value i*D so callers just multiply).
std::complex<double> gradient_multiplier(double k, GradientOrder order);

/// greens_function(k, config.green) * spectral_filter(k, config.sigma,
/// config.ns) at every mode of the index box [lo, hi) of an
/// n[0] x n[1] x n[2] transform, x-major with z fastest. Equal to the
/// per-mode product to the bit; the per-axis factors (the sines and sinc
/// powers) are evaluated once per index along their axis instead of once
/// per mode, which leaves one exp per mode.
std::vector<double> green_filter_table(const std::array<std::size_t, 3>& n,
                                       const std::array<std::size_t, 3>& lo,
                                       const std::array<std::size_t, 3>& hi,
                                       const SpectralConfig& config);

}  // namespace hacc::mesh
