// Linear theory power spectra and the measured P(k) estimator.
//
// Fig. 10 of the paper shows the matter fluctuation power spectrum evolving
// from z = 5.5 to z = 0: linear at small k, strongly nonlinear at large k.
// This module provides
//   * analytic linear P(k) with BBKS or Eisenstein-Hu (no-wiggle) transfer
//     functions, sigma_8-normalized — used to seed initial conditions and as
//     the small-k reference;
//   * a distributed P(k) estimator that bins |delta(k)|^2 over the half
//     spectrum of a mesh::BlockFft, each mode with its Hermitian
//     multiplicity (with optional CIC window deconvolution).
//
// Wavenumbers at this interface are physical (h/Mpc); box/grid conversions
// happen internally.
#pragma once

#include <cstddef>
#include <vector>

#include "comm/comm.h"
#include "cosmology/background.h"
#include "mesh/block_fft.h"
#include "mesh/grid.h"

namespace hacc::cosmology {

enum class TransferFunction {
  kBbks,          ///< Bardeen-Bond-Kaiser-Szalay fit
  kEisensteinHu,  ///< Eisenstein & Hu (1998) zero-baryon shape fit
};

/// Linear matter power spectrum P(k) [Mpc^3/h^3] at z = 0, sigma8-normalized.
class LinearPower {
 public:
  LinearPower(const Cosmology& cosmo,
              TransferFunction tf = TransferFunction::kEisensteinHu);

  /// P(k) at z=0; k in h/Mpc.
  double operator()(double k) const;

  /// P(k) scaled to redshift z by the linear growth factor.
  double at_redshift(double k, double z) const;

  /// Transfer function T(k) (unnormalized shape, T -> 1 as k -> 0).
  double transfer(double k) const;

  const Cosmology& cosmology() const noexcept { return cosmo_; }

 private:
  double unnormalized(double k) const;

  Cosmology cosmo_;
  TransferFunction tf_;
  double norm_ = 1.0;
};

/// Top-hat sigma(R) [R in Mpc/h] from a callable P(k); used for the sigma8
/// normalization and exposed for tests.
double sigma_r(const LinearPower& power, double radius);

/// One bin of a measured spectrum.
struct PowerBin {
  double k = 0;       ///< bin-mean |k| in h/Mpc
  double power = 0;   ///< volume-normalized P(k) in (Mpc/h)^3
  std::size_t modes = 0;
};

/// Measure P(k) from a distributed density-contrast grid, transformed
/// through `fft` (built on delta's decomposition). Collective.
/// `box_mpch` is the box side in Mpc/h; `bins` linear-in-k bins reach the
/// grid Nyquist. If `deconvolve_cic` is set, |W_cic(k)|^2 is divided out.
std::vector<PowerBin> measure_power_spectrum(comm::Comm& world,
                                             mesh::BlockFft& fft,
                                             const mesh::DistGrid& delta,
                                             double box_mpch,
                                             std::size_t bins = 32,
                                             bool deconvolve_cic = true);

}  // namespace hacc::cosmology
