// Science analysis tools (paper Sec. V).
//
// The paper's science section leans on three statistics beyond P(k):
// cluster halo profiles (Ref. [4], "a high-statistics study of galaxy
// cluster halo profiles"), the halo mass function ("a powerful cosmological
// probe ... precision predictions"), and correlation functions ("galaxy
// correlation functions and the associated power spectra"). This module
// provides all three:
//   * radial halo density profiles (periodic, mass-weighted shells);
//   * the two-point correlation function xi(r), measured exactly from the
//     gridded density via FFT (xi is the Fourier transform of P(k));
//   * the Press-Schechter analytic mass function as the reference the
//     measured FOF mass function is compared against.
#pragma once

#include <vector>

#include "comm/comm.h"
#include "cosmology/halo_finder.h"
#include "cosmology/power_spectrum.h"
#include "mesh/block_fft.h"
#include "mesh/grid.h"
#include "tree/particles.h"

namespace hacc::cosmology {

struct ProfileBin {
  double r = 0;        ///< shell-center radius (grid units)
  double density = 0;  ///< mass / shell volume
  std::size_t count = 0;
};

/// Spherically averaged density profile of one halo about its center
/// (periodic distances). `rmax` in grid units; bins are linear in r.
std::vector<ProfileBin> halo_profile(const tree::ParticleArray& particles,
                                     const Halo& halo, double box,
                                     double rmax, std::size_t bins = 16);

struct CorrelationBin {
  double r = 0;   ///< separation (Mpc/h)
  double xi = 0;  ///< two-point correlation
  std::size_t cells = 0;
};

/// Two-point correlation function from a distributed density-contrast grid:
/// xi(x) = IFFT(|delta_k|^2) / N^3, both transforms through `fft` (built on
/// delta's decomposition), binned radially over the lag cells of this
/// rank's block. Collective.
std::vector<CorrelationBin> measure_correlation_function(
    comm::Comm& world, mesh::BlockFft& fft, const mesh::DistGrid& delta,
    double box_mpch, std::size_t bins = 24);

/// Press-Schechter mass function dn/dlnM [(Mpc/h)^-3] at redshift z for
/// halo mass M [Msun/h].
double press_schechter_dndlnm(const LinearPower& power, double z, double m);

/// sigma(M): RMS linear fluctuation in a top-hat enclosing mean mass M.
double sigma_of_mass(const LinearPower& power, double m);

}  // namespace hacc::cosmology
