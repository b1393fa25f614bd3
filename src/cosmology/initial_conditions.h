// Zel'dovich initial conditions from a Gaussian random field.
//
// "Under the Jeans instability, initial perturbations given by a smooth
// Gaussian random field evolve into a 'cosmic web'..." (paper Sec. I). The
// generator is decomposition-independent: the white-noise field is keyed by
// *global* cell index with the counter-based RNG, so any rank layout
// produces the identical realization.
//
// Pipeline, through one mesh::BlockFft: white noise n(x) on the particle
// blocks -> r2c FFT -> delta(k) = n(k) sqrt(P(k) N/V) on the half spectrum
// -> displacement psi(k) = i k delta(k)/k^2 -> 3 c2r FFTs back to the
// blocks -> particles on a lattice displaced by D(a_i) psi with Zel'dovich
// momenta p = a^2 E(a) f(a) D(a) psi (code units; see
// cosmology/background.h). Every transform runs on whole lines of the
// global grid, so the particles are bit-identical at any rank count.
#pragma once

#include <cstdint>

#include "comm/comm.h"
#include "cosmology/power_spectrum.h"
#include "mesh/grid.h"
#include "tree/particles.h"

namespace hacc::cosmology {

struct IcConfig {
  std::size_t particles_per_dim = 32;  ///< lattice of np^3 particles
  double box_mpch = 64.0;              ///< box side [Mpc/h]
  double z_init = 50.0;                ///< starting redshift
  std::uint64_t seed = 2012;           ///< realization seed
  TransferFunction transfer = TransferFunction::kEisensteinHu;
};

/// Generate this rank's particles (those whose *lattice site* lies in the
/// rank's domain). Positions in grid units of `decomp`, momenta in code
/// units, mass 1 per particle, ids = global lattice index. Collective.
void generate_zeldovich(comm::Comm& world, const mesh::BlockDecomp3D& decomp,
                        const Cosmology& cosmo, const IcConfig& config,
                        tree::ParticleArray& out);

/// The displacement fields themselves (grid units), block layout with the
/// given ghost width, for tests and custom particle loadings. psi[axis]
/// must be shaped on `decomp` already. Collective.
void generate_displacement_fields(comm::Comm& world,
                                  const mesh::BlockDecomp3D& decomp,
                                  const Cosmology& cosmo,
                                  const IcConfig& config,
                                  std::array<mesh::DistGrid, 3>& psi);

}  // namespace hacc::cosmology
