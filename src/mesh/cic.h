// Cloud-In-Cell (CIC) particle-mesh transfer.
//
// HACC generates the density field from particles with a CIC scheme and
// interpolates grid forces back at particle positions (paper Sec. II).
// Positions are in *grid units* (one cell = 1.0), so a particle at position
// p contributes to the 8 cells around it with trilinear weights.
//
// Deposit writes into a DistGrid including its ghost layer; callers then
// fold_ghosts() so boundary mass reaches the owning rank. Interpolation
// reads through the ghost layer after fill_ghosts(). The simulation only
// deposits and interpolates at in-domain actives, whose clouds reach one
// cell past the interior, so its grids carry a single ghost layer.
#pragma once

#include <span>

#include "mesh/grid.h"

namespace hacc::mesh {

/// Deposit particle masses onto the grid (adds; does not clear).
/// Positions are global grid coordinates; every particle must lie within
/// [interior.lo - ghost + 1, interior.hi + ghost - 1) per axis (after
/// periodic wrapping relative to the interior), i.e. its whole CIC cloud
/// must fit in local storage.
void cic_deposit(DistGrid& grid, std::span<const float> x,
                 std::span<const float> y, std::span<const float> z,
                 float particle_mass);

/// OpenMP-threaded deposit: each thread accumulates a slice of the
/// particles into a private grid, reduced into `grid` afterwards. This is
/// the paper's planned "fully thread all the components of the long-range
/// solver, in particular the forward CIC algorithm" (Sec. VI). The result
/// equals cic_deposit up to floating-point addition order.
void cic_deposit_threaded(DistGrid& grid, std::span<const float> x,
                          std::span<const float> y, std::span<const float> z,
                          float particle_mass);

/// Interpolate grid values at particle positions (same locality contract as
/// cic_deposit). Output span must match the particle count.
///
/// With `clamp_to_storage` set, positions outside the locally stored region
/// are clamped to its edge instead of being an error: an approximation for
/// particles that drifted past the ghost layer, such as the deepest
/// passive replicas between refreshes. The simulation does not use it: it
/// interpolates only at migrated actives, and passives carry their owner's
/// acceleration. perfbench/replay.cpp, which replays a two-solve step,
/// passes it.
void cic_interpolate(const DistGrid& grid, std::span<const float> x,
                     std::span<const float> y, std::span<const float> z,
                     std::span<float> out, bool clamp_to_storage = false);

/// Convert a mass grid to density contrast delta = rho/rho_mean - 1 over the
/// interior (collective: computes the global mean via allreduce). Ghosts are
/// left untouched.
void to_density_contrast(DistGrid& grid, comm::Comm& comm);

}  // namespace hacc::mesh
