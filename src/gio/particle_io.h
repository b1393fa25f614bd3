// ParticleArray adapters over the gio blocked format, plus the
// domain-decomposition redistribution that makes checkpoints
// rank-count-elastic: a file written on N ranks is read block-partitioned
// on any M ranks, then every particle is routed to the rank that owns its
// domain cell with one alltoallv. The root gather the in-situ pipeline and
// Simulation::gather_active() share rides the same particle wire format.
#pragma once

#include <string>

#include "comm/comm.h"
#include "gio/gio.h"
#include "mesh/grid.h"
#include "tree/particles.h"

namespace hacc::gio {

/// Collective write of the nine SoA particle variables
/// (x y z vx vy vz mass id role) as one gio file.
WriteStats write_particles(comm::Comm& comm, const std::string& path,
                           const GlobalMeta& meta,
                           const tree::ParticleArray& particles,
                           const GioConfig& cfg = {});

/// Collective elastic read: `out` receives this rank's contiguous share of
/// the file's blocks (arbitrary with respect to any domain decomposition —
/// follow with redistribute_by_domain). Corrupt sub-blocks arrive
/// zero-filled and are listed in the report.
ReadReport read_particles(comm::Comm& comm, const std::string& path,
                          tree::ParticleArray& out);

/// Route every particle to the rank owning its (periodically wrapped)
/// position under `decomp` with one alltoallv. Stored coordinates are
/// forwarded bit-exactly; wrapping is applied only for routing.
void redistribute_by_domain(comm::Comm& comm,
                            const mesh::BlockDecomp3D& decomp,
                            tree::ParticleArray& particles);

/// Gather every ACTIVE particle of `particles` to rank 0 with one gatherv:
/// rank order, each rank's actives in local order. Empty on other ranks.
/// Collective.
tree::ParticleArray gather_actives(comm::Comm& comm,
                                   const tree::ParticleArray& particles);

}  // namespace hacc::gio
