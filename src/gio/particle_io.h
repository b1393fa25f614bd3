// ParticleArray adapters over the gio blocked format. Checkpoints are
// rank-count-elastic: a file written on N ranks is read block-partitioned
// on any M ranks, and the reader routes every particle to the rank that
// owns its domain (Simulation::read_checkpoint does so with
// core::OverloadDomain::migrate over every rank). The root gather the
// in-situ pipeline and Simulation::gather_active() share has its own
// particle wire format.
#pragma once

#include <string>

#include "comm/comm.h"
#include "gio/gio.h"
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
/// the caller routes them to their owners). Corrupt sub-blocks arrive
/// zero-filled and are listed in the report.
ReadReport read_particles(comm::Comm& comm, const std::string& path,
                          tree::ParticleArray& out);

/// Gather every ACTIVE particle of `particles` to rank 0 with one gatherv:
/// rank order, each rank's actives in local order. Empty on other ranks.
/// Collective.
tree::ParticleArray gather_actives(comm::Comm& comm,
                                   const tree::ParticleArray& particles);

}  // namespace hacc::gio
