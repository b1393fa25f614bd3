// Cross-rank reduction of phase times and counters, and merged trace export.
//
// The paper's evaluation tables are *reduced* quantities: per-phase time is
// only meaningful as min/mean/max over ranks, and the gap between max and
// mean is the load imbalance that Sec. V's scaling analysis tracks. The
// reducer gathers every rank's (NameId, value) samples to a root over
// comm::Comm and merges them by name — ranks missing an entry contribute
// zero, so a phase only one rank runs shows up with min 0 and imbalance P.
//
// NameIds travel directly because SimMPI ranks share one process (see
// util/names.h); a real-MPI port would exchange the strings instead.
#pragma once

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "comm/comm.h"
#include "obs/counters.h"
#include "obs/trace.h"

namespace hacc::obs {

/// One name's statistics over all ranks of the communicator.
struct Reduced {
  NameId name = 0;
  double min = 0;   ///< smallest per-rank value (0 if any rank lacks it)
  double mean = 0;  ///< sum / comm.size()
  double max = 0;
  double sum = 0;
  /// max/mean: 1.0 = perfectly balanced, P = one rank does everything.
  double imbalance() const noexcept { return mean > 0 ? max / mean : 0.0; }
};

/// Reduce caller-provided samples; collective. Returns rows sorted by
/// descending mean on `root`, empty elsewhere.
std::vector<Reduced> reduce_samples(
    comm::Comm& comm, std::span<const std::pair<NameId, double>> samples,
    int root = 0);

/// Reduce a counter snapshot (values as doubles); collective.
std::vector<Reduced> reduce_counters(comm::Comm& comm,
                                     const Counters& counters, int root = 0);

/// Gather every rank's trace fragment and write one Chrome trace_event
/// array at `path` ("pid" = rank; rank `root` writes). Collective.
void write_merged_trace(comm::Comm& comm, const Tracer& tracer,
                        const std::string& path, int root = 0);

}  // namespace hacc::obs
