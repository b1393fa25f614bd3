// Traced replay: one step's layer calls, made by the benchmark on a
// workload's real state and timed from outside, one span per call.
//
// The replay copies the particles and calls each layer's public functions
// in the order Simulation::step() (and, for the supervised workload, the
// Supervisor's per-step iteration) calls them. After every layer call each
// rank waits at a barrier; that wait is its own "comm.wait" span, so the
// spans of one replayed step tile its wall clock. Some layers are split by a
// probe: the same public call re-run on the same input right after its
// parent (tree.walk under tree.short_range, fft.* and mesh.remap under
// mesh.poisson, cosmology.fof under serve.catalogs, gio.verify under
// gio.write). Probes run with comm counting off and are not part of the
// step's coverage; they only split their parent's time. FOF and the
// read-back verification run on rank 0 alone while the other ranks wait
// inside the same collective call, so their interval is recorded on every
// rank.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "comm/comm.h"
#include "core/simulation.h"
#include "fft/pencil.h"
#include "mesh/poisson.h"
#include "mesh/remap.h"
#include "obs/counters.h"
#include "spans.h"
#include "tree/rcb_tree.h"
#include "workload.h"

namespace perfbench {

/// What one rank saw in one replayed step.
struct ReplayResult {
  std::map<std::string, double> self_s;   ///< self seconds by span name
  std::map<std::string, double> total_s;  ///< durations, children included
  double covered_s = 0;  ///< layer spans + waits directly under the step
  double step_s = 0;     ///< wall of the replayed step
  std::map<std::string, double> counts;   ///< work done, by metric name
};

/// Counts that are global values (identical on every rank) rather than
/// per-rank contributions; they are not summed over ranks.
bool is_global_count(const std::string& name);

class Replayer {
 public:
  /// Collective: builds the benchmark's own Poisson solver and pencil FFT
  /// on the simulation's decomposition.
  Replayer(hacc::comm::Comm& comm, hacc::core::Simulation& sim,
           const Workload& workload, SpanLog& log, std::string dir);

  /// Replay the next step's layer calls on the current state, then the
  /// elastic checkpoint read. Collective; the simulation's particles are
  /// not modified.
  ReplayResult replay_step();

  /// Replay the initial-condition generation of set-up. Collective;
  /// returns this rank's cosmology.ic seconds.
  double replay_ic();

 private:
  template <typename F>
  int layer(const char* name, int parent, F&& fn);
  template <typename F>
  void probe(const char* name, int parent, F&& fn);
  /// A probe of work only rank 0 does while the others wait for it: rank
  /// 0's interval is recorded on every rank.
  template <typename F>
  void root_probe(const char* name, int parent, F&& fn);
  void fft_probes(const hacc::mesh::DistGrid& delta, int parent);
  /// `tree` null: the workload has no tree; the probe times a no-op.
  void walk_probe(const hacc::tree::RcbTree* tree, int parent);
  void long_range_half(hacc::tree::ParticleArray& p, double factor,
                       int root);
  std::map<std::string, double> counter_values() const;

  hacc::comm::Comm& comm_;
  hacc::core::Simulation& sim_;
  const Workload& workload_;
  SpanLog& log_;
  std::string dir_;
  hacc::obs::Counters counters_;
  hacc::mesh::PoissonSolver poisson_;
  std::unique_ptr<hacc::fft::PencilFft3D> fft_;
  std::unique_ptr<hacc::mesh::Redistributor> remap_;
  hacc::tree::ShortRangeWorkspace workspace_;
  std::vector<hacc::tree::NeighborList> walk_lists_;
  // Probe scratch, reused across replays.
  std::vector<double> interior_, pencil_, real_;
  std::vector<hacc::fft::Complex> spectrum_, component_;
  int replays_ = 0;
};

}  // namespace perfbench
