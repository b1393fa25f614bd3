// Distributed FFT demo: the pencil-decomposed transform that anchors
// HACC's long/medium-range solver (paper Sec. IV-A).
//
// Runs the same 3-D transform on 1, 4, and 8 simulated ranks (pencil
// decompositions, plus the 1 x 4 grid that is a slab decomposition),
// verifies all layouts agree with the serial result, and reports
// wall-clock and the process-grid shapes.
//
// Build & run:  ./build/examples/distributed_fft
#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "comm/comm.h"
#include "fft/fft3d_local.h"
#include "fft/pencil.h"
#include "util/rng.h"
#include "util/timer.h"

int main() {
  using namespace hacc;
  using fft::Complex;
  const std::size_t n = 64;

  // A deterministic global field, keyed by global cell index.
  Philox rng(7);
  auto field_at = [&](std::size_t x, std::size_t y, std::size_t z) {
    return Complex(rng.gaussian2((x * n + y) * n + z)[0], 0.0);
  };

  // Serial reference.
  std::vector<Complex> reference(n * n * n);
  for (std::size_t x = 0; x < n; ++x)
    for (std::size_t y = 0; y < n; ++y)
      for (std::size_t z = 0; z < n; ++z)
        reference[(x * n + y) * n + z] = field_at(x, y, z);
  {
    Timer t;
    fft::Fft3DLocal(n, n, n).transform(reference.data(),
                                       fft::Direction::kForward);
    std::printf("serial %zu^3 FFT:          %7.3f s\n", n, t.elapsed());
  }

  // Forward-transform the field on `plan`'s layout; returns the wall time
  // and the max error against the serial spectrum (collective).
  auto forward_vs_serial = [&](comm::Comm& world, fft::PencilFft3D& plan) {
    const auto rb = plan.real_box();
    std::vector<Complex> local(rb.volume());
    std::size_t i = 0;
    for (std::size_t x = rb.x.lo; x < rb.x.hi; ++x)
      for (std::size_t y = rb.y.lo; y < rb.y.hi; ++y)
        for (std::size_t z = rb.z.lo; z < rb.z.hi; ++z)
          local[i++] = field_at(x, y, z);
    world.barrier();
    Timer t;
    plan.forward(local);
    world.barrier();
    const double elapsed = t.elapsed();
    const auto sb = plan.spectral_box();
    double max_err = 0;
    i = 0;
    for (std::size_t x = sb.x.lo; x < sb.x.hi; ++x)
      for (std::size_t y = sb.y.lo; y < sb.y.hi; ++y)
        for (std::size_t z = sb.z.lo; z < sb.z.hi; ++z)
          max_err = std::max(
              max_err, std::abs(local[i++] - reference[(x * n + y) * n + z]));
    return std::pair{elapsed,
                     world.allreduce_value(max_err, comm::ReduceOp::kMax)};
  };

  for (int nranks : {4, 8}) {
    comm::Machine::run(nranks, [&](comm::Comm& world) {
      auto plan = fft::PencilFft3D::balanced(world, n, n, n);
      const auto [elapsed, err] = forward_vs_serial(world, plan);
      if (world.rank() == 0) {
        std::printf("pencil %d ranks (%dx%d):    %7.3f s   max err %.2e\n",
                    nranks, plan.p1(), plan.p2(), elapsed, err);
      }
    });
  }

  // A 1 x P process grid is the slab decomposition: one axis is split at a
  // time, so it is capped at N_rank <= N_fft.
  comm::Machine::run(4, [&](comm::Comm& world) {
    fft::PencilFft3D plan(world, n, n, n, 1, 4);
    const auto [elapsed, err] = forward_vs_serial(world, plan);
    if (world.rank() == 0) {
      std::printf("slab   4 ranks (1x4):    %7.3f s   max err %.2e\n",
                  elapsed, err);
      std::printf("\n(slab is limited to N_rank <= N_fft = %zu; the pencil "
                  "decomposition lifts this to N_rank <= N^2 = %zu)\n",
                  n, n * n);
    }
  });
  return 0;
}
