// Google-benchmark micro-benchmarks of the performance-critical kernels:
// 1-D FFT (pow2 / mixed-radix / Bluestein), CIC deposit, RCB build phases,
// the short-range force kernel vs neighbor-list size, Philox generation,
// and the ghost exchange.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "comm/comm.h"
#include "fft/fft1d.h"
#include "mesh/cic.h"
#include "mesh/grid.h"
#include "tree/force_kernel.h"
#include "tree/force_matcher.h"
#include "tree/rcb_tree.h"
#include "util/rng.h"

namespace {

using namespace hacc;

void BM_Fft1D(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  fft::Fft1D plan(n);
  Philox rng(1);
  std::vector<fft::Complex> data(n);
  for (std::size_t i = 0; i < n; ++i)
    data[i] = fft::Complex(rng.gaussian2(i)[0], 0.0);
  std::vector<fft::Complex> work(n);
  for (auto _ : state) {
    std::copy(data.begin(), data.end(), work.begin());
    plan.transform(work.data(), fft::Direction::kForward);
    benchmark::DoNotOptimize(work.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.SetLabel(plan.smooth() ? "stockham" : "bluestein");
}
// 64 and 128 are the line lengths the benchmark workloads run (the r2c
// half-plan and the y/x lines of a 128^3 grid).
BENCHMARK(BM_Fft1D)
    ->Arg(64)
    ->Arg(128)
    ->Arg(1024)
    ->Arg(1200)
    ->Arg(1024 * 5)
    ->Arg(1021);

void BM_ForceKernel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  tree::ShortRangeKernel kernel;
  kernel.fgrid = tree::default_fgrid_poly5();
  Philox rng(2);
  Philox::Stream rs(rng);
  aligned_vector<float> xs(n), ys(n), zs(n), ms(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = static_cast<float>(rs.uniform(0, 6));
    ys[i] = static_cast<float>(rs.uniform(0, 6));
    zs[i] = static_cast<float>(rs.uniform(0, 6));
    ms[i] = 1.0f;
  }
  for (auto _ : state) {
    const auto f = tree::evaluate_neighbor_list(
        kernel, 3.0f, 3.0f, 3.0f, xs.data(), ys.data(), zs.data(), ms.data(),
        n);
    benchmark::DoNotOptimize(f);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.counters["GFlop/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(n) *
          tree::kFlopsPerInteraction,
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}
BENCHMARK(BM_ForceKernel)->Arg(128)->Arg(512)->Arg(2048);

void BM_RcbBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Philox rng(3);
  Philox::Stream rs(rng);
  tree::ParticleArray base;
  for (std::size_t i = 0; i < n; ++i)
    base.push_back(static_cast<float>(rs.uniform(0, 32)),
                   static_cast<float>(rs.uniform(0, 32)),
                   static_cast<float>(rs.uniform(0, 32)), 0, 0, 0, 1.0f, i);
  for (auto _ : state) {
    tree::ParticleArray p = base;
    tree::RcbTree tree(p, tree::RcbConfig{64});
    benchmark::DoNotOptimize(tree.nodes().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RcbBuild)->Arg(10000)->Arg(100000);

void BM_CicDeposit(benchmark::State& state) {
  const std::size_t n = 32;
  const auto npart = static_cast<std::size_t>(state.range(0));
  mesh::BlockDecomp3D d({n, n, n}, comm::Cart3D({1, 1, 1}));
  Philox rng(4);
  Philox::Stream rs(rng);
  std::vector<float> xs(npart), ys(npart), zs(npart);
  for (std::size_t i = 0; i < npart; ++i) {
    xs[i] = static_cast<float>(rs.uniform(0, n));
    ys[i] = static_cast<float>(rs.uniform(0, n));
    zs[i] = static_cast<float>(rs.uniform(0, n));
  }
  mesh::DistGrid grid(d, 0, 1);
  for (auto _ : state) {
    grid.fill(0.0);
    mesh::cic_deposit(grid, xs, ys, zs, 1.0f);
    benchmark::DoNotOptimize(grid.data().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(npart));
}
BENCHMARK(BM_CicDeposit)->Arg(100000);

void BM_Philox(benchmark::State& state) {
  Philox rng(7);
  std::uint64_t ctr = 0;
  for (auto _ : state) {
    auto block = rng.block(ctr++);
    benchmark::DoNotOptimize(block);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 4);
}
BENCHMARK(BM_Philox);

void BM_GhostExchange(benchmark::State& state) {
  // fold+fill on a single-rank periodic grid: measures pack/unpack cost.
  const std::size_t n = 64;
  mesh::BlockDecomp3D d({n, n, n}, comm::Cart3D({1, 1, 1}));
  for (auto _ : state) {
    comm::Machine::run(1, [&](comm::Comm& c) {
      mesh::DistGrid g(d, 0, 4);
      g.fill(1.0);
      g.fold_ghosts(c);
      g.fill_ghosts(c);
      benchmark::DoNotOptimize(g.data().data());
    });
  }
}
BENCHMARK(BM_GhostExchange);

}  // namespace

BENCHMARK_MAIN();
