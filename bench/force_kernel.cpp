// Fig. 5 reproduction: force-kernel performance vs neighbor-list size and
// rank/thread configuration.
//
// Part 1 (measured): the portable short-range kernel on this host, swept
// over neighbor-list sizes. The paper's shape to reproduce: throughput
// rises with list size to a broad plateau (loop overhead amortizes away).
// We report interactions/s and effective GFlops at the paper's 42
// flops/interaction accounting.
//
// Part 1b (measured): the scalar loop raced against every tile-kernel
// instance this host runs (4, 8 or 16 lanes) over one synthetic fat leaf,
// each against an FMA-peak probe at its own width and ISA; emits
// BENCH_kernel.json (GFLOP/s, speedup and fraction of peak of the
// dispatched instance, plus every instance) for the perf-regression gate.
//
// Part 2 (modeled): the eight rank/thread curves of Fig. 5 from the BG/Q
// kernel model (percent of node peak vs list size).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <vector>

#include "perfmodel/kernel_model.h"
#include "tree/force_kernel.h"
#include "tree/force_matcher.h"
#include "tree/interaction_batch.h"
#include "util/aligned.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

/// Measured single-thread FMA peak in the paper's fused accounting
/// (a = a*b + c counts 2 flops/lane) for the float vector type V: 16
/// independent chains, with enough ILP to saturate the FP ports, and few
/// enough accumulators to stay in registers. It runs at the ISA of the
/// function it is inlined into: fused where that ISA has FMA (AVX-512F),
/// the mul+add rate where it has none (x86-64 baseline, AVX2 alone) —
/// the honest bound for a tile instance built for the same ISA.
template <class V>
double fma_peak_gflops() noexcept {
  // Named accumulators, not an array: the compiler must keep all 16 chains
  // in registers (an indexed array degrades to load-mul-add-store, which
  // serializes on store forwarding and halves the measured rate).
  constexpr std::size_t kAcc = 16, kLanes = sizeof(V) / sizeof(float),
                        kChunk = 100000;
  V b, c;
  for (std::size_t l = 0; l < kLanes; ++l) {
    b[l] = 0.999999f;
    c[l] = 1e-7f * static_cast<float>(l % 4 + 1);
  }
  V a0 = b, a1 = b + c, a2 = b + c * 2.0f, a3 = b + c * 3.0f;
  V a4 = b + c * 4.0f, a5 = b + c * 5.0f, a6 = b + c * 6.0f,
    a7 = b + c * 7.0f;
  V a8 = b + c * 8.0f, a9 = b + c * 9.0f, a10 = b + c * 10.0f,
    a11 = b + c * 11.0f;
  V a12 = b + c * 12.0f, a13 = b + c * 13.0f, a14 = b + c * 14.0f,
    a15 = b + c * 15.0f;
  double flops = 0.0;
  hacc::Timer timer;
  do {
    for (std::size_t r = 0; r < kChunk; ++r) {
      a0 = a0 * b + c;
      a1 = a1 * b + c;
      a2 = a2 * b + c;
      a3 = a3 * b + c;
      a4 = a4 * b + c;
      a5 = a5 * b + c;
      a6 = a6 * b + c;
      a7 = a7 * b + c;
      a8 = a8 * b + c;
      a9 = a9 * b + c;
      a10 = a10 * b + c;
      a11 = a11 * b + c;
      a12 = a12 * b + c;
      a13 = a13 * b + c;
      a14 = a14 * b + c;
      a15 = a15 * b + c;
    }
    flops += static_cast<double>(kChunk * kAcc * kLanes * 2);
  } while (timer.elapsed() < 0.1);
  const V total = ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7)) +
                  (((a8 + a9) + (a10 + a11)) + ((a12 + a13) + (a14 + a15)));
  volatile float sink = 0.0f;
  for (std::size_t l = 0; l < kLanes; ++l) sink = sink + total[l];
  (void)sink;
  return flops / timer.elapsed() / 1e9;
}

// One probe per tile instance, compiled for the instance's ISA (the target
// strings of src/tree/interaction_batch.cpp).
[[gnu::flatten]] double fma_peak_baseline() {
  return fma_peak_gflops<float __attribute__((vector_size(16)))>();
}
#if defined(__x86_64__)
[[gnu::target("avx2"), gnu::flatten]] double fma_peak_avx2() {
  return fma_peak_gflops<float __attribute__((vector_size(32)))>();
}
[[gnu::target("avx512f,avx512dq,avx512bw,avx512vl"), gnu::flatten]] double
fma_peak_avx512() {
  return fma_peak_gflops<float __attribute__((vector_size(64)))>();
}
#endif

/// The FMA-peak probe at this tile instance's width and ISA.
double measure_fma_peak_gflops(const hacc::tree::TileKernel& tile) {
#if defined(__x86_64__)
  if (tile.lanes == 16) return fma_peak_avx512();
  if (tile.lanes == 8) return fma_peak_avx2();
#endif
  (void)tile;
  return fma_peak_baseline();
}

struct KernelSample {
  const hacc::tree::TileKernel* tile = nullptr;
  double fma_peak_gflops = 0;  ///< the probe at this instance's width
  std::size_t neighbors = 0, targets = 0;
  double scalar_gflops = 0, batched_gflops = 0, max_rel_diff = 0;
  double speedup() const { return scalar_gflops > 0 ? batched_gflops / scalar_gflops : 0; }
  double fraction_of_peak() const {
    return fma_peak_gflops > 0 ? batched_gflops / fma_peak_gflops : 0;
  }
};

/// Time the scalar variant or one tile instance over a synthetic leaf;
/// returns GFLOP/s at the 42 flops/interaction accounting and fills ax
/// with the last forces.
template <class Kernel>
double time_leaf(const Kernel& variant_or_tile,
                 const hacc::tree::ShortRangeKernel& kernel,
                 const hacc::tree::ParticleArray& p,
                 const hacc::tree::NeighborList& list_in,
                 std::vector<float>& ax, std::vector<float>& ay,
                 std::vector<float>& az) {
  using namespace hacc;
  const std::size_t nt = p.size(), nn = list_in.size();
  tree::NeighborList list;  // private copy: the batched path pads in place
  list.x = list_in.x;
  list.y = list_in.y;
  list.z = list_in.z;
  list.m = list_in.m;
  ax.assign(nt, 0.0f);
  ay.assign(nt, 0.0f);
  az.assign(nt, 0.0f);
  const std::size_t reps =
      std::max<std::size_t>(1, 6000000 / std::max<std::size_t>(1, nt * nn));
  volatile float sink = 0.0f;
  Timer timer;
  for (std::size_t r = 0; r < reps; ++r) {
    tree::evaluate_leaf(variant_or_tile, kernel, p, 0,
                        static_cast<std::uint32_t>(nt), list, 1.0f, ax, ay,
                        az);
    sink = sink + ax[0];
  }
  const double secs = timer.elapsed();
  (void)sink;
  return static_cast<double>(reps * nt * nn) * tree::kFlopsPerInteraction /
         secs / 1e9;
}

/// Best-of-samples figures of one tile instance.
struct InstanceBest {
  double fma_peak_gflops = 0, scalar = 0, batched = 0, speedup = 0,
         fraction_of_peak = 0;
};

InstanceBest best_of(const hacc::tree::TileKernel& tile,
                     const std::vector<KernelSample>& samples) {
  InstanceBest b;
  for (const auto& s : samples) {
    if (s.tile != &tile) continue;
    b.fma_peak_gflops = s.fma_peak_gflops;
    b.scalar = std::max(b.scalar, s.scalar_gflops);
    b.batched = std::max(b.batched, s.batched_gflops);
  }
  b.speedup = b.scalar > 0 ? b.batched / b.scalar : 0.0;
  b.fraction_of_peak =
      b.fma_peak_gflops > 0 ? b.batched / b.fma_peak_gflops : 0.0;
  return b;
}

/// The best_* keys describe the dispatched instance, the one
/// KernelVariant::kBatched runs, against the FMA peak at its width;
/// "instances" lists every width raced.
void write_kernel_json(const char* path,
                       const hacc::perfmodel::TileKernelModel& model,
                       const std::vector<KernelSample>& samples) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return;
  }
  const auto tiles = hacc::tree::tile_kernels();
  const hacc::tree::TileKernel* dispatched =
      tiles.empty() ? nullptr : &tiles.back();
  const InstanceBest best =
      dispatched != nullptr ? best_of(*dispatched, samples) : InstanceBest{};
  // Both the peak probe and the kernel GF/s use the paper's fused 42
  // flops/interaction accounting, so fraction_of_peak is consistent; the
  // model roofline (BG/Q instruction-issue bound) is reported as context.
  std::fprintf(f,
               "{\n  \"bench\": \"force_kernel\",\n"
               "  \"flops_per_interaction\": %.0f,\n"
               "  \"isa\": \"%s\",\n"
               "  \"lanes\": %zu,\n"
               "  \"fma_peak_gflops\": %.3f,\n"
               "  \"model_roofline_fraction\": %.4f,\n"
               "  \"model_roofline_gflops\": %.3f,\n"
               "  \"batched_available\": %s,\n"
               "  \"best_scalar_gflops\": %.3f,\n"
               "  \"best_batched_gflops\": %.3f,\n"
               "  \"best_speedup\": %.3f,\n"
               "  \"best_fraction_of_peak\": %.4f,\n"
               "  \"instances\": [\n",
               hacc::tree::kFlopsPerInteraction,
               dispatched != nullptr ? dispatched->isa : "scalar",
               dispatched != nullptr ? dispatched->lanes : std::size_t{1},
               best.fma_peak_gflops, model.roofline_fraction(),
               model.roofline_gflops(best.fma_peak_gflops),
               dispatched != nullptr ? "true" : "false", best.scalar,
               best.batched, best.speedup, best.fraction_of_peak);
  for (std::size_t i = 0; i < tiles.size(); ++i) {
    const InstanceBest b = best_of(tiles[i], samples);
    std::fprintf(f,
                 "    {\"isa\": \"%s\", \"lanes\": %zu, "
                 "\"fma_peak_gflops\": %.3f, \"best_batched_gflops\": %.3f, "
                 "\"best_speedup\": %.3f, \"best_fraction_of_peak\": %.4f}%s\n",
                 tiles[i].isa, tiles[i].lanes, b.fma_peak_gflops, b.batched,
                 b.speedup, b.fraction_of_peak,
                 i + 1 < tiles.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"samples\": [\n");
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const auto& s = samples[i];
    std::fprintf(f,
                 "    {\"isa\": \"%s\", \"lanes\": %zu, "
                 "\"neighbors\": %zu, \"targets\": %zu, "
                 "\"scalar_gflops\": %.3f, \"batched_gflops\": %.3f, "
                 "\"speedup\": %.3f, \"fraction_of_peak\": %.4f, "
                 "\"max_rel_diff\": %.3e}%s\n",
                 s.tile->isa, s.tile->lanes, s.neighbors, s.targets,
                 s.scalar_gflops, s.batched_gflops, s.speedup(),
                 s.fraction_of_peak(), s.max_rel_diff,
                 i + 1 < samples.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nWrote %zu samples to %s\n", samples.size(), path);
}

}  // namespace

int main() {
  using namespace hacc;

  std::printf("=== Fig. 5: force-evaluation kernel performance ===\n\n");

  std::printf("Measured (portable kernel, this host, single thread):\n\n");
  {
    tree::ShortRangeKernel kernel;
    kernel.fgrid = tree::default_fgrid_poly5();
    Philox rng(3);
    Philox::Stream rs(rng);
    Table t({"Neighbors", "interactions/s", "eff GFlops", "ns/interaction"});
    for (std::size_t n : {16u, 64u, 256u, 512u, 1024u, 2048u, 4096u}) {
      aligned_vector<float> xs(n), ys(n), zs(n), ms(n);
      for (std::size_t i = 0; i < n; ++i) {
        xs[i] = static_cast<float>(rs.uniform(0, 6));
        ys[i] = static_cast<float>(rs.uniform(0, 6));
        zs[i] = static_cast<float>(rs.uniform(0, 6));
        ms[i] = 1.0f;
      }
      // Enough repetitions for ~0.1s of work.
      const std::size_t reps = std::max<std::size_t>(1, 3000000 / n);
      volatile float sink = 0;
      Timer timer;
      for (std::size_t r = 0; r < reps; ++r) {
        const auto f = tree::evaluate_neighbor_list(
            kernel, 3.0f + static_cast<float>(r % 7) * 0.01f, 3.0f, 3.0f,
            xs.data(), ys.data(), zs.data(), ms.data(), n);
        sink = sink + f.x;
      }
      const double secs = timer.elapsed();
      const double rate = static_cast<double>(reps * n) / secs;
      t.add_row({Table::integer(static_cast<long long>(n)),
                 Table::sci(rate, 2),
                 Table::fixed(rate * tree::kFlopsPerInteraction / 1e9, 2),
                 Table::fixed(1e9 / rate, 2)});
    }
    std::ostringstream os;
    t.print(os);
    std::fputs(os.str().c_str(), stdout);
  }

  std::printf("\nTile instances vs scalar (one fat leaf, single thread; "
              "the batched variant runs the widest):\n\n");
  {
    tree::ShortRangeKernel kernel;
    kernel.fgrid = tree::default_fgrid_poly5();
    const auto tiles = tree::tile_kernels();
    const perfmodel::TileKernelModel model{};
    std::vector<double> peaks;
    for (const auto& tile : tiles) {
      peaks.push_back(measure_fma_peak_gflops(tile));
      std::printf("%-8s %2zu lanes: FMA peak (1 thread) %.1f GFLOP/s; tile "
                  "roofline %.0f%% -> %.1f GFLOP/s\n",
                  tile.isa, tile.lanes, peaks.back(),
                  100.0 * model.roofline_fraction(),
                  model.roofline_gflops(peaks.back()));
    }
    std::printf("\n");

    Philox rng(17);
    Philox::Stream rs(rng);
    std::vector<KernelSample> samples;
    Table t({"ISA", "Lanes", "Neighbors", "Targets", "scalar GF/s",
             "tile GF/s", "speedup", "% FMA peak", "max rel diff"});
    constexpr std::size_t kTargets = 64;  // a typical fat tree leaf
    for (std::size_t n : {64u, 256u, 512u, 1024u, 2048u}) {
      tree::ParticleArray p;
      for (std::size_t i = 0; i < kTargets; ++i) {
        p.push_back(3.0f + static_cast<float>(rs.uniform(-0.5, 0.5)),
                    3.0f + static_cast<float>(rs.uniform(-0.5, 0.5)),
                    3.0f + static_cast<float>(rs.uniform(-0.5, 0.5)), 0.0f,
                    0.0f, 0.0f, 1.0f, i);
      }
      tree::NeighborList list;
      for (std::size_t j = 0; j < n; ++j) {
        list.x.push_back(static_cast<float>(rs.uniform(0, 6)));
        list.y.push_back(static_cast<float>(rs.uniform(0, 6)));
        list.z.push_back(static_cast<float>(rs.uniform(0, 6)));
        list.m.push_back(1.0f);
      }
      std::vector<float> sx, sy, sz, bx, by, bz;
      const double scalar_gflops = time_leaf(tree::KernelVariant::kScalar,
                                             kernel, p, list, sx, sy, sz);
      for (std::size_t k = 0; k < tiles.size(); ++k) {
        KernelSample sample;
        sample.tile = &tiles[k];
        sample.fma_peak_gflops = peaks[k];
        sample.neighbors = n;
        sample.targets = kTargets;
        sample.scalar_gflops = scalar_gflops;
        sample.batched_gflops =
            time_leaf(tiles[k], kernel, p, list, bx, by, bz);
        for (std::size_t i = 0; i < kTargets; ++i) {
          const double mag =
              std::sqrt(static_cast<double>(sx[i]) * sx[i] +
                        static_cast<double>(sy[i]) * sy[i] +
                        static_cast<double>(sz[i]) * sz[i]);
          const double dx = static_cast<double>(bx[i]) - sx[i];
          const double dy = static_cast<double>(by[i]) - sy[i];
          const double dz = static_cast<double>(bz[i]) - sz[i];
          const double diff = std::sqrt(dx * dx + dy * dy + dz * dz);
          if (mag > 0 && diff / mag > sample.max_rel_diff)
            sample.max_rel_diff = diff / mag;
        }
        samples.push_back(sample);
        t.add_row({tiles[k].isa,
                   Table::integer(static_cast<long long>(tiles[k].lanes)),
                   Table::integer(static_cast<long long>(n)),
                   Table::integer(static_cast<long long>(kTargets)),
                   Table::fixed(sample.scalar_gflops, 2),
                   Table::fixed(sample.batched_gflops, 2),
                   Table::fixed(sample.speedup(), 2),
                   Table::fixed(100.0 * sample.fraction_of_peak(), 1),
                   Table::sci(sample.max_rel_diff, 1)});
      }
    }
    std::ostringstream os;
    t.print(os);
    std::fputs(os.str().c_str(), stdout);
    if (tiles.empty())
      std::printf("\n(tile path not compiled in; kBatched dispatches to "
                  "the scalar loop)\n");
    write_kernel_json("BENCH_kernel.json", model, samples);
  }

  std::printf("\nModeled BG/Q node (percent of peak vs neighbor-list size; "
              "the eight\nrank/thread configurations of Fig. 5):\n\n");
  {
    struct Config {
      int ranks, threads_total;
    };
    // (ranks/node, total threads) as labeled in Fig. 5.
    const Config configs[] = {{16, 64}, {8, 64}, {4, 64}, {2, 64},
                              {16, 16}, {8, 16}, {4, 16}, {2, 16}};
    std::vector<std::string> headers{"Neighbors"};
    for (const auto& c : configs) {
      headers.push_back(std::to_string(c.ranks) + "r/" +
                        std::to_string(c.threads_total / c.ranks) + "t");
    }
    Table t(headers);
    for (double n : {100.0, 250.0, 500.0, 1000.0, 2000.0, 3500.0, 5000.0}) {
      std::vector<std::string> row{Table::integer(static_cast<long long>(n))};
      for (const auto& c : configs) {
        const int threads_per_core = (c.ranks * (c.threads_total / c.ranks)) / 16;
        row.push_back(Table::fixed(
            100.0 * perfmodel::kernel_peak_fraction(
                        std::max(1, threads_per_core), c.ranks, n),
            1));
      }
      t.add_row(row);
    }
    std::ostringstream os;
    t.print(os);
    std::fputs(os.str().c_str(), stdout);
    std::printf("\npaper anchor: ~80%% of peak at 4 threads/core and large "
                "lists;\ntheoretical kernel maximum %.0f%% (168/208 flops)\n",
                100.0 * perfmodel::KernelInstructionMix{}
                            .theoretical_peak_fraction());
  }
  return 0;
}
