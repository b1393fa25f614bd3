// Table I reproduction: pencil-FFT scaling.
//
// Part 1 (measured): the real distributed pencil FFT running on the SimMPI
// substrate at container scale — strong scaling at a fixed grid and weak
// scaling at a fixed per-rank grid, for both the complex (c2c) and the
// real-to-complex half-spectrum (r2c) forward paths. The *shape* to
// reproduce: near-ideal strong scaling, near-flat weak scaling, and r2c at
// roughly half the c2c cost. Every measured row also records the plan's
// per-phase breakdown (1-D line FFTs vs transpose pack/exchange/unpack) and
// the bytes its transposes carry, and all rows are emitted to
// BENCH_fft.json for machine consumption.
//
// Set HACC_FFT_N=<grid> to append one larger measured row (e.g. 128) at 4
// ranks — the configuration quoted in the PR's before/after numbers.
//
// Part 2 (modeled): the 15 rows of the paper's Table I regenerated by the
// calibrated BG/Q cost model, printed against the paper's measured times.
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "comm/comm.h"
#include "fft/pencil.h"
#include "perfmodel/scaling_model.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using namespace hacc;
using fft::Complex;

struct FftSample {
  std::size_t n = 0;
  int ranks = 0;
  bool r2c = false;
  double wall_seconds = 0;       ///< end-to-end per forward transform
  double fft_seconds = 0;        ///< 1-D line transforms, per transform
  double transpose_seconds = 0;  ///< pack + exchange + unpack, per transform
  std::size_t bytes_moved = 0;   ///< alltoallv payload bytes, per transform
};

/// Time `repeats` forward transforms of an n^3 grid on `nranks` ranks and
/// return per-transform wall plus the plan's phase breakdown (rank 0's).
FftSample time_pencil_fft(int nranks, std::size_t n, int repeats, bool r2c) {
  FftSample s;
  s.n = n;
  s.ranks = nranks;
  s.r2c = r2c;
  comm::Machine::run(nranks, [&](comm::Comm& world) {
    auto plan = fft::PencilFft3D::balanced(world, n, n, n);
    const auto rb = plan.real_box();
    Philox rng(1);
    std::vector<double> real_local(rb.volume());
    for (std::size_t i = 0; i < real_local.size(); ++i)
      real_local[i] = rng.gaussian2(i)[0];
    std::vector<Complex> work, spec;
    // Warm up once so the persistent workspace is sized, then measure.
    if (r2c) {
      plan.forward_r2c(std::span<const double>(real_local), spec);
    } else {
      work.assign(real_local.begin(), real_local.end());
      plan.forward(work);
    }
    plan.reset_stats();
    world.barrier();
    Timer t;
    for (int r = 0; r < repeats; ++r) {
      if (r2c) {
        plan.forward_r2c(std::span<const double>(real_local), spec);
      } else {
        work.assign(real_local.begin(), real_local.end());
        plan.forward(work);
      }
    }
    world.barrier();
    if (world.rank() == 0) {
      const auto& st = plan.stats();
      s.wall_seconds = t.elapsed() / repeats;
      s.fft_seconds = st.fft_seconds / repeats;
      s.transpose_seconds = st.transpose_seconds / repeats;
      s.bytes_moved = st.bytes_moved / static_cast<std::size_t>(repeats);
    }
  });
  return s;
}

void print_samples(const char* title, const std::vector<FftSample>& rows) {
  std::printf("%s\n\n", title);
  Table t({"FFT size", "Ranks", "Path", "Wall [s]", "1-D FFT [s]",
           "Transpose [s]", "MB moved", "points/rank"});
  for (const auto& s : rows) {
    t.add_row({std::to_string(s.n) + "^3", std::to_string(s.ranks),
               s.r2c ? "r2c" : "c2c", Table::fixed(s.wall_seconds, 3),
               Table::fixed(s.fft_seconds, 3),
               Table::fixed(s.transpose_seconds, 3),
               Table::fixed(static_cast<double>(s.bytes_moved) / 1.0e6, 1),
               Table::integer(static_cast<long long>(
                   s.n * s.n * s.n / static_cast<std::size_t>(s.ranks)))});
  }
  std::ostringstream os;
  t.print(os);
  std::fputs(os.str().c_str(), stdout);
}

void write_json(const char* path, const std::vector<FftSample>& rows) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"fft_scaling\",\n  \"samples\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& s = rows[i];
    std::fprintf(f,
                 "    {\"grid\": %zu, \"ranks\": %d, \"path\": \"%s\", "
                 "\"wall_s\": %.6f, \"fft_s\": %.6f, \"transpose_s\": %.6f, "
                 "\"bytes_moved\": %zu}%s\n",
                 s.n, s.ranks, s.r2c ? "r2c" : "c2c", s.wall_seconds,
                 s.fft_seconds, s.transpose_seconds, s.bytes_moved,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nWrote %zu samples to %s\n", rows.size(), path);
}

}  // namespace

int main() {
  std::printf("=== Table I: FFT scaling ===\n\n");
  std::vector<FftSample> all;

  std::printf("Measured on the SimMPI substrate (single host; ranks are "
              "threads, so strong-scaling\nwall-clock does not drop on one "
              "core — the *per-rank work* column shows the scaling):\n\n");
  {
    std::vector<FftSample> rows;
    const std::size_t n = 48;
    for (int ranks : {1, 2, 4, 8, 16})
      for (bool r2c : {false, true})
        rows.push_back(time_pencil_fft(ranks, n, 2, r2c));
    print_samples("Strong scaling, 48^3:", rows);
    all.insert(all.end(), rows.begin(), rows.end());
  }

  {
    std::vector<FftSample> rows;
    const struct {
      std::size_t n;
      int ranks;
    } weak[] = {{32, 1}, {40, 2}, {48, 4}, {64, 8}};
    for (const auto& w : weak)
      for (bool r2c : {false, true})
        rows.push_back(time_pencil_fft(w.ranks, w.n, 2, r2c));
    print_samples("\nWeak scaling, fixed ~32^3 points per rank:", rows);
    all.insert(all.end(), rows.begin(), rows.end());
  }

  if (const char* env = std::getenv("HACC_FFT_N")) {
    const std::size_t n = std::strtoul(env, nullptr, 10);
    if (n >= 8) {
      std::vector<FftSample> rows;
      for (bool r2c : {false, true})
        rows.push_back(time_pencil_fft(4, n, 1, r2c));
      print_samples("\nHACC_FFT_N row, 4 ranks:", rows);
      all.insert(all.end(), rows.begin(), rows.end());
    }
  }

  write_json("BENCH_fft.json", all);

  std::printf("\nModeled at BG/Q scale (paper Table I):\n\n");
  {
    // Paper's measured times, same row order as fft_scaling_table().
    const double paper[] = {2.731, 1.392, 0.713, 0.354, 0.179,
                            0.098, 5.254, 6.173, 6.841, 7.359,
                            7.238, 10.36, 12.40, 14.72, 14.24};
    Table t({"FFT Size", "Ranks", "Model [s]", "Paper [s]", "ratio"});
    const auto table = perfmodel::fft_scaling_table();
    for (std::size_t i = 0; i < table.size(); ++i) {
      t.add_row({std::to_string(table[i].fft_size) + "^3",
                 Table::integer(table[i].ranks),
                 Table::fixed(table[i].seconds, 3), Table::fixed(paper[i], 3),
                 Table::fixed(table[i].seconds / paper[i], 2)});
    }
    std::ostringstream os;
    t.print(os);
    std::fputs(os.str().c_str(), stdout);
  }
  return 0;
}
