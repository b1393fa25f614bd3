// Observatory overhead: the cost of leaving the continuous performance
// observatory on. Runs the same small multi-rank Simulation twice —
//
//   base: run ledger only (cost attribution, watchdog and live metrics off)
//   full: cost attribution + drift watchdog + live /metrics endpoint with a
//         scraper polling it throughout the run (the production shape)
//
// best-of-N reps each — base/full reps interleave so slow host drift
// cancels instead of masquerading as overhead — and reports the steps/sec
// of both plus the overhead percentage (also in BENCH_obs.json). The
// acceptance bar is overhead < 2% absolute:
// per-leaf timing is one util::now_ns pair around kernel work that dwarfs
// it, metric publication is a handful of atomic stores per step, and a
// scrape never takes a lock a rank thread holds. The scrape cadence
// defaults to 1 s (dashboards poll at 1-15 s; Prometheus' default scrape
// interval is 15 s) — on a single-core host the render is serialized
// against the ranks, so an unrealistically hot cadence measures scraper
// CPU, not observatory overhead.
//
// Environment knobs: HACC_OBS_RANKS, HACC_OBS_GRID, HACC_OBS_NP,
// HACC_OBS_STEPS, HACC_OBS_SUBCYCLES, HACC_OBS_REPS, HACC_OBS_SCRAPE_MS.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "comm/comm.h"
#include "core/simulation.h"
#include "obs/metrics.h"
#include "serve/metrics_server.h"
#include "util/timer.h"

namespace {

using namespace hacc;

int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atoi(v) : fallback;
}

struct RunResult {
  double steps_per_sec = 0;
};

/// One timed run; when `hub` is set every rank registers its sinks there
/// for the duration (the live-scrape shape).
RunResult timed_run(int ranks, const core::SimulationConfig& cfg,
                    const cosmology::Cosmology& cosmo, obs::MetricsHub* hub) {
  RunResult out;
  comm::Machine::run(ranks, [&](comm::Comm& c) {
    core::Simulation sim(c, cosmo, cfg);
    sim.initialize();
    int handle = -1;
    if (hub != nullptr)
      handle = hub->add(
          obs::MetricsSource{c.rank(), &sim.counters(), &sim.histograms(), ""});
    c.barrier();
    Timer t;
    sim.run();
    c.barrier();
    if (c.rank() == 0)
      out.steps_per_sec = static_cast<double>(cfg.steps) / t.elapsed();
    if (hub != nullptr) hub->remove(handle);
  });
  return out;
}

}  // namespace

int main() {
  const int ranks = env_int("HACC_OBS_RANKS", 4);
  const int reps = env_int("HACC_OBS_REPS", 5);
  const int scrape_ms = env_int("HACC_OBS_SCRAPE_MS", 1000);

  core::SimulationConfig base;
  base.grid = static_cast<std::size_t>(env_int("HACC_OBS_GRID", 24));
  base.particles_per_dim = static_cast<std::size_t>(env_int("HACC_OBS_NP", 16));
  base.steps = env_int("HACC_OBS_STEPS", 6);
  base.subcycles = env_int("HACC_OBS_SUBCYCLES", 2);
  base.overload = 2.0;
  base.ledger_path = "BENCH_obs_ledger_base.jsonl";
  base.cost_attribution = false;
  base.watchdog = false;

  core::SimulationConfig full = base;
  full.ledger_path = "BENCH_obs_ledger_full.jsonl";
  full.cost_attribution = true;
  full.watchdog = true;

  cosmology::Cosmology cosmo;
  std::printf(
      "Observatory overhead: %d ranks, %zu^3 grid, %zu^3 particles, "
      "%d steps x %d subcycles, best of %d\n",
      ranks, base.grid, base.particles_per_dim, base.steps, base.subcycles,
      reps);

  // Full observatory: live endpoint up, scraper polling it at a dashboard
  // cadence whenever a full rep is in flight. Base and full reps alternate
  // so a drifting host taxes both sides equally.
  obs::MetricsHub hub;
  serve::MetricsServer server(serve::MetricsServer::Config{});
  server.set_metrics_handler([&hub] { return hub.render(); });
  std::atomic<bool> stop{false};
  std::atomic<bool> scraping{false};
  std::atomic<std::uint64_t> scrapes{0};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      if (scraping.load(std::memory_order_relaxed)) {
        int status = 0;
        serve::http_get(server.port(), "/metrics", &status);
        if (status == 200) scrapes.fetch_add(1, std::memory_order_relaxed);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(scrape_ms));
    }
  });

  double base_sps = 0;
  double full_sps = 0;
  for (int r = 0; r < reps; ++r) {
    base_sps =
        std::max(base_sps, timed_run(ranks, base, cosmo, nullptr).steps_per_sec);
    scraping.store(true);
    full_sps =
        std::max(full_sps, timed_run(ranks, full, cosmo, &hub).steps_per_sec);
    scraping.store(false);
  }
  stop.store(true);
  scraper.join();

  const double overhead_pct = base_sps > 0
                                  ? 100.0 * (1.0 - full_sps / base_sps)
                                  : 0.0;
  std::printf("\n  base (ledger only):   %8.3f steps/s\n", base_sps);
  std::printf("  full (observatory):   %8.3f steps/s\n", full_sps);
  std::printf("  overhead:             %8.2f %%   (%llu scrapes served)\n",
              overhead_pct,
              static_cast<unsigned long long>(scrapes.load()));

  std::FILE* f = std::fopen("BENCH_obs.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_obs.json for writing\n");
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"obs_overhead\",\n"
               "  \"ranks\": %d, \"grid\": %zu, \"particles_per_dim\": %zu,\n"
               "  \"steps\": %d, \"subcycles\": %d, \"reps\": %d,\n"
               "  \"steps_per_sec_base\": %.6f,\n"
               "  \"steps_per_sec_full\": %.6f,\n"
               "  \"overhead_pct\": %.4f,\n"
               "  \"scrapes\": %llu\n}\n",
               ranks, base.grid, base.particles_per_dim, base.steps,
               base.subcycles, reps, base_sps, full_sps, overhead_pct,
               static_cast<unsigned long long>(scrapes.load()));
  std::fclose(f);
  std::printf("\nWrote BENCH_obs.json\n");
  std::remove(base.ledger_path.c_str());
  std::remove(full.ledger_path.c_str());
  return 0;
}
