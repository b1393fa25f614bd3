// Campaign-orchestrator throughput: makespan and fleet-pool utilization of
// a multi-run sweep, clean vs chaotic.
//
// Two campaigns over the same sweep (N runs x `width` ranks over a
// `fleet`-rank pool):
//
//   clean:  no injected faults — the scheduler's packing quality is the
//           utilization ceiling for this sweep shape
//   faulty: seeded rank kills and payload corruption on a third of the
//           runs — measures what the supervised recovery + elastic
//           reallocation machinery gives back (shrink-freed ranks regrant
//           to queued runs instead of idling)
//
// Headline (in BENCH_campaign.json): campaign.utilization — busy
// rank-seconds / (fleet x makespan) of the clean campaign. A scheduler
// regression (serialized grants, pool leaks, lost wakeups) shows up here
// as idle capacity, robustly to host speed.
//
// Environment knobs: HACC_CAMPAIGN_RUNS, HACC_CAMPAIGN_FLEET,
// HACC_CAMPAIGN_WIDTH, HACC_CAMPAIGN_CONCURRENT, HACC_CAMPAIGN_GRID,
// HACC_CAMPAIGN_NP, HACC_CAMPAIGN_STEPS; HACC_CAMPAIGN_KEEP=1 leaves the
// campaign roots (journal, per-run dirs) in $TMPDIR for inspection with
// scripts/campaign_summary.py.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>

#include "campaign/campaign.h"
#include "comm/fault.h"
#include "core/simulation.h"

namespace {

using namespace hacc;
namespace fs = std::filesystem;

int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atoi(v) : fallback;
}

struct CampaignResult {
  double makespan_s = 0;
  double utilization = 0;
  int launched = 0;
  int finished = 0;
  int shrink_reclaimed = 0;
  int shrink_regrant_ranks = 0;
};

CampaignResult run_campaign(const campaign::CampaignSpec& spec,
                            campaign::CampaignConfig cfg,
                            const std::string& tag) {
  cfg.root_dir = (fs::temp_directory_path() / ("hacc_bench_campaign_" + tag))
                     .string();
  fs::remove_all(cfg.root_dir);
  campaign::CampaignOrchestrator orch(spec, cfg);
  const campaign::CampaignReport rep = orch.run();
  if (env_int("HACC_CAMPAIGN_KEEP", 0) != 0)
    std::printf("  kept campaign root: %s\n", cfg.root_dir.c_str());
  else
    fs::remove_all(cfg.root_dir);
  CampaignResult r;
  r.makespan_s = rep.makespan_s;
  r.utilization = rep.utilization;
  r.launched = rep.launched;
  r.finished = rep.finished;
  r.shrink_reclaimed = rep.shrink_reclaimed;
  r.shrink_regrant_ranks = rep.shrink_regrant_ranks;
  return r;
}

}  // namespace

int main() {
  const int nruns = env_int("HACC_CAMPAIGN_RUNS", 6);
  const int fleet = env_int("HACC_CAMPAIGN_FLEET", 4);
  const int width = env_int("HACC_CAMPAIGN_WIDTH", 2);
  const int concurrent = env_int("HACC_CAMPAIGN_CONCURRENT", 2);

  campaign::CampaignSpec spec;
  spec.base.grid = static_cast<std::size_t>(env_int("HACC_CAMPAIGN_GRID", 16));
  spec.base.particles_per_dim =
      static_cast<std::size_t>(env_int("HACC_CAMPAIGN_NP", 12));
  spec.base.box_mpch = 32.0;
  spec.base.z_initial = 30.0;
  spec.base.z_final = 10.0;
  spec.base.steps = env_int("HACC_CAMPAIGN_STEPS", 4);
  spec.base.subcycles = 2;
  spec.base.overload = 3.0;
  for (int s = 0; s < nruns; ++s)
    spec.seeds.push_back(100 + static_cast<std::uint64_t>(s));
  spec.width = width;

  campaign::CampaignConfig cfg;
  cfg.fleet_ranks = fleet;
  cfg.max_concurrent_runs = concurrent;
  cfg.supervisor_retries = 1;
  cfg.elastic.rule = core::ElasticRule::kShrinkByFailed;
  cfg.elastic.min_ranks = 1;
  cfg.machine.verify_payloads = true;
  cfg.machine.recv_timeout_s = 60;
  cfg.ledger = false;  // measure the scheduler, not per-run fsync traffic

  std::printf(
      "campaign throughput: %d run(s) x %d rank(s) over a %d-rank pool "
      "(<= %d concurrent), %zu^3 grid, %zu^3 particles, %d steps\n",
      nruns, width, fleet, concurrent, spec.base.grid,
      spec.base.particles_per_dim, spec.base.steps);

  const CampaignResult clean = run_campaign(spec, cfg, "clean");

  // Chaotic variant: every third run loses a rank mid-flight, every fourth
  // takes an in-transit payload corruption.
  campaign::CampaignConfig chaotic = cfg;
  chaotic.fault_plans =
      [](const campaign::RunSpec& r) -> std::shared_ptr<comm::FaultPlan> {
    const int n = std::atoi(r.name.c_str() + 1);  // "s<seed>"
    auto plan = std::make_shared<comm::FaultPlan>();
    if (n % 3 == 0)
      plan->kill_at_step(/*rank=*/r.width - 1, /*step=*/2);
    else if (n % 4 == 0)
      plan->corrupt_send(/*rank=*/0, comm::fault::kAnyTag, /*nth=*/25);
    else
      return nullptr;
    return plan;
  };
  const CampaignResult faulty = run_campaign(spec, chaotic, "faulty");

  const double recovery_cost_pct =
      clean.makespan_s > 0
          ? 100.0 * (faulty.makespan_s / clean.makespan_s - 1.0)
          : 0.0;
  std::printf("\n  clean : makespan %7.3f s  utilization %5.3f  (%d launches)\n",
              clean.makespan_s, clean.utilization, clean.launched);
  std::printf("  faulty: makespan %7.3f s  utilization %5.3f  (%d launches, "
              "%d rank(s) shrink-reclaimed, %d regranted)\n",
              faulty.makespan_s, faulty.utilization, faulty.launched,
              faulty.shrink_reclaimed, faulty.shrink_regrant_ranks);
  std::printf("  recovery cost: %+.1f %% makespan\n", recovery_cost_pct);

  std::FILE* f = std::fopen("BENCH_campaign.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_campaign.json for writing\n");
    return 1;
  }
  std::fprintf(
      f,
      "{\n  \"bench\": \"campaign_throughput\",\n"
      "  \"runs\": %d, \"fleet_ranks\": %d, \"width\": %d,\n"
      "  \"max_concurrent\": %d, \"grid\": %zu, \"particles_per_dim\": %zu,\n"
      "  \"steps\": %d,\n"
      "  \"makespan_clean_s\": %.6f,\n"
      "  \"utilization_clean\": %.6f,\n"
      "  \"makespan_faulty_s\": %.6f,\n"
      "  \"utilization_faulty\": %.6f,\n"
      "  \"launches_faulty\": %d,\n"
      "  \"shrink_reclaimed_ranks\": %d,\n"
      "  \"shrink_regrant_ranks\": %d,\n"
      "  \"recovery_cost_pct\": %.4f\n}\n",
      nruns, fleet, width, concurrent, spec.base.grid,
      spec.base.particles_per_dim, spec.base.steps, clean.makespan_s,
      clean.utilization, faulty.makespan_s, faulty.utilization,
      faulty.launched, faulty.shrink_reclaimed, faulty.shrink_regrant_ranks,
      recovery_cost_pct);
  std::fclose(f);
  std::printf("\nWrote BENCH_campaign.json\n");
  return 0;
}
