#!/usr/bin/env bash
# Tier-1 gate plus an AddressSanitizer pass over the I/O stack.
#
#   scripts/check.sh [build-dir]
#
# 1. Configure + build the default tree (any compiler warning in the build
#    output fails the step) and run the full ctest suite. Then an OpenMP
#    thread-count matrix: the zero-allocation gates (pencil
#    FFT, the block<->pencil BlockFft pair, short-range kernel,
#    duplicate-execution audit on both leaf partitions), the multi-rank
#    workspace gates (the pencil's exchange buffers on a 2x2 grid, BlockFft's
#    remap buffers at 8 ranks, where the one-rank gates exchange nothing), the
#    one-PM-solve-per-warm-step count and the
#    bit-for-bit determinism tests (checkpoint restart, fault-matrix
#    recovery, rollback of a flip in the stored long-range acceleration,
#    catalog byte identity) run again at OMP_NUM_THREADS=1 and at nproc,
#    and the short-range gate runs 10 times at OMP_NUM_THREADS=8 (more
#    threads than this host may have cores, so some get no leaf).
# 2. Configure a second tree with -DHACC_SANITIZE=address, build the I/O
#    test binaries (io_test, gio_test) and run them — the checkpoint
#    writer/reader funnels raw byte spans through threads, which is exactly
#    where ASan earns its keep. Then the short-range kernel under ASan:
#    tree_test's InteractionBatch and TreeForce suites and the whole of
#    p3m_test. The tile kernel reads 2W floats per pass (32 at 16 lanes)
#    from a list padded in place, the neighbor cull stores whole vectors
#    past its last kept entry, and the tests run every width this host
#    supports. Then the FOF halo finder under ASan (cosmology_test's
#    HaloFinder suite): its linker walks per-cell runs of one sorted array
#    with a cursor per neighbor row, where an off-by-one read would hide.
#    Then the spectral path under ASan: all of fft_test (the Stockham
#    passes index raw stage buffers and a per-thread scratch line; the
#    BoxRemap suite drives the one box remap over random layouts, packing
#    and unpacking runs with memcpy at computed offsets) and mesh_test's
#    Redistributor, BlockFft, Poisson and DistGrid suites (the block<->pencil
#    remap; the ghost sweeps copy slab runs into raw buffers).
# 3. Configure a third tree with -DHACC_SANITIZE=thread and run obs_test and
#    comm_test — the tracer ring, the counter atomics and the comm telemetry
#    thread-locals are all shared across SimMPI rank threads, so TSan gates
#    every data-race regression in the observability layer. Then the
#    spectral path under TSan: fft_test's BoxRemap and pencil suites and
#    mesh_test's Redistributor, PoissonRanks and BlockFft suites — every
#    transpose and block<->pencil remap exchanges buffers across SimMPI rank
#    threads.
#    (PencilInvariance is left out: it sets two OpenMP threads per rank,
#    which TSan cannot check, see below; ctest and ASan run it.)
#    Every TSan invocation in this script runs at OMP_NUM_THREADS=1. libgomp
#    is not built with TSan, so TSan cannot see an OpenMP team's fork/join
#    synchronization and reports every multi-thread team as races (on a
#    4-core host, TSan obs_test exits 66 with hundreds of such reports at
#    4 threads and is clean at 1). At one thread the TSan steps still race
#    the SimMPI rank threads, scrapers and servers against each other; what
#    they leave unchecked is races inside OpenMP teams. The ctest run and
#    the OpenMP matrix above run at the default and at nproc threads.
# 4. Fault matrix: the fault-injection and detection suites (rank kills,
#    dropped/corrupted messages, crafted deadlocks, supervised recovery)
#    under BOTH sanitizers — faults exercise the abort/unwind paths that
#    normal runs never touch, which is where stale pointers and racy
#    shutdowns hide.
# 5. Chaos campaign: a small fixed-seed subset of the randomized elastic
#    recovery campaigns (tests/chaos_test.cpp) under both sanitizers — the
#    shrink/relaunch/restore path tears machines down mid-flight and
#    re-launches them narrower, which is prime territory for use-after-free
#    (ASan) and teardown races (TSan).
# 6. Serve: the LRU block-cache hammer and the threaded query server under
#    TSan — the cache's sharded locking, racing cold-key loads, and the
#    server's queue/histogram/shutdown paths are all cross-thread by
#    design; plus the full serve suite under ASan (pread buffers, cache
#    eviction vs outstanding shared_ptr readers).
# 7. Observatory: the live /metrics endpoint smoke (normal build), the
#    metrics/cost-map/watchdog suites plus the HTTP endpoint under TSan
#    (scrape threads read histogram/counter atomics while rank threads
#    write them), and trace_summary.py against empty and partial traces.
# 8. Campaign: the multi-run orchestrator's journal/kill-replay/isolation
#    tests under both sanitizers, plus campaign_summary.py against a real
#    (and then deliberately torn) journal.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD="${1:-build}"
ASAN_BUILD="${BUILD}-asan"
JOBS="$(nproc 2>/dev/null || echo 4)"

# run_filtered BINARY FILTER [ARGS...]: run BINARY on the tests FILTER
# selects, and fail when it selects none. gtest runs zero tests and exits 0
# when --gtest_filter matches nothing, so a renamed suite would otherwise
# drop out of this gate silently. The list is captured before it is
# searched: under pipefail, grep -q closing the pipe early could fail the
# listing side.
run_filtered() {
  local bin="$1" filter="$2" listed
  shift 2
  listed="$("$bin" --gtest_filter="$filter" --gtest_list_tests)"
  if ! grep -q '^  ' <<<"$listed"; then
    echo "check.sh: --gtest_filter='$filter' selects no test in $bin" >&2
    exit 1
  fi
  "$bin" --gtest_filter="$filter" "$@"
}

echo "== tier-1: configure + build (${BUILD}) =="
cmake -B "$BUILD" -S . >/dev/null
# The build must be warning-free: a compiler warning in its output fails
# this step (the log is kept so the warning is shown).
BUILD_LOG="$(mktemp)"
cmake --build "$BUILD" -j "$JOBS" 2>&1 | tee "$BUILD_LOG"
if grep -q 'warning:' "$BUILD_LOG"; then
  echo "check.sh: the tier-1 build printed compiler warnings:" >&2
  grep 'warning:' "$BUILD_LOG" >&2
  rm -f "$BUILD_LOG"
  exit 1
fi
rm -f "$BUILD_LOG"

echo "== tier-1: ctest =="
ctest --test-dir "$BUILD" --output-on-failure -j 4

echo "== omp matrix: allocation gates + determinism at 1 and ${JOBS} threads =="
for threads in 1 "$JOBS"; do
  echo "-- OMP_NUM_THREADS=${threads} --"
  export OMP_NUM_THREADS="$threads"
  run_filtered "$BUILD/tests/fft_test" \
    'Pencil.SteadyStateTransformsDoNotAllocate:Pencil.WorkspaceStaysPutOnATwoByTwoGrid'
  run_filtered "$BUILD/tests/mesh_test" \
    'BlockFft.SteadyStateTransformsDoNotAllocate:BlockFft.RemapWorkspaceStaysPutAtEightRanks'
  run_filtered "$BUILD/tests/tree_test" 'TreeForce.SteadyStateShortRangeIsAllocationFree'
  run_filtered "$BUILD/tests/core_test" \
    'Simulation.CheckpointRestartReproducesRun:Simulation.OneLongRangeSolvePerWarmStep:Simulation.PowerSpectrumAfterStepsIsTheStepsDensity:Simulation.PowerSpectrumOnFreshStateIsTheFirstStepsRebuild'
  run_filtered "$BUILD/tests/audit_test" \
    'SdcRollback.AccelerationFlipDetectedAndRolledBackBitForBit:*DupExecVariant.SteadyStateAuditIsAllocationFree*'
  run_filtered "$BUILD/tests/integration_test" \
    'FaultMatrix.KilledRankAndCorruptCheckpointRecoverBitForBit'
  run_filtered "$BUILD/tests/serve_test" \
    'InSituServe.HaloCatalogIsBitStableAcrossRankCounts:InSituServe.RepeatedRunsProduceByteIdenticalCatalogFiles'
done
unset OMP_NUM_THREADS
echo "== omp matrix: short-range allocation gate x10 at 8 threads =="
OMP_NUM_THREADS=8 run_filtered "$BUILD/tests/tree_test" \
  'TreeForce.SteadyStateShortRangeIsAllocationFree' --gtest_repeat=10

echo "== asan: configure + build io_test gio_test tree_test p3m_test cosmology_test fft_test mesh_test (${ASAN_BUILD}) =="
cmake -B "$ASAN_BUILD" -S . -DHACC_SANITIZE=address >/dev/null
cmake --build "$ASAN_BUILD" -j "$JOBS" \
  --target io_test gio_test tree_test p3m_test cosmology_test fft_test \
  mesh_test

echo "== asan: io_test =="
"$ASAN_BUILD/tests/io_test"
echo "== asan: gio_test =="
"$ASAN_BUILD/tests/gio_test"
echo "== asan: short-range kernel (every tile width, tree walk, P3M) =="
run_filtered "$ASAN_BUILD/tests/tree_test" 'InteractionBatch.*:TreeForce.*'
"$ASAN_BUILD/tests/p3m_test"
echo "== asan: FOF halo finder (occupied-cell linker, subhalos) =="
run_filtered "$ASAN_BUILD/tests/cosmology_test" 'HaloFinder.*'
echo "== asan: spectral path (Stockham passes, box remap, pencil, BlockFft, ghost sweeps) =="
"$ASAN_BUILD/tests/fft_test"
run_filtered "$ASAN_BUILD/tests/mesh_test" \
  'Redistributor.*:BlockFft.*:*BlockFftRanks.*:*PoissonRanks.*:DistGrid.*'

TSAN_BUILD="${BUILD}-tsan"
echo "== tsan: configure + build obs_test comm_test (${TSAN_BUILD}) =="
cmake -B "$TSAN_BUILD" -S . -DHACC_SANITIZE=thread >/dev/null
cmake --build "$TSAN_BUILD" -j "$JOBS" --target obs_test comm_test

echo "== tsan: obs_test =="
OMP_NUM_THREADS=1 "$TSAN_BUILD/tests/obs_test"
echo "== tsan: comm_test =="
OMP_NUM_THREADS=1 "$TSAN_BUILD/tests/comm_test"

echo "== tsan: build fft_test mesh_test (${TSAN_BUILD}) =="
cmake --build "$TSAN_BUILD" -j "$JOBS" --target fft_test mesh_test
echo "== tsan: spectral path (box remap, pencil transposes, Poisson, BlockFft) =="
OMP_NUM_THREADS=1 run_filtered "$TSAN_BUILD/tests/fft_test" \
  'BoxRemap.*:Pencil.*:*PencilTest.*'
OMP_NUM_THREADS=1 run_filtered "$TSAN_BUILD/tests/mesh_test" \
  'Redistributor.*:BlockFft.*:*PoissonRanks.*:*BlockFftRanks.*'

# Fault matrix: injection/detection/recovery suites under both sanitizers.
FAULT_FILTER='FaultInjection.*:Detection.*:GioVerify.*:FaultMatrix.*:Supervisor.*:CheckpointSet.*:*HealthCheck*'
echo "== fault matrix: build (asan core_test integration_test, tsan core_test integration_test) =="
cmake --build "$ASAN_BUILD" -j "$JOBS" --target core_test integration_test
cmake --build "$TSAN_BUILD" -j "$JOBS" --target core_test integration_test

echo "== fault matrix: asan =="
run_filtered "$ASAN_BUILD/tests/gio_test" "$FAULT_FILTER"
run_filtered "$ASAN_BUILD/tests/core_test" "$FAULT_FILTER"
run_filtered "$ASAN_BUILD/tests/integration_test" "$FAULT_FILTER"

echo "== fault matrix: tsan =="
OMP_NUM_THREADS=1 run_filtered "$TSAN_BUILD/tests/comm_test" "$FAULT_FILTER"
OMP_NUM_THREADS=1 run_filtered "$TSAN_BUILD/tests/core_test" "$FAULT_FILTER"
OMP_NUM_THREADS=1 run_filtered "$TSAN_BUILD/tests/integration_test" "$FAULT_FILTER"

# Overload exchanges under TSan: migrate() and replicate() pack on the
# caller thread but neighbor_alltoallv crosses SimMPI rank threads, so the
# OverloadRanks suite (migrate/replicate exchange counts included) is the
# race gate for both particle exchanges.
echo "== tsan: overload migrate + replicate exchanges =="
OMP_NUM_THREADS=1 run_filtered "$TSAN_BUILD/tests/core_test" '*Overload*'

# Chaos campaign: elastic shrink + a seeded campaign subset. Fixed seeds
# (HACC_CHAOS_SEED base, 5 campaigns) keep the sanitizer passes deterministic
# and within CI budget; the full 20-campaign sweep runs unsanitized in ctest.
echo "== chaos: build (asan + tsan chaos_test) =="
cmake --build "$ASAN_BUILD" -j "$JOBS" --target chaos_test
cmake --build "$TSAN_BUILD" -j "$JOBS" --target chaos_test

echo "== chaos: asan =="
HACC_CHAOS_CAMPAIGNS=5 HACC_CHAOS_SEED=20120 "$ASAN_BUILD/tests/chaos_test"
echo "== chaos: tsan =="
OMP_NUM_THREADS=1 HACC_CHAOS_CAMPAIGNS=5 HACC_CHAOS_SEED=20125 "$TSAN_BUILD/tests/chaos_test"

# Serve subsystem: the block cache and query server are the repo's most
# thread-dense user-facing code paths.
echo "== serve: build (asan + tsan serve_test) =="
cmake --build "$ASAN_BUILD" -j "$JOBS" --target serve_test
cmake --build "$TSAN_BUILD" -j "$JOBS" --target serve_test

echo "== serve: asan (full suite) =="
"$ASAN_BUILD/tests/serve_test"
echo "== serve: tsan (cache hammer + threaded query service) =="
OMP_NUM_THREADS=1 run_filtered "$TSAN_BUILD/tests/serve_test" \
  'BlockCache.*:InSituServe.RunStreamsCatalogsAndAnswersQueries:InSituServe.DamagedCatalogRefusesThatQueryOnly'

# Observatory: metrics endpoint smoke in the normal build, then the whole
# metrics/cost-attribution/watchdog surface under TSan — the scraper threads
# read the same atomics the rank threads write.
echo "== observatory: metrics endpoint smoke =="
run_filtered "$BUILD/tests/serve_test" 'MetricsEndpoint.*'
echo "== observatory: tsan (metrics + costmap + watchdog + endpoint) =="
OMP_NUM_THREADS=1 run_filtered "$TSAN_BUILD/tests/obs_test" \
  'Metrics.*:CostMap.*:Watchdog.*:Reduce.CostMapReduceNamesStragglerRank:SimulationObservatory.*'
OMP_NUM_THREADS=1 run_filtered "$TSAN_BUILD/tests/serve_test" 'MetricsEndpoint.*'

# The trace summarizer must stay graceful on the traces a dead run leaves
# behind: empty arrays, truncated JSON, events missing fields.
echo "== observatory: trace_summary edge cases =="
TRACE_TMP="$(mktemp -d)"
trap 'rm -rf "$TRACE_TMP"' EXIT
echo '[]' > "$TRACE_TMP/empty.json"
printf '[{"ph":"X","name":"a","dur":100,"pid":0},{"ph":"M"},{"bogus":1}]' \
  > "$TRACE_TMP/partial.json"
printf '{"traceEvents":' > "$TRACE_TMP/truncated.json"
python3 scripts/trace_summary.py "$TRACE_TMP/empty.json"
python3 scripts/trace_summary.py "$TRACE_TMP/partial.json"
if python3 scripts/trace_summary.py "$TRACE_TMP/truncated.json" 2>/dev/null; then
  echo "trace_summary.py should reject truncated JSON" >&2
  exit 1
fi

# SDC defense: the ABFT audit suite (checksums, duplicate execution, mass
# conservation) and the in-place rollback ladder. ASan runs the whole suite
# — the memory-fault hooks literally flip bits in live arrays, so any
# indexing slip in the injection or repair path is a guaranteed ASan find.
# TSan covers the unit surface plus one end-to-end rollback: the audits
# fold into the health gate's allreduce from every rank thread.
echo "== sdc: build (asan + tsan audit_test) =="
cmake --build "$ASAN_BUILD" -j "$JOBS" --target audit_test
cmake --build "$TSAN_BUILD" -j "$JOBS" --target audit_test

echo "== sdc: asan (full audit suite) =="
"$ASAN_BUILD/tests/audit_test"
echo "== sdc: tsan (audit units + one in-place rollback campaign) =="
OMP_NUM_THREADS=1 run_filtered "$TSAN_BUILD/tests/audit_test" \
  'ParticleChecksum.*:MemoryFaults.*:AuditCost.*:SdcRollback.ParticleFlipDetectedAndRolledBackInPlaceBitForBit'

# Campaign orchestrator: the multi-run scheduler under both sanitizers. The
# orchestrator-kill/replay test exercises journal append/fsync/reseal across
# process "restarts" (fresh orchestrator over the same root), and the
# isolation test runs two supervised machines concurrently off one worker
# pool — grant/reclaim accounting, the shared MetricsHub, and the fsync'd
# journal mutex are all cross-thread. The full suite (including the 8-run
# chaos acceptance sweep) runs unsanitized in ctest.
CAMPAIGN_FILTER='CampaignJournalTest.*:CampaignSpec.*:Campaign.KilledOrchestratorResumesFromJournalWithoutRepeatingWork:Campaign.ConcurrentRunsIsolateFaults'
echo "== campaign: build (asan + tsan campaign_test) =="
cmake --build "$ASAN_BUILD" -j "$JOBS" --target campaign_test
cmake --build "$TSAN_BUILD" -j "$JOBS" --target campaign_test

echo "== campaign: asan (journal + kill/replay + isolation) =="
run_filtered "$ASAN_BUILD/tests/campaign_test" "$CAMPAIGN_FILTER"
echo "== campaign: tsan (journal + kill/replay + isolation) =="
OMP_NUM_THREADS=1 run_filtered "$TSAN_BUILD/tests/campaign_test" "$CAMPAIGN_FILTER"

# campaign_summary.py must render a real journal — produced here by the
# throughput bench with KEEP=1 — and stay graceful on the torn tail a killed
# orchestrator leaves behind.
echo "== campaign: summary tool against a live journal =="
cmake --build "$BUILD" -j "$JOBS" --target campaign_throughput
CAMP_TMP="$(mktemp -d)"
trap 'rm -rf "$TRACE_TMP" "$CAMP_TMP"' EXIT
(cd "$BUILD" && TMPDIR="$CAMP_TMP" HACC_CAMPAIGN_KEEP=1 HACC_CAMPAIGN_RUNS=4 \
  ./bench/campaign_throughput >/dev/null)
python3 scripts/campaign_summary.py "$CAMP_TMP/hacc_bench_campaign_faulty"
# Torn tail: an unterminated fragment must be skipped, not crash the parse.
printf '{"event":"fini' >> "$CAMP_TMP/hacc_bench_campaign_faulty/campaign.jsonl"
python3 scripts/campaign_summary.py "$CAMP_TMP/hacc_bench_campaign_faulty" \
  >/dev/null

echo "== check.sh: all green =="
