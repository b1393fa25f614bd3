// Tests for the serve subsystem: the sharded LRU block cache (eviction
// order, capacity accounting, CRC-refusal, concurrent hammering — the TSan
// target), the gio ranged BlockFile reader, the in-situ catalog pipeline
// end-to-end through the CatalogStore/QueryServer read path, catalog
// determinism across rank counts, and catalog survivability under a
// chaos-interrupted supervised run.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include "comm/comm.h"
#include "comm/fault.h"
#include "core/simulation.h"
#include "core/supervisor.h"
#include "cosmology/background.h"
#include "gio/gio.h"
#include "obs/counters.h"
#include "obs/metrics.h"
#include "serve/block_cache.h"
#include "serve/catalog_store.h"
#include "serve/insitu.h"
#include "serve/metrics_server.h"
#include "serve/query_server.h"
#include "util/error.h"
#include "util/rng.h"

namespace hacc::serve {
namespace {

namespace fs = std::filesystem;

std::string temp_dir(const std::string& name) {
  const std::string dir = (fs::temp_directory_path() / name).string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

CacheKey key_of(std::uint32_t block) {
  CacheKey k;
  k.block = block;
  return k;
}

/// A loader producing `size` bytes whose values encode `block` (so a torn
/// or mixed-up entry is detectable byte by byte).
std::function<std::vector<std::byte>()> loader(std::uint32_t block,
                                               std::size_t size) {
  return [block, size] {
    return std::vector<std::byte>(size,
                                  static_cast<std::byte>(block & 0xff));
  };
}

// ---- LRU block cache -------------------------------------------------------

TEST(BlockCache, EvictsLeastRecentlyUsed) {
  BlockCache cache(/*capacity_bytes=*/1024, /*shards=*/1);
  cache.get_or_load(key_of(0), loader(0, 400));  // LRU: 0
  cache.get_or_load(key_of(1), loader(1, 400));  // LRU: 1 0
  // Inserting a third 400-byte entry exceeds 1024: the *least recently
  // used* entry (0) must go, not the newest.
  cache.get_or_load(key_of(2), loader(2, 400));  // LRU: 2 1
  EXPECT_EQ(cache.peek(key_of(0)), nullptr);
  EXPECT_NE(cache.peek(key_of(1)), nullptr);
  EXPECT_NE(cache.peek(key_of(2)), nullptr);

  // Touch 1 so 2 becomes the LRU victim of the next insert.
  cache.get_or_load(key_of(1), loader(1, 400));  // LRU: 1 2
  cache.get_or_load(key_of(3), loader(3, 400));  // LRU: 3 1
  EXPECT_EQ(cache.peek(key_of(2)), nullptr);
  EXPECT_NE(cache.peek(key_of(1)), nullptr);
  EXPECT_NE(cache.peek(key_of(3)), nullptr);

  const CacheStats st = cache.stats();
  EXPECT_EQ(st.hits, 1u);       // the touch of 1
  EXPECT_EQ(st.misses, 4u);     // 0 1 2 3 cold
  EXPECT_EQ(st.evictions, 2u);  // 0 then 2
  EXPECT_EQ(st.entries, 2u);
  EXPECT_EQ(st.bytes, 800u);
  EXPECT_EQ(st.capacity_bytes, 1024u);
  EXPECT_NEAR(st.hit_rate(), 0.2, 1e-12);
}

TEST(BlockCache, CapacityAccountingAndOversizedEntries) {
  BlockCache cache(/*capacity_bytes=*/100, /*shards=*/1);
  // An entry larger than the whole shard budget is served but not retained
  // (caching it would evict everything for a one-shot read).
  const CacheBlock big = cache.get_or_load(key_of(7), loader(7, 400));
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(big->size(), 400u);
  EXPECT_EQ(cache.peek(key_of(7)), nullptr);
  CacheStats st = cache.stats();
  EXPECT_EQ(st.entries, 0u);
  EXPECT_EQ(st.bytes, 0u);
  EXPECT_EQ(st.misses, 1u);

  // Normal entries account exactly; clear() drops bytes but keeps totals.
  cache.get_or_load(key_of(1), loader(1, 30));
  cache.get_or_load(key_of(2), loader(2, 40));
  st = cache.stats();
  EXPECT_EQ(st.entries, 2u);
  EXPECT_EQ(st.bytes, 70u);
  cache.clear();
  st = cache.stats();
  EXPECT_EQ(st.entries, 0u);
  EXPECT_EQ(st.bytes, 0u);
  EXPECT_EQ(st.misses, 3u);
}

TEST(BlockCache, LoaderFailurePropagatesAndCachesNothing) {
  BlockCache cache(/*capacity_bytes=*/1024, /*shards=*/1);
  EXPECT_THROW(cache.get_or_load(
                   key_of(0),
                   []() -> std::vector<std::byte> {
                     throw Error("CRC mismatch");
                   }),
               Error);
  // The failed load counts as a miss but must not leave a poisoned entry:
  // a later good load gets real bytes.
  EXPECT_EQ(cache.peek(key_of(0)), nullptr);
  const CacheBlock b = cache.get_or_load(key_of(0), loader(0, 64));
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->size(), 64u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(BlockCache, SharedEntriesSurviveEviction) {
  BlockCache cache(/*capacity_bytes=*/256, /*shards=*/1);
  const CacheBlock held = cache.get_or_load(key_of(0), loader(0, 200));
  cache.get_or_load(key_of(1), loader(1, 200));  // evicts 0
  EXPECT_EQ(cache.peek(key_of(0)), nullptr);
  // The reader's shared_ptr keeps the evicted bytes alive and intact.
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(held->size(), 200u);
  EXPECT_EQ((*held)[0], static_cast<std::byte>(0));
}

/// The TSan target (scripts/check.sh runs this suite under
/// -fsanitize=thread): many threads hammering a small hot key space through
/// a cache far smaller than the working set, so hits, misses, racing loads
/// of the same key, and evictions all interleave.
TEST(BlockCache, ConcurrentHammerIsRaceFreeAndUntorn) {
  BlockCache cache(/*capacity_bytes=*/4 * 1024, /*shards=*/4);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;
  constexpr std::uint32_t kKeys = 64;
  std::atomic<int> bad{0};
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      Philox rng(9000 + static_cast<std::uint64_t>(t));
      Philox::Stream s(rng);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const auto block = static_cast<std::uint32_t>(
            s.uniform(0, static_cast<double>(kKeys)));
        const std::size_t size = 128 + block;  // size encodes the key too
        const CacheBlock b = cache.get_or_load(key_of(block),
                                               loader(block, size));
        if (b == nullptr || b->size() != size ||
            (*b)[0] != static_cast<std::byte>(block & 0xff))
          bad.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(bad.load(), 0);
  const CacheStats st = cache.stats();
  EXPECT_EQ(st.hits + st.misses,
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_GT(st.hits, 0u);
  EXPECT_GT(st.evictions, 0u);      // working set >> capacity
  EXPECT_LE(st.bytes, 4u * 1024u);  // never over budget at rest
}

// ---- gio ranged reads (BlockFile) ------------------------------------------

/// Write a small 3-block gio file (one block per rank) and return its path.
std::string write_ranged_fixture(const std::string& dir) {
  const std::string path = dir + "/ranged.gio";
  comm::Machine::run(3, [&](comm::Comm& c) {
    const std::size_t n = 16 + static_cast<std::size_t>(c.rank()) * 4;
    std::vector<float> x(n);
    std::vector<std::uint64_t> id(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = static_cast<float>(c.rank()) * 100.0f + static_cast<float>(i);
      id[i] = static_cast<std::uint64_t>(c.rank()) * 1000 + i;
    }
    gio::GlobalMeta meta;
    meta.scale_factor = 0.5;
    meta.box_mpch = 32.0;
    meta.grid = 16;
    const gio::WriteVar vars[] = {
        {"x", gio::VarType::kFloat32, x.data()},
        {"id", gio::VarType::kUInt64, id.data()},
    };
    gio::write(c, path, meta, n, vars);
  });
  return path;
}

TEST(BlockFileRanged, RangedReadsMatchFullReads) {
  const std::string dir = temp_dir("hacc_serve_ranged");
  const std::string path = write_ranged_fixture(dir);

  gio::BlockFile f(path);
  EXPECT_EQ(f.blocks(), 3u);
  EXPECT_EQ(f.total_rows(), 16u + 20u + 24u);
  EXPECT_EQ(f.var_names(), (std::vector<std::string>{"x", "id"}));
  EXPECT_EQ(f.var_index("id"), 1);
  EXPECT_EQ(f.var_index("nope"), -1);
  EXPECT_FALSE(f.used_redundant_header());

  for (std::size_t b = 0; b < f.blocks(); ++b) {
    const std::size_t n = 16 + b * 4;
    EXPECT_EQ(f.rows(b), n);
    EXPECT_EQ(f.sub_block_bytes(b, 0), n * sizeof(float));

    std::vector<std::byte> whole;
    ASSERT_TRUE(f.read_verified(b, 0, whole));
    ASSERT_EQ(whole.size(), n * sizeof(float));

    // A ranged read of any aligned slice returns exactly those bytes,
    // without touching the rest of the file.
    std::vector<std::byte> slice(4 * sizeof(float));
    f.read_at(b, 0, 8 * sizeof(float), slice);
    EXPECT_EQ(std::memcmp(slice.data(), whole.data() + 8 * sizeof(float),
                          slice.size()),
              0);
    float first = 0;
    f.read_at(b, 0, 0, std::span<std::byte>(
                           reinterpret_cast<std::byte*>(&first), 4));
    EXPECT_EQ(first, static_cast<float>(b) * 100.0f);
  }
  // Reads past the end of the sub-block are errors, not short reads.
  std::vector<std::byte> over(16);
  EXPECT_THROW(f.read_at(0, 0, 16 * sizeof(float), over), Error);

  // A damaged sub-block fails read_verified for exactly that sub-block.
  gio::flip_byte_in_variable(path, /*block=*/1, "x", /*byte_in_block=*/3);
  gio::BlockFile g(path);
  std::vector<std::byte> bytes;
  EXPECT_TRUE(g.read_verified(0, 0, bytes));
  EXPECT_FALSE(g.read_verified(1, 0, bytes));
  EXPECT_TRUE(g.read_verified(2, 0, bytes));
  fs::remove_all(dir);
}

// ---- in-situ pipeline end to end -------------------------------------------

/// The small workload all end-to-end tests evolve; mirrors the chaos suite.
core::SimulationConfig serve_config(const std::string& catalog_dir) {
  core::SimulationConfig cfg;
  cfg.grid = 16;
  cfg.particles_per_dim = 12;
  cfg.box_mpch = 32.0;
  cfg.z_initial = 30.0;
  cfg.z_final = 10.0;
  cfg.steps = 4;
  cfg.subcycles = 2;
  cfg.overload = 3.0;
  cfg.insitu.cadence = 2;
  cfg.insitu.output_dir = catalog_dir;
  // The short test run barely perturbs the 12^3 IC lattice, so a linking
  // length below the lattice spacing finds nothing; above it the lattice
  // percolates and the catalog reliably holds at least one (giant) halo.
  cfg.insitu.linking_length = 1.2;
  cfg.insitu.min_members = 8;
  cfg.insitu.spectrum_bins = 8;
  cfg.insitu.slice_thickness = 4.0;
  return cfg;
}

TEST(InSituServe, RunStreamsCatalogsAndAnswersQueries) {
  const std::string dir = temp_dir("hacc_serve_e2e");
  const core::SimulationConfig cfg = serve_config(dir);
  cosmology::Cosmology cosmo;
  serve::InSituReport last;
  comm::Machine::run(4, [&](comm::Comm& c) {
    core::Simulation sim(c, cosmo, cfg);
    sim.initialize();
    sim.run();
    if (c.rank() == 0) {
      // step() ran the pipeline at the cadence; counters saw it.
      EXPECT_GT(sim.counters().value(
                    obs::counter_id("insitu.catalogs_written")),
                0u);
    }
  });

  CatalogStore store(dir);
  EXPECT_EQ(store.steps(), (std::vector<int>{2, 4}));
  EXPECT_EQ(store.latest_step(), 4);
  EXPECT_EQ(store.files(), 6u);  // 3 products x 2 steps
  EXPECT_TRUE(store.verify_all());

  const std::uint64_t n_halos = store.halo_count(4);
  ASSERT_GT(n_halos, 0u);
  const auto all = store.halos_in_mass_range(
      4, 0.0f, std::numeric_limits<float>::max());
  ASSERT_EQ(all.size(), n_halos);
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end(),
                             [](const auto& a, const auto& b) {
                               return a.id < b.id;
                             }));
  for (const auto& h : all) {
    EXPECT_GE(h.count, cfg.insitu.min_members);
    EXPECT_GT(h.mass, 0.0f);
  }

  // Point lookups hit; an id that is no halo's minimum-member id misses.
  const auto hit = store.halo_by_id(4, all.front().id);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->count, all.front().count);
  EXPECT_EQ(store.halo_by_id(4, 12u * 12u * 12u + 7).has_value(), false);

  const auto pk = store.spectrum(4);
  ASSERT_GT(pk.size(), 0u);
  EXPECT_TRUE(std::is_sorted(pk.begin(), pk.end(),
                             [](const auto& a, const auto& b) {
                               return a.k < b.k;
                             }));
  // A k-window returns the subset.
  const auto windowed = store.spectrum(4, pk.front().k, pk.front().k);
  ASSERT_EQ(windowed.size(), 1u);
  EXPECT_EQ(windowed[0].power, pk.front().power);

  // The full-box region equals the whole slice; a half box is a subset.
  const float g = static_cast<float>(cfg.grid);
  const auto slab = store.region(4, {0, 0, 0}, {g, g, g});
  ASSERT_GT(slab.size(), 0u);
  for (const auto& p : slab) EXPECT_LT(p.z, cfg.insitu.slice_thickness);
  const auto half = store.region(4, {0, 0, 0}, {g / 2, g, g});
  EXPECT_LT(half.size(), slab.size());
  EXPECT_GT(half.size(), 0u);

  // The threaded server answers the same queries concurrently; step -1
  // resolves to the newest catalog.
  QueryServer server(store, QueryServer::Config{/*threads=*/4,
                                                /*max_queue=*/256});
  std::vector<std::future<QueryResult>> futs;
  for (const auto& h : all) {
    Query q;
    q.type = QueryType::kHaloById;
    q.step = -1;
    q.halo_id = h.id;
    futs.push_back(server.submit(q));
  }
  Query qs;
  qs.type = QueryType::kSpectrum;
  futs.push_back(server.submit(qs));
  Query qr;
  qr.type = QueryType::kRegion;
  qr.hi = {g, g, g};
  futs.push_back(server.submit(qr));
  for (auto& f : futs) {
    const QueryResult r = f.get();
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(r.found);
  }
  const QueryServer::Stats st = server.stats();
  EXPECT_EQ(st.served, all.size() + 2);
  EXPECT_EQ(st.failed, 0u);
  EXPECT_EQ(st.count[static_cast<int>(QueryType::kHaloById)], all.size());
  EXPECT_GE(st.p99_ms_all, st.p50_ms_all);

  // Re-issuing the hot set is served from the cache.
  const CacheStats before = store.cache().stats();
  for (const auto& h : all) {
    Query q;
    q.type = QueryType::kHaloById;
    q.halo_id = h.id;
    EXPECT_TRUE(server.query(q).found);
  }
  const CacheStats after = store.cache().stats();
  EXPECT_GT(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  fs::remove_all(dir);
}

// ---- catalog determinism ---------------------------------------------------

/// One deterministic synthetic snapshot; `part`/`parts` selects a strided
/// share so different widths partition the same global set differently.
tree::ParticleArray snapshot_share(int part, int parts, std::size_t total,
                                   double box) {
  Philox rng(777);
  Philox::Stream s(rng);
  tree::ParticleArray p;
  for (std::size_t i = 0; i < total; ++i) {
    // Clustered positions: half the particles huddle near seeded centers so
    // FOF has real work to do.
    const float x = static_cast<float>(s.uniform(0, box));
    const float y = static_cast<float>(s.uniform(0, box));
    const float z = static_cast<float>(s.uniform(0, box));
    const float vx = static_cast<float>(s.gaussian());
    const float vy = static_cast<float>(s.gaussian());
    const float vz = static_cast<float>(s.gaussian());
    if (static_cast<int>(i % static_cast<std::size_t>(parts)) != part)
      continue;
    p.push_back(x, y, z, vx, vy, vz, 1.0f, i, tree::Role::kActive);
  }
  return p;
}

/// Bit pattern of a float (exact-equality currency).
std::uint32_t bits(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, 4);
  return u;
}

/// Write catalogs for the same global snapshot at `nranks` and return every
/// halo record via the store.
std::vector<CatalogStore::HaloRecord> catalog_at_width(int nranks,
                                                       const std::string& dir) {
  constexpr std::size_t kTotal = 600;
  comm::Machine::run(nranks, [&](comm::Comm& c) {
    const tree::ParticleArray mine =
        snapshot_share(c.rank(), c.size(), kTotal, /*box=*/16.0);
    InSituConfig cfg;
    cfg.output_dir = dir;
    cfg.halos = true;
    cfg.spectrum = false;
    cfg.slice = false;
    cfg.linking_length = 0.6;
    cfg.min_members = 2;
    gio::GlobalMeta meta;
    meta.scale_factor = 1.0;
    meta.box_mpch = 32.0;
    meta.grid = 16;
    write_catalogs(c, cfg, /*step=*/1, meta, mine, {});
  });
  CatalogStore store(dir);
  return store.halos_in_mass_range(1, 0.0f,
                                   std::numeric_limits<float>::max());
}

TEST(InSituServe, HaloCatalogIsBitStableAcrossRankCounts) {
  // The same global snapshot, partitioned 1/2/4 ways, must produce
  // bit-identical halo records: the gather's order differs per width, but
  // FOF links by position only, sums members in id order, and the halos
  // are written sorted by id, so no float ever sees a width-dependent
  // summation order.
  const std::string d1 = temp_dir("hacc_serve_det1");
  const std::string d2 = temp_dir("hacc_serve_det2");
  const std::string d4 = temp_dir("hacc_serve_det4");
  const auto h1 = catalog_at_width(1, d1);
  const auto h2 = catalog_at_width(2, d2);
  const auto h4 = catalog_at_width(4, d4);
  ASSERT_GT(h1.size(), 0u);
  ASSERT_EQ(h2.size(), h1.size());
  ASSERT_EQ(h4.size(), h1.size());
  for (std::size_t i = 0; i < h1.size(); ++i) {
    for (const auto* other : {&h2, &h4}) {
      const auto& a = h1[i];
      const auto& b = (*other)[i];
      EXPECT_EQ(a.id, b.id);
      EXPECT_EQ(a.count, b.count);
      EXPECT_EQ(bits(a.mass), bits(b.mass));
      for (int d = 0; d < 3; ++d) {
        EXPECT_EQ(bits(a.center[static_cast<std::size_t>(d)]),
                  bits(b.center[static_cast<std::size_t>(d)]));
        EXPECT_EQ(bits(a.velocity[static_cast<std::size_t>(d)]),
                  bits(b.velocity[static_cast<std::size_t>(d)]));
      }
    }
  }
  fs::remove_all(d1);
  fs::remove_all(d2);
  fs::remove_all(d4);
}

TEST(InSituServe, RepeatedRunsProduceByteIdenticalCatalogFiles) {
  // Same config, same width, run twice: the catalog *files* (not just the
  // records) must match byte for byte — there is no timestamp, pointer, or
  // iteration-order noise anywhere in the format.
  auto run_once = [](const std::string& dir) {
    const core::SimulationConfig cfg = serve_config(dir);
    cosmology::Cosmology cosmo;
    comm::Machine::run(4, [&](comm::Comm& c) {
      core::Simulation sim(c, cosmo, cfg);
      sim.initialize();
      sim.run();
    });
  };
  const std::string da = temp_dir("hacc_serve_rep_a");
  const std::string db = temp_dir("hacc_serve_rep_b");
  run_once(da);
  run_once(db);
  auto slurp = [](const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in), {});
  };
  int compared = 0;
  for (const auto& entry : fs::directory_iterator(da)) {
    const std::string name = entry.path().filename().string();
    const auto a = slurp(entry.path().string());
    const auto b = slurp(db + "/" + name);
    EXPECT_EQ(a.size(), b.size()) << name;
    EXPECT_TRUE(a == b) << name << " differs between identical runs";
    ++compared;
  }
  EXPECT_EQ(compared, 6);
  fs::remove_all(da);
  fs::remove_all(db);
}

TEST(InSituServe, FofIsAPhaseOfTheInSituStep) {
  // A ledgered run with catalogs every step: each step record carries
  // FOF's phase `insitu.fof`, timed on rank 0 inside its `insitu` phase,
  // and rank 0 counts one call per catalog step.
  const std::string dir = temp_dir("hacc_serve_fof_phase");
  core::SimulationConfig cfg = serve_config(dir + "/catalogs");
  cfg.insitu.cadence = 1;
  cfg.ledger_path = dir + "/ledger.jsonl";
  cosmology::Cosmology cosmo;
  const obs::PhaseIds fof = obs::phase_ids("insitu.fof");
  const obs::PhaseIds insitu = obs::phase_ids("insitu");
  std::uint64_t fof_calls = 0;
  comm::Machine::run(4, [&](comm::Comm& c) {
    core::Simulation sim(c, cosmo, cfg);
    sim.initialize();
    sim.run();
    const obs::Counters& counters = sim.counters();
    if (c.rank() != 0) {
      EXPECT_EQ(counters.value(fof.calls), 0u);
      return;
    }
    fof_calls = counters.value(fof.calls);
    EXPECT_GT(counters.value(fof.ns), 0u);
    EXPECT_LE(counters.value(fof.ns), counters.value(insitu.ns));
    const auto& records = sim.ledger().records();
    ASSERT_EQ(records.size(), static_cast<std::size_t>(cfg.steps));
    for (const auto& rec : records) {
      ASSERT_EQ(rec.phases.count("insitu"), 1u);
      ASSERT_EQ(rec.phases.count("insitu.fof"), 1u);
      const obs::PhaseStat& step_fof = rec.phases.at("insitu.fof");
      EXPECT_GT(step_fof.max, 0.0);
      EXPECT_LE(step_fof.max, rec.phases.at("insitu").max);
    }
  });
  const CatalogStore store(dir + "/catalogs");
  EXPECT_EQ(store.steps().size(), static_cast<std::size_t>(cfg.steps));
  EXPECT_EQ(fof_calls, store.steps().size());
  fs::remove_all(dir);
}

// ---- CRC refusal through the full read path --------------------------------

TEST(InSituServe, DamagedCatalogRefusesThatQueryOnly) {
  const std::string dir = temp_dir("hacc_serve_crc");
  core::SimulationConfig cfg = serve_config(dir);
  cfg.steps = 2;
  cosmology::Cosmology cosmo;
  comm::Machine::run(2, [&](comm::Comm& c) {
    core::Simulation sim(c, cosmo, cfg);
    sim.initialize();
    sim.run();
  });

  // Damage one byte of the spectrum payload *after* the run published it.
  gio::flip_byte_in_variable(spectrum_path(dir, 2), /*block=*/0, "power");

  CatalogStore store(dir);
  std::vector<std::string> damaged;
  EXPECT_FALSE(store.verify_all(&damaged));
  ASSERT_EQ(damaged.size(), 1u);
  EXPECT_EQ(damaged[0], spectrum_path(dir, 2));

  // Direct store access refuses with a diagnosis naming the damage...
  try {
    store.spectrum(2);
    FAIL() << "corrupt spectrum was served";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("CRC mismatch"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("power"), std::string::npos);
  }
  // ...nothing corrupt was promoted into the cache: the clean "k" column
  // read before the damaged "power" one is the only resident entry, and a
  // retry re-reads (and re-refuses) the damaged sub-block instead of
  // finding a poisoned hit.
  EXPECT_EQ(store.cache().stats().entries, 1u);
  const std::uint64_t misses_before = store.cache().stats().misses;
  EXPECT_THROW(store.spectrum(2), Error);
  EXPECT_GT(store.cache().stats().misses, misses_before);
  EXPECT_EQ(store.cache().stats().entries, 1u);

  // ...and through the server the refusal fails the request, not the
  // service: halo queries against the undamaged file keep working.
  QueryServer server(store, QueryServer::Config{/*threads=*/2,
                                                /*max_queue=*/64});
  Query bad;
  bad.type = QueryType::kSpectrum;
  const QueryResult rbad = server.query(bad);
  EXPECT_FALSE(rbad.ok);
  EXPECT_NE(rbad.error.find("CRC mismatch"), std::string::npos);

  Query good;
  good.type = QueryType::kHaloMassRange;
  const QueryResult rgood = server.query(good);
  EXPECT_TRUE(rgood.ok) << rgood.error;
  EXPECT_EQ(server.stats().failed, 1u);
  fs::remove_all(dir);
}

// ---- chaos: catalogs survive an interrupted, recovered run -----------------

TEST(InSituServe, ChaosInterruptedRunLeavesServableCatalogs) {
  // A supervised run is killed mid-flight and recovers from checkpoint;
  // every catalog the (twice-started) run published must still be CRC-clean
  // and fully queryable: the atomic tmp+rename publish means an interrupted
  // in-situ write either never appears or appears whole.
  const std::string dir = temp_dir("hacc_serve_chaos");
  core::SupervisorConfig scfg;
  scfg.sim = serve_config(dir + "/catalogs");
  scfg.sim.insitu.cadence = 1;
  scfg.nranks = 4;
  scfg.checkpoint_dir = dir + "/ckpt";
  scfg.sim.ledger_path = scfg.checkpoint_dir + "/ledger.jsonl";
  scfg.checkpoint_every = 2;
  scfg.keep = 2;
  scfg.max_retries = 3;
  scfg.machine.verify_payloads = true;
  scfg.machine.recv_timeout_s = 60;
  fs::create_directories(scfg.checkpoint_dir);

  comm::FaultPlan plan;
  plan.kill_at_step(/*rank=*/2, /*step=*/3);  // checkpoint at step 2 exists
  scfg.machine.fault_plan = &plan;

  cosmology::Cosmology cosmo;
  core::Supervisor sup(cosmo, scfg);
  const core::SupervisorReport rep = sup.run();
  ASSERT_TRUE(rep.completed) << rep.last_error;
  EXPECT_EQ(rep.attempts, 2);

  CatalogStore store(dir + "/catalogs");
  EXPECT_TRUE(store.verify_all());
  // Every step of the finished run has catalogs (interrupted steps were
  // re-run after the restore and republished atomically).
  EXPECT_EQ(store.steps(), (std::vector<int>{1, 2, 3, 4}));
  QueryServer server(store);
  Query q;
  q.type = QueryType::kHaloMassRange;
  q.step = -1;
  const QueryResult r = server.query(q);
  EXPECT_TRUE(r.ok) << r.error;
  Query qr;
  qr.type = QueryType::kRegion;
  qr.hi = {16, 16, 16};
  EXPECT_TRUE(server.query(qr).ok);
  fs::remove_all(dir);
}

// ---- live metrics endpoint ---------------------------------------------------

TEST(MetricsEndpoint, ServesPrometheusAndHealthz) {
  MetricsServer::Config cfg;
  cfg.port = 0;  // ephemeral
  MetricsServer server(cfg);
  ASSERT_GT(server.port(), 0);

  obs::Counters counters;
  counters.add(obs::counter_id("servex.endpoint.events"), 42);
  obs::MetricsHub hub;
  hub.add(obs::MetricsSource{0, &counters, nullptr, ""});
  server.set_metrics_handler([&hub] { return hub.render(); });
  server.set_healthz_handler([] {
    return std::string("{\"status\":\"ok\",\"width\":4}");
  });

  int status = 0;
  const std::string metrics = http_get(server.port(), "/metrics", &status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(metrics.find("# TYPE hacc_servex_endpoint_events_total counter"),
            std::string::npos);
  EXPECT_NE(metrics.find("hacc_servex_endpoint_events_total{rank=\"0\"} 42"),
            std::string::npos);

  const std::string health = http_get(server.port(), "/healthz", &status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos);

  http_get(server.port(), "/nope", &status);
  EXPECT_EQ(status, 404);

  // Concurrent scrapes while a writer keeps bumping the counter.
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load()) counters.add(obs::counter_id("servex.endpoint.events"), 1);
  });
  std::vector<std::thread> scrapers;
  std::atomic<int> ok{0};
  for (int t = 0; t < 4; ++t) {
    scrapers.emplace_back([&] {
      for (int i = 0; i < 10; ++i) {
        int st = 0;
        const std::string body = http_get(server.port(), "/metrics", &st);
        if (st == 200 &&
            body.find("hacc_servex_endpoint_events_total") != std::string::npos)
          ok.fetch_add(1);
      }
    });
  }
  for (auto& t : scrapers) t.join();
  stop.store(true);
  writer.join();
  EXPECT_EQ(ok.load(), 40);
  EXPECT_GE(server.requests_served(), 42u);
}

// Raw-socket client for the hardening tests: sends exactly `payload` (no
// HTTP framing added) and returns whatever the server answers until it
// closes. http_get can't produce malformed traffic, so this can.
std::string raw_exchange(int port, const std::string& payload,
                         bool shutdown_write = true) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::size_t sent = 0;
  while (sent < payload.size()) {
    const ssize_t n =
        ::send(fd, payload.data() + sent, payload.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  // Model the client being done (or dead): half-close so the server's recv
  // sees EOF instead of waiting out its timeout.
  if (shutdown_write) ::shutdown(fd, SHUT_WR);
  std::string resp;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    resp.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return resp;
}

TEST(MetricsEndpoint, SurvivesMalformedAndHostileClients) {
  MetricsServer::Config cfg;
  cfg.port = 0;
  MetricsServer server(cfg);
  server.set_metrics_handler([] { return std::string("ok 1\n"); });
  server.set_healthz_handler([] { return std::string("{}"); });

  // Connect-and-leave: no bytes sent. No response owed, no worker wedged.
  EXPECT_EQ(raw_exchange(server.port(), ""), "");

  // Partial request line, then the client dies: 400, not a handler
  // dispatch on the half-read path.
  EXPECT_NE(raw_exchange(server.port(), "GET /met").find("400 Bad Request"),
            std::string::npos);

  // Binary garbage and non-GET methods: 400.
  EXPECT_NE(raw_exchange(server.port(), "\x01\x02\xff\r\n\r\n")
                .find("400 Bad Request"),
            std::string::npos);
  EXPECT_NE(raw_exchange(server.port(), "POST /metrics HTTP/1.0\r\n\r\n")
                .find("400 Bad Request"),
            std::string::npos);
  EXPECT_NE(
      raw_exchange(server.port(), "GET \r\n\r\n").find("400 Bad Request"),
      std::string::npos);

  // Header flood past the 16 KiB cap, never terminated: 400, bounded read.
  std::string flood = "GET /metrics HTTP/1.0\r\n";
  flood.append(64 * 1024, 'x');
  EXPECT_NE(raw_exchange(server.port(), flood).find("400 Bad Request"),
            std::string::npos);

  EXPECT_GE(server.requests_rejected(), 6u);

  // A well-formed request for an unknown path is still a 404 — 400 is
  // reserved for requests we could not even parse.
  int status = 0;
  http_get(server.port(), "/nope", &status);
  EXPECT_EQ(status, 404);

  // The pool survives a burst of abuse and still answers real scrapes.
  std::vector<std::thread> abusers;
  for (int t = 0; t < 8; ++t) {
    abusers.emplace_back([&, t] {
      for (int i = 0; i < 5; ++i)
        raw_exchange(server.port(), t % 2 == 0 ? "" : "junk\r\n\r\n");
    });
  }
  for (auto& t : abusers) t.join();
  const std::string body = http_get(server.port(), "/metrics", &status);
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "ok 1\n");
}

TEST(MetricsEndpoint, LiveScrapeDuringSupervisedRun) {
  // Acceptance: a 4-rank supervised run is scraped over HTTP while the
  // machine is up. /metrics must expose per-phase timings, the cost-map
  // imbalance gauges, and (once a query service rides on the run) the
  // cache counters and query-latency histograms; /healthz must report the
  // run's width and checkpoint progress.
  const std::string dir = temp_dir("hacc_serve_metrics_live");
  core::SupervisorConfig scfg;
  scfg.sim = serve_config(dir + "/catalogs");
  scfg.nranks = 4;
  scfg.checkpoint_dir = dir + "/ckpt";
  scfg.sim.ledger_path = scfg.checkpoint_dir + "/ledger.jsonl";
  scfg.checkpoint_every = 2;
  scfg.metrics_port = 0;  // ephemeral loopback
  fs::create_directories(scfg.checkpoint_dir);

  cosmology::Cosmology cosmo;
  core::Supervisor sup(cosmo, scfg);
  sup.on_finished = [&](core::Simulation&, comm::Comm& c) {
    // Hold every rank inside the attempt while rank 0 scrapes, so all four
    // rank sources stay registered in the hub for the live scrape.
    c.barrier();
    if (c.rank() != 0) {
      c.barrier();
      return;
    }
    const int port = sup.metrics_port();
    ASSERT_GT(port, 0);

    // Mid-attempt scrape: all four ranks' sinks are registered.
    int status = 0;
    std::string text = http_get(port, "/metrics", &status);
    ASSERT_EQ(status, 200);
    for (int rank = 0; rank < 4; ++rank)
      EXPECT_NE(text.find("rank=\"" + std::to_string(rank) + "\""),
                std::string::npos);
    EXPECT_NE(text.find("hacc_phase_ns_total{phase=\"sr-kernel\""),
              std::string::npos);
    EXPECT_NE(text.find("hacc_phase_ns_total{phase=\"poisson.fft\""),
              std::string::npos);
    EXPECT_NE(text.find("hacc_cost_leaf_imbalance{"), std::string::npos);
    EXPECT_NE(text.find("hacc_cost_ns_per_interaction{"), std::string::npos);
    EXPECT_NE(text.find("hacc_step_wall_ns_bucket{"), std::string::npos);

    std::string health = http_get(port, "/healthz", &status);
    ASSERT_EQ(status, 200);
    EXPECT_NE(health.find("\"status\":\"running\""), std::string::npos);
    EXPECT_NE(health.find("\"width\":4"), std::string::npos);
    EXPECT_NE(health.find("\"step\":4"), std::string::npos);
    EXPECT_NE(health.find("\"last_checkpoint_step\":4"), std::string::npos);
    EXPECT_NE(health.find("\"anomalies\":"), std::string::npos);

    // A query service rides on the live run: its cache counters and
    // latency histograms join the same hub and the next scrape sees them.
    obs::Counters qcounters;
    obs::HistogramSet qhists;
    CatalogStore store(scfg.sim.insitu.output_dir);
    QueryServer::Config qcfg;
    qcfg.threads = 2;
    qcfg.counters = &qcounters;
    qcfg.histograms = &qhists;
    QueryServer qserver(store, qcfg);
    const int handle =
        sup.metrics_hub().add(obs::MetricsSource{0, &qcounters, &qhists, ""});
    Query q;
    q.type = QueryType::kHaloMassRange;
    q.step = -1;
    EXPECT_TRUE(qserver.query(q).ok);
    Query qr;
    qr.type = QueryType::kRegion;
    qr.hi = {16, 16, 16};
    EXPECT_TRUE(qserver.query(qr).ok);

    text = http_get(port, "/metrics", &status);
    ASSERT_EQ(status, 200);
    EXPECT_NE(text.find("hacc_serve_cache_"), std::string::npos);
    EXPECT_NE(text.find("hacc_serve_query_all_ns_bucket{"), std::string::npos);
    EXPECT_NE(text.find("hacc_serve_query_all_ns_count{"), std::string::npos);
    sup.metrics_hub().remove(handle);
    c.barrier();  // release the other ranks
  };
  const core::SupervisorReport rep = sup.run();
  ASSERT_TRUE(rep.completed) << rep.last_error;

  // The endpoint outlives the attempt: after completion /healthz flips to
  // ok and the rank sources are gone from /metrics.
  int status = 0;
  const std::string health = http_get(sup.metrics_port(), "/healthz", &status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(health.find("\"completed\":true"), std::string::npos);
  const std::string text = http_get(sup.metrics_port(), "/metrics", &status);
  EXPECT_EQ(status, 200);
  EXPECT_EQ(text.find("hacc_phase_ns_total"), std::string::npos);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace hacc::serve
