// Tests for the observability subsystem: tracer ring + Chrome JSON export,
// counter registry and kinds, thread binding, cross-rank reduction, the
// per-step run ledger, and the end-to-end Simulation::run acceptance
// criteria (ledger phase coverage, merged trace validity).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "alloc_hook.h"
#include "comm/comm.h"
#include "core/simulation.h"
#include "obs/costmap.h"
#include "obs/counters.h"
#include "obs/json.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/reduce.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "tree/force_matcher.h"
#include "tree/interaction_batch.h"
#include "tree/particles.h"
#include "tree/rcb_tree.h"
#include "util/names.h"
#include "util/rng.h"

namespace hacc::obs {
namespace {

// ---- a minimal JSON validator ----------------------------------------------
//
// Enough of RFC 8259 to prove the exported traces and ledger lines are
// well-formed without a JSON library: values, objects, arrays, strings with
// escapes, numbers, literals. Returns true iff the whole input is one valid
// JSON value (plus surrounding whitespace).
class JsonValidator {
 public:
  static bool valid(std::string_view text) {
    JsonValidator v(text);
    return v.value() && (v.skip_ws(), v.pos_ == text.size());
  }

 private:
  explicit JsonValidator(std::string_view text) : text_(text) {}

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }
  bool eat(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }
  bool string() {
    if (!eat('"')) return false;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char e = text_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() || !std::isxdigit(text_[pos_]))
              return false;
          }
        } else if (e != '"' && e != '\\' && e != '/' && e != 'b' && e != 'f' &&
                   e != 'n' && e != 'r' && e != 't') {
          return false;
        }
      } else if (static_cast<unsigned char>(text_[pos_]) < 0x20) {
        return false;
      }
      ++pos_;
    }
    return pos_ < text_.size() && text_[pos_++] == '"';
  }
  bool number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(text_[pos_]) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }
  bool value() {
    skip_ws();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      if (eat('}')) return true;
      do {
        skip_ws();
        if (!string() || !eat(':') || !value()) return false;
      } while (eat(','));
      return eat('}');
    }
    if (c == '[') {
      ++pos_;
      if (eat(']')) return true;
      do {
        if (!value()) return false;
      } while (eat(','));
      return eat(']');
    }
    if (c == '"') return string();
    if (c == 't') return literal("true");
    if (c == 'f') return literal("false");
    if (c == 'n') return literal("null");
    return number();
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

TEST(Json, EscapeAndNumbers) {
  EXPECT_EQ(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  EXPECT_TRUE(JsonValidator::valid("\"" + json_escape("\x01\t weird") + "\""));
  EXPECT_TRUE(JsonValidator::valid(json_number(1.25e-9)));
  EXPECT_EQ(json_number(std::nan("")), "0");  // non-finite must stay valid
}

TEST(Names, InternIsIdempotentAndStable) {
  const NameId a = intern_name("obs-test-phase");
  const NameId b = intern_name("obs-test-phase");
  EXPECT_EQ(a, b);
  EXPECT_EQ(name_of(a), "obs-test-phase");
  EXPECT_NE(a, intern_name("obs-test-other"));
}

// ---- tracer -----------------------------------------------------------------

TEST(Tracer, RecordsCompleteAndInstantEventsInOrder) {
  Tracer t(64);
  t.set_enabled(true);
  const NameId na = intern_name("trc-a"), nb = intern_name("trc-b");
  t.complete(na, 1000, 500);
  t.instant(nb);
  t.complete(nb, 2000, 100);
  const auto events = t.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, na);
  EXPECT_EQ(events[0].type, Tracer::Type::kComplete);
  EXPECT_EQ(events[0].ts_ns, 1000u);
  EXPECT_EQ(events[0].dur_ns, 500u);
  EXPECT_EQ(events[1].type, Tracer::Type::kInstant);
  EXPECT_EQ(events[2].ts_ns, 2000u);
  EXPECT_EQ(t.recorded(), 3u);
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(Tracer, DisabledTracerRecordsNothing) {
  Tracer t(64);
  t.complete(intern_name("trc-x"), 0, 1);
  t.instant(intern_name("trc-x"));
  EXPECT_TRUE(t.snapshot().empty());
  EXPECT_EQ(t.recorded(), 0u);
}

TEST(Tracer, RingKeepsTheMostRecentEvents) {
  Tracer t(4);
  t.set_enabled(true);
  const NameId n = intern_name("trc-ring");
  for (std::uint64_t i = 0; i < 10; ++i) t.complete(n, i, 1);
  const auto events = t.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first: timestamps 6,7,8,9 survive.
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(events[i].ts_ns, 6 + i);
  EXPECT_EQ(t.recorded(), 10u);
  EXPECT_EQ(t.dropped(), 6u);
}

TEST(Tracer, ThreadsGetDistinctDenseTids) {
  Tracer t;
  t.set_enabled(true);
  const NameId n = intern_name("trc-threads");
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i)
    threads.emplace_back([&] { t.complete(n, 0, 1); });
  for (auto& th : threads) th.join();
  t.complete(n, 0, 1);  // this thread too
  std::set<std::uint32_t> tids;
  for (const auto& e : t.snapshot()) tids.insert(e.tid);
  EXPECT_EQ(tids.size(), 5u);
  for (std::uint32_t tid : tids) EXPECT_LT(tid, 5u);  // dense indices
}

TEST(Tracer, ExportsValidChromeTraceJson) {
  Tracer t;
  t.set_enabled(true);
  t.complete(intern_name("span \"quoted\""), 1500, 2500);
  t.instant(intern_name("marker"));
  const std::string json = "[" + t.events_json(/*pid=*/7) + "]";
  EXPECT_TRUE(JsonValidator::valid(json)) << json;
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":7"), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);

  const std::string path = temp_path("obs_single_trace.json");
  t.write_chrome_trace(path, /*pid=*/3);
  const std::string body = read_file(path);
  EXPECT_TRUE(JsonValidator::valid(body)) << body;
  std::remove(path.c_str());
}

TEST(Tracer, ConcurrentRecordingProducesValidJson) {
  Tracer t;
  t.set_enabled(true);
  const NameId n = intern_name("trc-race");
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < 200; ++i)
        t.complete(n, static_cast<std::uint64_t>(w * 1000 + i), 1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(t.recorded(), 800u);
  EXPECT_TRUE(JsonValidator::valid("[" + t.events_json(0) + "]"));
}

// ---- counters ---------------------------------------------------------------

TEST(Counters, AddSetValueSnapshot) {
  Counters c;
  const NameId ctr = counter_id("obs-test.ctr");
  const NameId g = gauge_id("obs-test.gauge");
  c.add(ctr, 3);
  c.add(ctr, 4);
  c.set(g, 99);
  c.set(g, 42);
  EXPECT_EQ(c.value(ctr), 7u);
  EXPECT_EQ(c.value(g), 42u);
  EXPECT_EQ(kind_of(ctr), CounterKind::kCounter);
  EXPECT_EQ(kind_of(g), CounterKind::kGauge);

  bool saw_ctr = false;
  for (const auto& s : c.snapshot()) {
    if (s.id == ctr) {
      saw_ctr = true;
      EXPECT_EQ(s.value, 7u);
    }
  }
  EXPECT_TRUE(saw_ctr);
  c.clear();
  EXPECT_EQ(c.value(ctr), 0u);
}

TEST(Counters, ConcurrentAddsDoNotLoseCounts) {
  Counters c;
  const NameId ctr = counter_id("obs-test.race");
  std::vector<std::thread> threads;
  for (int w = 0; w < 8; ++w) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) c.add(ctr, 1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(ctr), 80000u);
}

// ---- binding + zero-allocation disabled paths -------------------------------

TEST(Binding, NestsAndRestores) {
  EXPECT_EQ(tracer(), nullptr);
  EXPECT_EQ(counters(), nullptr);
  Tracer t1, t2;
  Counters c1;
  {
    Binding outer(&t1, &c1);
    EXPECT_EQ(tracer(), &t1);
    EXPECT_EQ(counters(), &c1);
    {
      Binding inner(&t2, nullptr);
      EXPECT_EQ(tracer(), &t2);
      EXPECT_EQ(counters(), nullptr);
    }
    EXPECT_EQ(tracer(), &t1);
    EXPECT_EQ(counters(), &c1);
  }
  EXPECT_EQ(tracer(), nullptr);
}

TEST(Binding, PhaseScopesFeedTheBoundTracer) {
  Tracer t;
  t.set_enabled(true);
  Counters c;
  const PhaseIds phase = phase_ids("obs-test.hook-phase");
  {
    Binding binding(&t, nullptr);
    PhaseScope scope(&c, phase);
  }
  const auto events = t.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, phase.name);
  EXPECT_EQ(events[0].type, Tracer::Type::kComplete);
  EXPECT_GT(c.value(phase.ns), 0u);
  EXPECT_EQ(events[0].dur_ns, c.value(phase.ns));  // one clock, two views

  // Outside the binding the same scope records time but no events.
  { PhaseScope scope(&c, phase); }
  EXPECT_EQ(t.snapshot().size(), 1u);
  EXPECT_EQ(c.value(phase.calls), 2u);
}

TEST(PhaseScope, AccumulatesNsAndCalls) {
  Counters c;
  const PhaseIds phase = phase_ids("obs-test.accumulate");
  {
    PhaseScope scope(&c, phase);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(c.value(phase.ns), 2'000'000u);
  EXPECT_EQ(c.value(phase.calls), 1u);

  // The one-argument form times into the thread-bound Counters, and into
  // nothing when none is bound.
  { PhaseScope unbound(phase); }
  EXPECT_EQ(c.value(phase.calls), 1u);
  {
    Binding binding(nullptr, &c);
    PhaseScope bound(phase);
  }
  EXPECT_EQ(c.value(phase.calls), 2u);

  // The slot spelling round-trips through phase_slot().
  EXPECT_EQ(name_of(phase.ns), "phase.obs-test.accumulate.ns");
  EXPECT_EQ(phase_slot(phase.ns).kind, PhaseSlot::kNs);
  EXPECT_EQ(phase_slot(phase.ns).phase, "obs-test.accumulate");
  EXPECT_EQ(phase_slot(phase.calls).kind, PhaseSlot::kCalls);
  EXPECT_EQ(phase_slot(phase.calls).phase, "obs-test.accumulate");
  EXPECT_EQ(phase_slot(phase.name).kind, PhaseSlot::kNone);
  EXPECT_EQ(phase_slot(counter_id("phase..ns")).kind, PhaseSlot::kNone);
}

TEST(Observability, DisabledPathsAllocateNothing) {
  const NameId phase = intern_name("obs-test.noalloc");
  const NameId ctr = counter_id("obs-test.noalloc.ctr");
  const PhaseIds timed = phase_ids("obs-test.noalloc");
  Tracer t;  // disabled
  Counters c;
  c.add(ctr, 1);

  // Unbound: TraceScope / add_counter / phase scopes must be free.
  alloc_hook::count.store(0);
  alloc_hook::armed.store(true);
  for (int i = 0; i < 1000; ++i) {
    TraceScope trace(phase);
    add_counter(ctr, 7);
    set_gauge(ctr, 7);
    PhaseScope scope(&c, timed);
    PhaseScope unbound(timed);
  }
  alloc_hook::armed.store(false);
  EXPECT_EQ(alloc_hook::count.load(), 0u);

  // Bound but tracing disabled: counters hit atomics, tracer drops events —
  // still no allocation.
  Binding binding(&t, &c);
  alloc_hook::count.store(0);
  alloc_hook::armed.store(true);
  for (int i = 0; i < 1000; ++i) {
    TraceScope trace(phase);
    add_counter(ctr, 7);
    PhaseScope scope(timed);
  }
  alloc_hook::armed.store(false);
  EXPECT_EQ(alloc_hook::count.load(), 0u);

  // Bound and *enabled*: the preallocated ring still records without
  // allocating per event.
  t.set_enabled(true);
  alloc_hook::count.store(0);
  alloc_hook::armed.store(true);
  for (int i = 0; i < 1000; ++i) {
    TraceScope trace(phase);
    add_counter(ctr, 7);
    PhaseScope scope(timed);
  }
  alloc_hook::armed.store(false);
  EXPECT_EQ(alloc_hook::count.load(), 0u);
  EXPECT_EQ(c.value(timed.calls), 3000u);  // the explicit sink + two bound loops
}

TEST(Observability, PeakRssIsReported) {
  EXPECT_GT(peak_rss_bytes(), 0u);
}

// ---- cross-rank reduction ---------------------------------------------------

TEST(Reduce, CounterReduceAcrossFourRanksIsExact) {
  const NameId everyone = counter_id("obs-test.reduce.everyone");
  const NameId only0 = counter_id("obs-test.reduce.only0");
  comm::Machine::run(4, [&](comm::Comm& c) {
    Counters mine;
    mine.add(everyone, static_cast<std::uint64_t>(c.rank()) + 1);  // 1,2,3,4
    if (c.rank() == 0) mine.add(only0, 8);
    const auto rows = reduce_counters(c, mine);
    if (c.rank() != 0) {
      EXPECT_TRUE(rows.empty());
      return;
    }
    const Reduced* ev = nullptr;
    const Reduced* o0 = nullptr;
    for (const auto& r : rows) {
      if (r.name == everyone) ev = &r;
      if (r.name == only0) o0 = &r;
    }
    ASSERT_NE(ev, nullptr);
    EXPECT_DOUBLE_EQ(ev->min, 1.0);
    EXPECT_DOUBLE_EQ(ev->max, 4.0);
    EXPECT_DOUBLE_EQ(ev->sum, 10.0);
    EXPECT_DOUBLE_EQ(ev->mean, 2.5);
    EXPECT_DOUBLE_EQ(ev->imbalance(), 1.6);
    // A value only one rank reports: the other ranks contribute zero.
    ASSERT_NE(o0, nullptr);
    EXPECT_DOUBLE_EQ(o0->min, 0.0);
    EXPECT_DOUBLE_EQ(o0->max, 8.0);
    EXPECT_DOUBLE_EQ(o0->mean, 2.0);
    EXPECT_DOUBLE_EQ(o0->imbalance(), 4.0);
  });
}

TEST(Reduce, SamplesReduceSortsByDescendingMean) {
  const NameId big = intern_name("obs-test.reduce.big");
  const NameId small = intern_name("obs-test.reduce.small");
  comm::Machine::run(3, [&](comm::Comm& c) {
    const std::vector<std::pair<NameId, double>> samples{
        {small, 0.5}, {big, 10.0 + c.rank()}};
    const auto rows = reduce_samples(
        c, std::span<const std::pair<NameId, double>>(samples));
    if (c.rank() != 0) return;
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].name, big);
    EXPECT_DOUBLE_EQ(rows[0].min, 10.0);
    EXPECT_DOUBLE_EQ(rows[0].max, 12.0);
    EXPECT_DOUBLE_EQ(rows[0].mean, 11.0);
    EXPECT_EQ(rows[1].name, small);
    EXPECT_DOUBLE_EQ(rows[1].imbalance(), 1.0);
  });
}

TEST(Reduce, MergedTraceCarriesEveryRankAsAPid) {
  const std::string path = temp_path("obs_merged_trace.json");
  const NameId n = intern_name("obs-test.merged");
  comm::Machine::run(4, [&](comm::Comm& c) {
    Tracer t;
    t.set_enabled(true);
    for (int i = 0; i <= c.rank(); ++i)
      t.complete(n, static_cast<std::uint64_t>(i) * 1000, 10);
    write_merged_trace(c, t, path);
  });
  const std::string body = read_file(path);
  ASSERT_FALSE(body.empty());
  EXPECT_TRUE(JsonValidator::valid(body)) << body.substr(0, 200);
  for (int pid = 0; pid < 4; ++pid) {
    EXPECT_NE(body.find("\"pid\":" + std::to_string(pid)), std::string::npos)
        << "rank " << pid << " missing from merged trace";
  }
  std::remove(path.c_str());
}

// ---- ledger -----------------------------------------------------------------

TEST(Ledger, PaperBreakdownRollsUpPhases) {
  std::map<std::string, PhaseStat> phases;
  auto put = [&](const char* name, double mean) {
    PhaseStat s;
    s.mean = mean;
    phases[name] = s;
  };
  put("sr-kernel", 8.0);
  put("tree-build", 1.0);
  put("poisson.fft", 0.5);
  put("cic", 0.2);
  put("lr-kick", 0.1);
  put("refresh", 0.4);
  put("grid-exchange", 0.3);
  put("poisson.remap", 0.2);
  const auto b = paper_breakdown(phases, /*wall_mean=*/11.0);
  EXPECT_DOUBLE_EQ(b.at("kernel"), 8.0);
  EXPECT_DOUBLE_EQ(b.at("walk_build"), 1.0);
  EXPECT_DOUBLE_EQ(b.at("fft"), 0.5);
  EXPECT_DOUBLE_EQ(b.at("cic"), 0.3);
  EXPECT_DOUBLE_EQ(b.at("refresh"), 0.4);
  EXPECT_DOUBLE_EQ(b.at("comm"), 0.5);
  EXPECT_NEAR(b.at("other"), 11.0 - 10.7, 1e-12);
}

TEST(Ledger, JsonlSchemaRoundTrip) {
  Ledger ledger;
  StepRecord rec;
  rec.step = 3;
  rec.a = 0.5;
  rec.z = 1.0;
  rec.wall = PhaseStat{0.9, 1.0, 1.2, 1.2};
  rec.t_per_substep_per_particle = 1.25e-7;
  rec.momentum = {1.0, -2.0, 3.0};
  rec.momentum_drift = 4.5e-6;
  rec.phases["sr-kernel"] = PhaseStat{0.7, 0.8, 0.9, 1.125};
  rec.counters["comm.alltoall.bytes_sent"] = PhaseStat{100, 150, 200, 1.33};
  rec.breakdown["kernel"] = 0.8;
  rec.peak_rss_bytes = 123456789;
  ledger.append(rec);
  rec.step = 4;
  ledger.append(rec);

  const std::string jsonl = ledger.to_jsonl();
  std::istringstream lines(jsonl);
  std::string line;
  int n = 0;
  while (std::getline(lines, line)) {
    ++n;
    EXPECT_TRUE(JsonValidator::valid(line)) << line;
    for (const char* key :
         {"\"step\"", "\"a\"", "\"z\"", "\"wall_s\"",
          "\"t_per_substep_per_particle\"", "\"momentum\"",
          "\"momentum_drift\"", "\"phases\"", "\"counters\"", "\"breakdown\"",
          "\"peak_rss_bytes\""}) {
      EXPECT_NE(line.find(key), std::string::npos) << key;
    }
  }
  EXPECT_EQ(n, 2);

  const std::string path = temp_path("obs_ledger.jsonl");
  ledger.write_jsonl(path);
  EXPECT_EQ(read_file(path), jsonl);
  std::remove(path.c_str());

  std::ostringstream table;
  ledger.print_phase_table(table);
  EXPECT_NE(table.str().find("sr-kernel"), std::string::npos);
}

// ---- end-to-end: Simulation::run produces the run ledger --------------------

TEST(SimulationLedger, FourRankRunWritesLedgerAndTrace) {
  const std::string ledger_path = temp_path("obs_sim_ledger.jsonl");
  const std::string trace_path = temp_path("obs_sim_trace.json");
  core::SimulationConfig cfg;
  cfg.grid = 16;
  cfg.particles_per_dim = 12;
  cfg.steps = 2;
  cfg.subcycles = 2;
  cfg.overload = 2.0;
  cfg.ledger_path = ledger_path;
  cfg.trace_path = trace_path;
  cosmology::Cosmology cosmo;
  comm::Machine::run(4, [&](comm::Comm& c) {
    core::Simulation sim(c, cosmo, cfg);
    sim.initialize();
    sim.run();
    if (c.rank() != 0) {
      EXPECT_TRUE(sim.ledger().empty());
      return;
    }
    const auto& records = sim.ledger().records();
    ASSERT_EQ(records.size(), 2u);
    const double np_total = std::pow(static_cast<double>(cfg.particles_per_dim), 3);
    for (const auto& rec : records) {
      EXPECT_GT(rec.wall.mean, 0.0);
      EXPECT_GE(rec.wall.max, rec.wall.mean);
      EXPECT_GE(rec.wall.mean, rec.wall.min);
      EXPECT_GE(rec.wall.imbalance, 1.0);
      // Acceptance: the top-level phases account for the step wall. The
      // structural property under test is that the instrumented phases nest
      // inside "step" and cover it — but the COVERAGE ratio is load-
      // sensitive (on an oversubscribed CI host, scheduler preemption
      // between phase scopes inflates the untimed gaps), so the floor is a
      // generous default that HACC_OBS_PHASE_COVERAGE can tighten on quiet
      // machines (e.g. 0.9 for the paper-style run).
      const char* cov_env = std::getenv("HACC_OBS_PHASE_COVERAGE");
      const double min_coverage = cov_env != nullptr ? std::atof(cov_env) : 0.5;
      double phase_sum = 0;
      for (const char* phase :
           {"cic", "grid-exchange", "poisson", "lr-kick", "stream",
            "tree-build", "sr-kernel", "refresh"}) {
        auto it = rec.phases.find(phase);
        if (it != rec.phases.end()) phase_sum += it->second.mean;
      }
      EXPECT_GT(phase_sum, 0.0);
      EXPECT_GE(phase_sum, min_coverage * rec.wall.mean);
      EXPECT_LE(phase_sum, 1.02 * rec.wall.mean);  // phases nest inside step
      // Table II's invariant is wall/subcycles/np^3.
      EXPECT_NEAR(rec.t_per_substep_per_particle,
                  rec.wall.mean / cfg.subcycles / np_total,
                  1e-12 * rec.wall.mean);
      // The instrumented layers fed counters during the step.
      EXPECT_GT(rec.counters.count("tree.pp_interactions"), 0u);
      // The gathers' pairs before the cull: never fewer than the kernel's.
      ASSERT_GT(rec.counters.count("tree.pp_listed"), 0u);
      EXPECT_GE(rec.counters.at("tree.pp_listed").mean,
                rec.counters.at("tree.pp_interactions").mean);
      EXPECT_GT(rec.counters.count("fft.transpose.bytes"), 0u);
      EXPECT_GT(rec.counters.count("comm.alltoall.bytes_sent"), 0u);
      EXPECT_GT(rec.peak_rss_bytes, 0u);
      // The poisson-internal phases arrive prefixed.
      EXPECT_GT(rec.phases.count("poisson.fft"), 0u);
      EXPECT_GT(rec.breakdown.at("kernel"), 0.0);
    }
    // Momentum drift is measured against the first step's momentum.
    EXPECT_DOUBLE_EQ(records[0].momentum_drift, 0.0);
  });

  // Ledger file: one valid JSON object per line; exactly one step record
  // per step (costmap and anomaly lines may interleave — see
  // SimulationObservatory below for their schema).
  const std::string jsonl = read_file(ledger_path);
  ASSERT_FALSE(jsonl.empty());
  std::istringstream lines(jsonl);
  std::string line;
  int n = 0;
  while (std::getline(lines, line)) {
    EXPECT_TRUE(JsonValidator::valid(line)) << line.substr(0, 120);
    if (line.find("\"wall_s\"") != std::string::npos) ++n;
  }
  EXPECT_EQ(n, 2);

  // Merged trace: a valid Chrome trace array with all four ranks as pids
  // and at least one complete event.
  const std::string trace = read_file(trace_path);
  ASSERT_FALSE(trace.empty());
  EXPECT_TRUE(JsonValidator::valid(trace)) << trace.substr(0, 200);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  for (int pid = 0; pid < 4; ++pid)
    EXPECT_NE(trace.find("\"pid\":" + std::to_string(pid)), std::string::npos);
  std::remove(ledger_path.c_str());
  std::remove(trace_path.c_str());
}

// ---- metrics core: histograms + Prometheus exposition -----------------------

TEST(Metrics, HistogramRecordsCountSumAndQuantiles) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile_ns(0.5), 0u);
  EXPECT_DOUBLE_EQ(h.mean_ns(), 0.0);
  for (int i = 0; i < 100; ++i) h.record(1000);   // bucket 9: [512, 1023]... 1000
  for (int i = 0; i < 10; ++i) h.record(1 << 20);  // ~1 ms outliers
  EXPECT_EQ(h.count(), 110u);
  EXPECT_EQ(h.sum_ns(), 100u * 1000 + 10u * (1 << 20));
  EXPECT_NEAR(h.mean_ns(), static_cast<double>(h.sum_ns()) / 110.0, 1e-9);
  // p50 lands in the 1000ns bucket, p99+ in the outlier bucket; the reported
  // value is the bucket's inclusive upper bound.
  EXPECT_LE(h.quantile_ns(0.5), 1023u);
  EXPECT_GE(h.quantile_ns(0.995), static_cast<std::uint64_t>(1 << 20));
  // Monotone in q.
  EXPECT_LE(h.quantile_ns(0.1), h.quantile_ns(0.9));
  // Extremes and zero handling.
  h.record(0);
  EXPECT_EQ(h.bucket_count(0), 1u);
  h.record(~0ULL);
  EXPECT_EQ(h.bucket_count(Histogram::kBuckets - 1), 1u);
  EXPECT_EQ(Histogram::bucket_upper_ns(Histogram::kBuckets - 1), ~0ULL);
  h.clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum_ns(), 0u);
}

TEST(Metrics, HistogramSetDropsIdsBeyondSlots) {
  HistogramSet set;
  const NameId in_range = histogram_id("obsx.hist.in_range_ns");
  ASSERT_LT(in_range, HistogramSet::kMaxSlots);
  set.record(in_range, 42);
  EXPECT_EQ(set.find(in_range)->count(), 1u);

  const NameId beyond = static_cast<NameId>(HistogramSet::kMaxSlots + 7);
  set.record(beyond, 42);  // must not crash, must not land anywhere
  EXPECT_EQ(set.find(beyond), nullptr);
  const auto ids = set.nonempty();
  EXPECT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0], in_range);
  set.clear();
  EXPECT_TRUE(set.nonempty().empty());
}

TEST(Counters, IdsBeyondSlotsAreSilentlyDropped) {
  Counters c;
  const NameId beyond = static_cast<NameId>(Counters::kMaxSlots + 3);
  c.add(beyond, 17);
  c.set(beyond, 17);
  EXPECT_EQ(c.value(beyond), 0u);
  for (const auto& s : c.snapshot()) EXPECT_LT(s.id, Counters::kMaxSlots);
}

TEST(Counters, KindRegistrationRoundTrips) {
  const NameId ctr = counter_id("obsx.kind.counter");
  const NameId gauge = gauge_id("obsx.kind.gauge");
  const NameId hist = histogram_id("obsx.kind.hist_ns");
  EXPECT_EQ(kind_of(ctr), CounterKind::kCounter);
  EXPECT_EQ(kind_of(gauge), CounterKind::kGauge);
  EXPECT_EQ(kind_of(hist), CounterKind::kHistogram);
  // Idempotent re-registration keeps id and kind.
  EXPECT_EQ(counter_id("obsx.kind.counter"), ctr);
  EXPECT_EQ(gauge_id("obsx.kind.gauge"), gauge);
  EXPECT_EQ(histogram_id("obsx.kind.hist_ns"), hist);
  EXPECT_EQ(kind_of(gauge), CounterKind::kGauge);
  // A plain interned name defaults to counter.
  EXPECT_EQ(kind_of(intern_name("obsx.kind.plain")), CounterKind::kCounter);
}

TEST(Metrics, PrometheusExpositionFormat) {
  Counters counters;
  HistogramSet hists;
  counters.add(counter_id("obsx.prom.bytes"), 1234);
  counters.set(gauge_id("obsx.prom.depth"), 7);
  counters.set(gauge_id("obsx.prom.share_micro"), 250000);  // 0.25 fixed-point
  counters.add(counter_id("phase.obsx-prom.ns"), 5000);
  const NameId hid = histogram_id("obsx.prom.lat_ns");
  hists.record(hid, 3);    // bucket le=3
  hists.record(hid, 3);
  hists.record(hid, 900);  // bucket le=1023

  const MetricsSource src{3, &counters, &hists, ""};
  const std::string text = export_prometheus(std::span<const MetricsSource>(&src, 1));

  // Counter: sanitized name + _total suffix + rank label.
  EXPECT_NE(text.find("# TYPE hacc_obsx_prom_bytes_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("hacc_obsx_prom_bytes_total{rank=\"3\"} 1234"),
            std::string::npos);
  // Gauge: bare name.
  EXPECT_NE(text.find("# TYPE hacc_obsx_prom_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("hacc_obsx_prom_depth{rank=\"3\"} 7"), std::string::npos);
  // _micro gauge: suffix stripped, value scaled to the real number.
  EXPECT_NE(text.find("hacc_obsx_prom_share{rank=\"3\"} 0.25"),
            std::string::npos);
  EXPECT_EQ(text.find("share_micro"), std::string::npos);
  // Phase counters fold into one family with the phase as a label.
  EXPECT_NE(text.find("# TYPE hacc_phase_ns_total counter"), std::string::npos);
  EXPECT_NE(
      text.find("hacc_phase_ns_total{phase=\"obsx-prom\",rank=\"3\"} 5000"),
      std::string::npos);
  // Histogram: cumulative buckets, +Inf terminator, _sum and _count.
  EXPECT_NE(text.find("# TYPE hacc_obsx_prom_lat_ns histogram"),
            std::string::npos);
  EXPECT_NE(text.find("hacc_obsx_prom_lat_ns_bucket{rank=\"3\",le=\"3\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("hacc_obsx_prom_lat_ns_bucket{rank=\"3\",le=\"1023\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("hacc_obsx_prom_lat_ns_bucket{rank=\"3\",le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("hacc_obsx_prom_lat_ns_sum{rank=\"3\"} 906"),
            std::string::npos);
  EXPECT_NE(text.find("hacc_obsx_prom_lat_ns_count{rank=\"3\"} 3"),
            std::string::npos);
  // Exactly one # TYPE line per family.
  std::size_t types = 0;
  for (std::size_t pos = text.find("# TYPE hacc_phase_ns_total");
       pos != std::string::npos;
       pos = text.find("# TYPE hacc_phase_ns_total", pos + 1))
    ++types;
  EXPECT_EQ(types, 1u);
}

TEST(Metrics, HubRegistersRendersAndRemoves) {
  Counters c0, c1;
  c0.add(counter_id("obsx.hub.events"), 10);
  c1.add(counter_id("obsx.hub.events"), 20);
  MetricsHub hub;
  const int h0 = hub.add(MetricsSource{0, &c0, nullptr, ""});
  const int h1 = hub.add(MetricsSource{1, &c1, nullptr, ""});
  EXPECT_EQ(hub.size(), 2u);
  std::string text = hub.render();
  EXPECT_NE(text.find("hacc_obsx_hub_events_total{rank=\"0\"} 10"),
            std::string::npos);
  EXPECT_NE(text.find("hacc_obsx_hub_events_total{rank=\"1\"} 20"),
            std::string::npos);
  hub.remove(h0);
  EXPECT_EQ(hub.size(), 1u);
  text = hub.render();
  EXPECT_EQ(text.find("rank=\"0\""), std::string::npos);
  EXPECT_NE(text.find("rank=\"1\""), std::string::npos);
  hub.remove(h1);
  EXPECT_EQ(hub.render(), "");
}

TEST(Metrics, HubRemoveWaitsForAnInFlightRender) {
  // A source's owner may reuse or free its sinks as soon as remove()
  // returns (a finished run destroys its Simulation), so no render may
  // still be reading them. Each round starts one render over many sources,
  // removes them all while it runs, and at once writes a slot whose id was
  // never interned into each: a render that kept reading removed sources
  // would trip name_of and throw.
  std::vector<NameId> ids;
  for (int k = 0; k < 64; ++k)
    ids.push_back(counter_id("obsx.hub.churn." + std::to_string(k)));
  const auto never_interned = static_cast<NameId>(Counters::kMaxSlots - 1);
  ASSERT_LT(interned_name_count(), Counters::kMaxSlots - 1);
  MetricsHub hub;
  int failures = 0;
  for (int round = 0; round < 20; ++round) {
    std::vector<Counters> sinks(64);
    std::vector<int> handles;
    for (std::size_t r = 0; r < sinks.size(); ++r) {
      for (const NameId id : ids) sinks[r].add(id, 1);
      handles.push_back(hub.add(
          MetricsSource{static_cast<int>(r), &sinks[r], nullptr, ""}));
    }
    std::atomic<bool> started{false};
    bool threw = false;
    std::thread scraper([&] {
      started.store(true);
      try {
        (void)hub.render();
      } catch (const std::exception&) {
        threw = true;
      }
    });
    while (!started.load()) std::this_thread::yield();
    // Let the render list the sources and start reading them.
    const auto t0 = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() - t0 <
           std::chrono::microseconds(50)) {
    }
    for (const int h : handles) hub.remove(h);
    for (Counters& c : sinks) c.set(never_interned, 1);
    scraper.join();
    failures += threw ? 1 : 0;
  }
  EXPECT_EQ(hub.size(), 0u);
  EXPECT_EQ(failures, 0) << "renders read a source after its remove()";
}

// ---- cost attribution --------------------------------------------------------

tree::ParticleArray clustered_particles(std::size_t n, float box,
                                        std::uint64_t seed, bool clustered) {
  tree::ParticleArray p;
  p.reserve(n);
  Philox rng(seed);
  Philox::Stream s(rng);
  for (std::size_t i = 0; i < n; ++i) {
    float x, y, z;
    if (clustered && i % 8 == 0) {
      // One particle in eight in one tight blob — a halo-like hot spot
      // whose leaves evaluate far more pairs than the background's, while
      // the background still dominates the mean leaf cost.
      x = std::clamp(0.5f * box + 0.04f * box * static_cast<float>(s.gaussian()),
                     0.0f, box - 1e-3f);
      y = std::clamp(0.5f * box + 0.04f * box * static_cast<float>(s.gaussian()),
                     0.0f, box - 1e-3f);
      z = std::clamp(0.5f * box + 0.04f * box * static_cast<float>(s.gaussian()),
                     0.0f, box - 1e-3f);
    } else {
      x = static_cast<float>(s.uniform(0, box));
      y = static_cast<float>(s.uniform(0, box));
      z = static_cast<float>(s.uniform(0, box));
    }
    p.push_back(x, y, z, 0.0f, 0.0f, 0.0f, 1.0f, i);
  }
  return p;
}

TEST(CostMap, ClusteredDistributionShowsLeafImbalance) {
  tree::ParticleArray p = clustered_particles(1200, 16.0f, 99, /*clustered=*/true);
  tree::ShortRangeKernel kernel;
  kernel.softening = 0.05f;
  kernel.fgrid = tree::default_fgrid_poly5();
  tree::RcbTree rcb(p, tree::RcbConfig{32});
  std::vector<float> ax(p.size()), ay(p.size()), az(p.size());

  CostMap cost;
  cost.begin_step();
  tree::InteractionStats stats;
  {
    Binding binding(nullptr, nullptr, &cost);
    stats = tree::compute_short_range(rcb, kernel, ax, ay, az);
  }

  // Every evaluated leaf left a record, and the records account for the
  // kernel's own interaction count exactly.
  const auto summary = cost.summarize();
  EXPECT_EQ(summary.leaves, rcb.leaves().size());
  EXPECT_EQ(summary.particles, p.size());
  EXPECT_EQ(summary.interactions, stats.interactions);
  EXPECT_GT(summary.kernel_ns, 0u);
  EXPECT_GE(summary.leaf_imbalance, 1.0);

  // Acceptance: the clustered blob concentrates the pairwise work — the
  // hottest leaf evaluates far more interactions than the mean leaf, and
  // the per-leaf kernel-time distribution is visibly skewed.
  std::uint64_t max_inter = 0;
  for (const auto& leaf : cost.leaves())
    max_inter = std::max(max_inter, leaf.interactions);
  const double mean_inter = static_cast<double>(summary.interactions) /
                            static_cast<double>(summary.leaves);
  EXPECT_GT(static_cast<double>(max_inter), 2.0 * mean_inter);
  EXPECT_GT(summary.leaf_imbalance, 1.2);
  EXPECT_GT(summary.top_decile_share, 0.1);
  EXPECT_GT(summary.ns_per_interaction, 0.0);

  // The same box, uniformly filled, is flatter in interaction terms.
  tree::ParticleArray u = clustered_particles(1200, 16.0f, 99, /*clustered=*/false);
  tree::RcbTree urcb(u, tree::RcbConfig{32});
  std::vector<float> ux(u.size()), uy(u.size()), uz(u.size());
  CostMap ucost;
  ucost.begin_step();
  {
    Binding binding(nullptr, nullptr, &ucost);
    tree::compute_short_range(urcb, kernel, ux, uy, uz);
  }
  std::uint64_t umax = 0;
  std::uint64_t utotal = 0;
  for (const auto& leaf : ucost.leaves()) {
    umax = std::max(umax, leaf.interactions);
    utotal += leaf.interactions;
  }
  const double umean = static_cast<double>(utotal) /
                       static_cast<double>(ucost.size());
  EXPECT_GT(static_cast<double>(max_inter) / mean_inter,
            static_cast<double>(umax) / umean);

  // begin_step drops the previous step's records but keeps working.
  cost.begin_step();
  EXPECT_EQ(cost.size(), 0u);
  EXPECT_EQ(cost.summarize().leaves, 0u);
}

TEST(CostMap, UnboundKernelRecordsNothing) {
  tree::ParticleArray p = clustered_particles(300, 8.0f, 5, false);
  tree::ShortRangeKernel kernel;
  kernel.softening = 0.05f;
  kernel.fgrid = tree::default_fgrid_poly5();
  tree::RcbTree rcb(p, tree::RcbConfig{16});
  std::vector<float> ax(p.size()), ay(p.size()), az(p.size());
  ASSERT_EQ(cost_map(), nullptr);  // no binding on this thread
  tree::compute_short_range(rcb, kernel, ax, ay, az);  // must not crash
}

TEST(Reduce, CostMapReduceNamesStragglerRank) {
  comm::Machine::run(4, [&](comm::Comm& c) {
    CostMap cm;
    cm.begin_step();
    // Rank 2 carries 10x the kernel time of everyone else.
    const std::uint64_t ns = c.rank() == 2 ? 10'000'000 : 1'000'000;
    cm.record(LeafCost{{0, 0, 0}, {1, 1, 1}, 100, 1000, ns});
    Counters counters;
    CostMapRecord rec;
    {
      Binding binding(nullptr, &counters);
      rec = reduce_cost_map(c, cm.summarize(), /*step=*/7);
    }
    // One gather carries every field: no second collective per step.
    EXPECT_EQ(counters.value(counter_id("comm.gatherv.calls")), 1u);
    for (const Counters::Sample& s : counters.snapshot()) {
      const std::string_view name = name_of(s.id);
      if (name.rfind("comm.", 0) == 0 && name.ends_with(".calls") &&
          name != "comm.gatherv.calls") {
        ADD_FAILURE() << name << " = " << s.value << " on rank " << c.rank();
      }
    }
    if (c.rank() != 0) {
      EXPECT_EQ(rec.leaves, 0u);  // reduced record lives on root only
      return;
    }
    EXPECT_EQ(rec.step, 7);
    EXPECT_EQ(rec.leaves, 4u);
    EXPECT_EQ(rec.interactions, 4000u);
    EXPECT_NEAR(rec.kernel_s, 13e-3, 1e-9);
    EXPECT_EQ(rec.straggler_rank, 2);
    // max/mean = 10 / (13/4).
    EXPECT_NEAR(rec.rank_kernel_s.imbalance, 40.0 / 13.0, 1e-6);
    EXPECT_NEAR(rec.rank_kernel_s.max, 10e-3, 1e-9);
    EXPECT_NEAR(rec.rank_interactions.imbalance, 1.0, 1e-9);
    EXPECT_NEAR(rec.ns_per_interaction, 13e6 / 4000.0, 1e-6);

    const std::string line = costmap_record_json(rec);
    EXPECT_TRUE(JsonValidator::valid(line)) << line;
    for (const char* key :
         {"\"costmap\"", "\"step\":7", "\"leaves\":4", "\"interactions\":4000",
          "\"kernel_s\"", "\"rank_kernel_s\"", "\"rank_interactions\"",
          "\"leaf_imbalance\"", "\"top_decile_share\"",
          "\"ns_per_interaction\"", "\"straggler_rank\":2"}) {
      EXPECT_NE(line.find(key), std::string::npos) << key;
    }
  });
}

// ---- drift watchdog ----------------------------------------------------------

TEST(Watchdog, FlagsStragglerAndNamesTheRank) {
  Watchdog wd;
  StepRecord rec;
  rec.wall = PhaseStat{1.0, 1.0, 1.0, 1.0};
  EXPECT_TRUE(wd.observe(rec).empty());  // flat run, no anomaly

  rec.wall = PhaseStat{0.5, 1.0, 2.0, 2.0};
  auto anomalies = wd.observe(rec);
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_EQ(anomalies[0].kind, "straggler");
  EXPECT_NEAR(anomalies[0].severity, 2.0 / 1.5, 1e-9);

  // The cost map's kernel-time imbalance dominates and names the rank.
  CostMapRecord cost;
  cost.rank_kernel_s = PhaseStat{0.1, 1.0, 3.0, 3.0};
  cost.straggler_rank = 2;
  anomalies = wd.observe(rec, &cost);
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_NE(anomalies[0].detail.find("straggler_rank=2"), std::string::npos);
  EXPECT_EQ(wd.anomalies(), 2u);
}

TEST(Watchdog, CalibratesThenFlagsModelDrift) {
  WatchdogConfig cfg;
  cfg.calibration_steps = 2;
  cfg.model_tolerance = 0.75;
  cfg.min_interactions = 100;
  Watchdog wd(cfg);
  StepRecord rec;
  rec.wall = PhaseStat{1.0, 1.0, 1.0, 1.0};
  CostMapRecord cost;
  cost.interactions = 1000;

  cost.ns_per_interaction = 10.0;
  EXPECT_TRUE(wd.observe(rec, &cost).empty());  // calibrating
  cost.ns_per_interaction = 12.0;
  EXPECT_TRUE(wd.observe(rec, &cost).empty());  // calibrating
  EXPECT_DOUBLE_EQ(wd.calibrated_ns_per_interaction(), 11.0);

  cost.ns_per_interaction = 13.0;  // 18% off — inside tolerance
  EXPECT_TRUE(wd.observe(rec, &cost).empty());

  cost.ns_per_interaction = 30.0;  // 173% off — drift
  auto anomalies = wd.observe(rec, &cost);
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_EQ(anomalies[0].kind, "model_drift");
  EXPECT_GT(anomalies[0].severity, 1.0);
  EXPECT_NE(anomalies[0].detail.find("ns/interaction"), std::string::npos);

  // Steps too small to time reliably never count, in either direction.
  cost.interactions = 10;
  cost.ns_per_interaction = 500.0;
  EXPECT_TRUE(wd.observe(rec, &cost).empty());
}

TEST(Watchdog, FlagsPhaseCoverageGap) {
  Watchdog wd;
  StepRecord rec;
  rec.wall = PhaseStat{1.0, 1.0, 1.0, 1.0};
  rec.breakdown["other"] = 0.8;  // named phases cover only 20%
  auto anomalies = wd.observe(rec);
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_EQ(anomalies[0].kind, "phase_coverage");
  rec.breakdown["other"] = 0.1;
  EXPECT_TRUE(wd.observe(rec).empty());
}

TEST(Watchdog, AnomalyLedgerLineIsValidSchema) {
  Watchdog wd;
  StepRecord rec;
  rec.wall = PhaseStat{0.5, 1.0, 2.0, 2.0};
  const auto anomalies = wd.observe(rec);
  ASSERT_EQ(anomalies.size(), 1u);
  const EventRecord ev = Watchdog::to_event(anomalies[0], /*step=*/5);
  EXPECT_EQ(ev.kind, "anomaly");
  const std::string line = event_record_json(ev);
  EXPECT_TRUE(JsonValidator::valid(line)) << line;
  EXPECT_NE(line.find("\"event\":\"anomaly\""), std::string::npos);
  EXPECT_NE(line.find("\"step\":5"), std::string::npos);
  EXPECT_NE(line.find("straggler"), std::string::npos);

  // Streamed through a ledger file it stays one valid JSONL line.
  const std::string path = temp_path("obs_anomaly.jsonl");
  Ledger::append_event_to(path, ev);
  const std::string contents = read_file(path);
  EXPECT_EQ(contents, line + "\n");
  std::remove(path.c_str());
}

// ---- end-to-end: the observatory over a real 4-rank run ---------------------

TEST(SimulationObservatory, CostKernelNsExportsAsAGauge) {
  // cost.kernel_ns is the simulation's per-step gauge. The ledger's
  // cost-map reduction labels its samples with the same name; it must not
  // re-register the name as a counter, or /metrics would export a _total
  // counter family and the ledger would difference a gauge. Runs before
  // the test below, which registers the gauge kind again itself.
  core::SimulationConfig cfg;
  cfg.grid = 16;
  cfg.particles_per_dim = 8;
  cfg.steps = 1;
  cfg.subcycles = 1;
  cfg.overload = 2.0;
  cfg.cost_attribution = true;
  cosmology::Cosmology cosmo;
  comm::Machine::run(2, [&](comm::Comm& c) {
    core::Simulation sim(c, cosmo, cfg);
    sim.initialize();
    sim.step();
    sim.record_step_ledger();
    const MetricsSource src{c.rank(), &sim.counters(), &sim.histograms(),
                            ""};
    const std::string text =
        export_prometheus(std::span<const MetricsSource>(&src, 1));
    EXPECT_NE(text.find("# TYPE hacc_cost_kernel_ns gauge"),
              std::string::npos)
        << text;
    EXPECT_EQ(text.find("hacc_cost_kernel_ns_total"), std::string::npos);
  });
}

TEST(SimulationObservatory, FourRankRunAttributesCostAndPublishesMetrics) {
  const std::string ledger_path = temp_path("obs_observatory_ledger.jsonl");
  core::SimulationConfig cfg;
  cfg.grid = 16;
  cfg.particles_per_dim = 12;
  cfg.steps = 2;
  cfg.subcycles = 2;
  cfg.overload = 2.0;
  cfg.ledger_path = ledger_path;
  cosmology::Cosmology cosmo;
  comm::Machine::run(4, [&](comm::Comm& c) {
    core::Simulation sim(c, cosmo, cfg);
    sim.initialize();
    sim.run();

    // Every rank published its step-wall histogram and phase gauges.
    const Histogram* wall = sim.histograms().find(histogram_id("step.wall_ns"));
    ASSERT_NE(wall, nullptr);
    EXPECT_EQ(wall->count(), 2u);
    EXPECT_GT(sim.counters().value(counter_id("phase.sr-kernel.ns")), 0u);
    EXPECT_GT(sim.counters().value(counter_id("phase.poisson.fft.ns")), 0u);
    // Cost gauges: imbalance is fixed-point micro, >= 1.0 by construction.
    EXPECT_GE(sim.counters().value(gauge_id("cost.leaf_imbalance_micro")),
              1000000u);
    EXPECT_GT(sim.counters().value(gauge_id("cost.kernel_ns")), 0u);
    // The kernel width behind these numbers: the dispatched tile instance.
    const tree::TileKernel* tile =
        tree::tile_kernel_for(tree::default_kernel_variant());
    const std::uint64_t lanes = tile != nullptr ? tile->lanes : 1;
    EXPECT_EQ(sim.counters().value(gauge_id("tree.kernel_lanes")), lanes);

    // A rank is a renderable /metrics source.
    const MetricsSource src{c.rank(), &sim.counters(), &sim.histograms(),
                            ""};
    const std::string text =
        export_prometheus(std::span<const MetricsSource>(&src, 1));
    EXPECT_NE(text.find("hacc_phase_ns_total{phase=\"sr-kernel\""),
              std::string::npos);
    EXPECT_NE(text.find("hacc_cost_leaf_imbalance{"), std::string::npos);
    EXPECT_NE(text.find("hacc_step_wall_ns_bucket{"), std::string::npos);
    EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
    EXPECT_NE(text.find("hacc_tree_kernel_lanes{rank=\"" +
                        std::to_string(c.rank()) + "\"} " +
                        std::to_string(lanes)),
              std::string::npos)
        << text;

    if (c.rank() != 0) return;
    // Every step record names the kernel width.
    ASSERT_EQ(sim.ledger().records().size(), 2u);
    for (const auto& rec : sim.ledger().records()) {
      const auto it = rec.counters.find("tree.kernel_lanes");
      ASSERT_NE(it, rec.counters.end());
      EXPECT_EQ(it->second.max, static_cast<double>(lanes));
      EXPECT_EQ(it->second.min, static_cast<double>(lanes));
    }
    // Root: the reduced cost map was ledgered every step.
    const auto& costmaps = sim.ledger().costmaps();
    ASSERT_EQ(costmaps.size(), 2u);
    for (const auto& cmr : costmaps) {
      EXPECT_GT(cmr.leaves, 0u);
      EXPECT_GT(cmr.interactions, 0u);
      EXPECT_GT(cmr.kernel_s, 0.0);
      EXPECT_GE(cmr.rank_kernel_s.imbalance, 1.0);
      EXPECT_GE(cmr.leaf_imbalance, 1.0);
      EXPECT_GT(cmr.ns_per_interaction, 0.0);
      EXPECT_GE(cmr.straggler_rank, 0);
      EXPECT_LT(cmr.straggler_rank, 4);
    }
  });

  // The ledger file carries both step and costmap lines, all valid JSON.
  const std::string jsonl = read_file(ledger_path);
  ASSERT_FALSE(jsonl.empty());
  std::istringstream lines(jsonl);
  std::string line;
  int steps = 0, costmaps = 0;
  while (std::getline(lines, line)) {
    EXPECT_TRUE(JsonValidator::valid(line)) << line.substr(0, 120);
    if (line.find("\"costmap\"") != std::string::npos)
      ++costmaps;
    else if (line.find("\"wall_s\"") != std::string::npos)
      ++steps;
  }
  EXPECT_EQ(steps, 2);
  EXPECT_EQ(costmaps, 2);
  std::remove(ledger_path.c_str());
}

}  // namespace
}  // namespace hacc::obs
