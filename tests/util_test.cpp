// Unit tests for src/util: RNG, hashing, statistics/fitting, tables, timers,
// memory.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>
#include <thread>

#include "util/aligned.h"
#include "util/error.h"
#include "util/fnv1a.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timer.h"

namespace hacc {
namespace {

// ---- aligned --------------------------------------------------------------

TEST(Aligned, VectorStorageIsAligned) {
  for (std::size_t n : {1u, 7u, 64u, 1000u}) {
    aligned_vector<float> v(n);
    EXPECT_TRUE(is_aligned(v.data()));
    aligned_vector<double> w(n);
    EXPECT_TRUE(is_aligned(w.data()));
  }
}

TEST(Aligned, AllocatorEqualityIsStateless) {
  AlignedAllocator<int> a, b;
  EXPECT_TRUE(a == b);
}

// ---- rng ------------------------------------------------------------------

TEST(Philox, DeterministicInKeyAndCounter) {
  Philox a(42, 7), b(42, 7);
  EXPECT_EQ(a.block(123, 9), b.block(123, 9));
}

TEST(Philox, DifferentCountersDiffer) {
  Philox rng(42);
  EXPECT_NE(rng.block(0), rng.block(1));
  EXPECT_NE(rng.block(0, 0), rng.block(0, 1));
}

TEST(Philox, DifferentSeedsDiffer) {
  EXPECT_NE(Philox(1).block(0), Philox(2).block(0));
  EXPECT_NE(Philox(1, 0).block(0), Philox(1, 1).block(0));
}

TEST(Philox, UniformInUnitInterval) {
  Philox rng(7);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    auto [u1, u2] = rng.uniform2(i);
    EXPECT_GE(u1, 0.0);
    EXPECT_LT(u1, 1.0);
    EXPECT_GE(u2, 0.0);
    EXPECT_LT(u2, 1.0);
  }
}

TEST(Philox, UniformMomentsMatch) {
  Philox rng(123);
  RunningStats s;
  for (std::uint64_t i = 0; i < 20000; ++i) {
    auto [u1, u2] = rng.uniform2(i);
    s.add(u1);
    s.add(u2);
  }
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
  EXPECT_NEAR(s.variance(), 1.0 / 12.0, 0.01);
}

TEST(Philox, GaussianMomentsMatch) {
  Philox rng(99);
  RunningStats s;
  for (std::uint64_t i = 0; i < 20000; ++i) {
    auto [g1, g2] = rng.gaussian2(i);
    s.add(g1);
    s.add(g2);
  }
  EXPECT_NEAR(s.mean(), 0.0, 0.03);
  EXPECT_NEAR(s.variance(), 1.0, 0.05);
}

TEST(Philox, StreamDrawsAreReproducible) {
  Philox rng(5);
  Philox::Stream s1(rng), s2(rng);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(s1.uniform(), s2.uniform());
}

TEST(Philox, StreamIndexInRange) {
  Philox rng(5);
  Philox::Stream s(rng);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    auto idx = s.index(17);
    EXPECT_LT(idx, 17u);
    seen.insert(idx);
  }
  EXPECT_EQ(seen.size(), 17u);  // all bins hit with 1000 draws
}

TEST(SplitMix, MixesAndIsConstexpr) {
  static_assert(splitmix64(1) != splitmix64(2));
  EXPECT_NE(splitmix64(0), 0u);
}

// ---- stats ----------------------------------------------------------------

TEST(RunningStats, KnownSequence) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(SolveLinear, Identity) {
  auto x = solve_linear({1, 0, 0, 1}, {3, 4});
  EXPECT_DOUBLE_EQ(x[0], 3.0);
  EXPECT_DOUBLE_EQ(x[1], 4.0);
}

TEST(SolveLinear, RequiresPivoting) {
  // First pivot is zero: forces a row swap.
  auto x = solve_linear({0, 1, 1, 0}, {5, 7});
  EXPECT_DOUBLE_EQ(x[0], 7.0);
  EXPECT_DOUBLE_EQ(x[1], 5.0);
}

TEST(SolveLinear, SingularThrows) {
  EXPECT_THROW(solve_linear({1, 2, 2, 4}, {1, 1}), Error);
}

TEST(Polyfit, RecoversExactPolynomial) {
  // y = 2 - 3x + 0.5 x^3
  std::vector<double> xs, ys;
  for (int i = 0; i <= 10; ++i) {
    const double x = -1.0 + 0.2 * i;
    xs.push_back(x);
    ys.push_back(2.0 - 3.0 * x + 0.5 * x * x * x);
  }
  auto c = polyfit(xs, ys, 3);
  ASSERT_EQ(c.size(), 4u);
  EXPECT_NEAR(c[0], 2.0, 1e-9);
  EXPECT_NEAR(c[1], -3.0, 1e-9);
  EXPECT_NEAR(c[2], 0.0, 1e-9);
  EXPECT_NEAR(c[3], 0.5, 1e-9);
}

TEST(Polyfit, PolyvalHorner) {
  const std::vector<double> c{1.0, -2.0, 3.0};  // 1 - 2x + 3x^2
  EXPECT_DOUBLE_EQ(polyval(c, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(polyval(c, 2.0), 1.0 - 4.0 + 12.0);
}

TEST(Polyfit, RejectsUnderdeterminedFit) {
  std::vector<double> xs{0.0, 1.0}, ys{0.0, 1.0};
  EXPECT_THROW(polyfit(xs, ys, 2), Error);
}

TEST(Linefit, ExactLine) {
  std::vector<double> xs{0, 1, 2, 3}, ys{1, 3, 5, 7};
  auto f = linefit(xs, ys);
  EXPECT_NEAR(f.intercept, 1.0, 1e-12);
  EXPECT_NEAR(f.slope, 2.0, 1e-12);
}

TEST(Linefit, DegenerateThrows) {
  std::vector<double> xs{2, 2, 2}, ys{1, 2, 3};
  EXPECT_THROW(linefit(xs, ys), Error);
}

// ---- table ----------------------------------------------------------------

TEST(Table, FormatsAlignedColumns) {
  Table t({"Cores", "PFlops"});
  t.add_row({"2,048", "0.018"});
  t.add_row({"1,572,864", "13.94"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("Cores"), std::string::npos);
  EXPECT_NE(s.find("13.94"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CsvRoundTrips) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::integer(1572864), "1,572,864");
  EXPECT_EQ(Table::integer(-42), "-42");
  EXPECT_EQ(Table::fixed(3.14159, 2), "3.14");
  EXPECT_EQ(Table::sci(0.000596, 2), "5.96e-04");
}

TEST(Table, RowArityChecked) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

// ---- timer ----------------------------------------------------------------

TEST(Timer, ElapsedGrows) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GT(t.elapsed(), 0.0);
}

TEST(TimerRegistry, AccumulatesPhases) {
  TimerRegistry reg;
  reg.add("kernel", 0.8);
  reg.add("walk", 0.1);
  reg.add("kernel", 0.8);
  reg.add("walk", 0.0, 2);  // a call count without time (counter snapshot)
  EXPECT_DOUBLE_EQ(reg.total("kernel"), 1.6);
  EXPECT_EQ(reg.count("kernel"), 2u);
  EXPECT_EQ(reg.count("walk"), 3u);
  EXPECT_DOUBLE_EQ(reg.grand_total(), 1.7);
  auto rows = reg.report();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].name, "kernel");  // sorted by time descending
  EXPECT_NEAR(rows[0].fraction, 1.6 / 1.7, 1e-12);
}

// ---- FNV-1a -----------------------------------------------------------------

TEST(Fnv, KnownVector) {
  // FNV-1a of "a" from the reference implementation.
  EXPECT_EQ(fnv1a("a", 1), 0xaf63dc4c8601ec8cULL);
  EXPECT_NE(fnv1a("ab", 2), fnv1a("ba", 2));
  // Chaining hashes the concatenation.
  EXPECT_EQ(fnv1a("b", 1, fnv1a("a", 1)), fnv1a("ab", 2));
}

// ---- error ----------------------------------------------------------------

TEST(Error, CheckThrowsWithLocation) {
  try {
    HACC_CHECK_MSG(false, "boom");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("util_test.cpp"), std::string::npos);
  }
}

}  // namespace
}  // namespace hacc
