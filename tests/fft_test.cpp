// Tests for the FFT stack: 1-D mixed-radix + Bluestein, serial 3-D, the box
// remap every layout change runs through (random layouts on 1-6 ranks, the
// pencil's transposes, block <-> pencil), and the distributed pencil
// transform (validated against the serial one over sweeps of grid sizes and
// process-grid shapes, 1 x P slab grids included).
#include <gtest/gtest.h>

#include <omp.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <complex>
#include <cstring>
#include <limits>
#include <numbers>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "alloc_hook.h"
#include "comm/cart.h"
#include "comm/comm.h"
#include "comm/telemetry.h"
#include "fft/box_remap.h"
#include "fft/decomp.h"
#include "fft/fft1d.h"
#include "fft/fft3d_local.h"
#include "fft/pencil.h"
#include "obs/counters.h"
#include "obs/obs.h"
#include "util/error.h"
#include "util/rng.h"

namespace hacc::fft {
namespace {

std::vector<Complex> random_signal(std::size_t n, std::uint64_t seed) {
  Philox rng(seed);
  std::vector<Complex> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto [re, im] = rng.gaussian2(i);
    v[i] = Complex(re, im);
  }
  return v;
}

double max_abs_diff(const std::vector<Complex>& a,
                    const std::vector<Complex>& b) {
  EXPECT_EQ(a.size(), b.size());
  double m = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

using LongComplex = std::complex<long double>;

/// O(n^2) DFT in long double. Its own rounding error (64-bit significand)
/// sits three orders of magnitude below the double-precision error model
/// it is the oracle for.
std::vector<LongComplex> dft_long_double(const std::vector<Complex>& in,
                                         Direction dir) {
  const std::size_t n = in.size();
  const long double sign = dir == Direction::kForward ? -1.0L : 1.0L;
  std::vector<LongComplex> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    LongComplex acc(0.0L, 0.0L);
    for (std::size_t j = 0; j < n; ++j) {
      const long double phase = sign * 2.0L *
                                std::numbers::pi_v<long double> *
                                static_cast<long double>((j * k) % n) /
                                static_cast<long double>(n);
      acc += LongComplex(in[j]) *
             LongComplex(std::cos(phase), std::sin(phase));
    }
    out[k] = acc;
  }
  return out;
}

/// Max |a_k - ref_k| over the first `count` entries.
double max_error(const Complex* a, const std::vector<LongComplex>& ref,
                 std::size_t count) {
  long double m = 0;
  for (std::size_t k = 0; k < count; ++k)
    m = std::max(m, std::abs(LongComplex(a[k]) - ref[k]));
  return static_cast<double>(m);
}

/// The error model of a stable n-point FFT, 8 eps ceil(log2 n), relative
/// to the input's 2-norm (transforms) or rms (round trips). Single-
/// precision twiddles, or a recurrence that drifts, break it by orders of
/// magnitude.
double error_model(std::size_t n) {
  return 8.0 * std::numeric_limits<double>::epsilon() *
         std::ceil(std::log2(static_cast<double>(n)));
}

double norm2(const std::vector<Complex>& x) {
  double s = 0;
  for (const auto& v : x) s += std::norm(v);
  return std::sqrt(s);
}

// ---- block decomposition ----------------------------------------------------

TEST(Decomp, BlocksPartitionTheAxis) {
  for (std::size_t n : {1u, 5u, 16u, 17u, 100u}) {
    for (int p = 1; p <= 9; ++p) {
      if (static_cast<std::size_t>(p) > n) continue;
      std::size_t covered = 0;
      for (int r = 0; r < p; ++r) {
        const Range b = block_range(n, p, r);
        EXPECT_EQ(b.lo, covered);
        covered = b.hi;
        EXPECT_GE(b.extent(), n / static_cast<std::size_t>(p));
      }
      EXPECT_EQ(covered, n);
    }
  }
}

TEST(Decomp, OwnerIsConsistentWithRanges) {
  for (std::size_t n : {7u, 16u, 33u}) {
    for (int p = 1; p <= 8; ++p) {
      for (std::size_t i = 0; i < n; ++i) {
        const int owner = block_owner(n, p, i);
        EXPECT_TRUE(block_range(n, p, owner).contains(i));
      }
    }
  }
}

// ---- 1-D --------------------------------------------------------------------

class Fft1DSizes : public ::testing::TestWithParam<std::size_t> {};

// Powers of two, smooth composites (incl. paper grid sizes scaled down),
// primes (Bluestein), and awkward sizes.
INSTANTIATE_TEST_SUITE_P(Sizes, Fft1DSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 16,
                                           20, 27, 30, 32, 36, 45, 60, 64, 97,
                                           100, 101, 128, 160, 200, 240, 243,
                                           256, 337, 512, 1000, 1024));

TEST_P(Fft1DSizes, MatchesReferenceDft) {
  const std::size_t n = GetParam();
  auto x = random_signal(n, 42 + n);
  auto expect = dft_reference(x, Direction::kForward);
  Fft1D plan(n);
  plan.transform(x.data(), Direction::kForward);
  EXPECT_LT(max_abs_diff(x, expect), 1e-9 * static_cast<double>(n) + 1e-12)
      << "n=" << n << " smooth=" << plan.smooth();
}

TEST_P(Fft1DSizes, InverseRoundTrip) {
  const std::size_t n = GetParam();
  auto x = random_signal(n, 7 + n);
  const auto orig = x;
  Fft1D plan(n);
  plan.transform(x.data(), Direction::kForward);
  plan.inverse_scaled(x.data());
  EXPECT_LT(max_abs_diff(x, orig), 1e-10 * static_cast<double>(n) + 1e-12);
}

TEST_P(Fft1DSizes, ParsevalHolds) {
  const std::size_t n = GetParam();
  auto x = random_signal(n, 1 + n);
  double time_energy = 0;
  for (const auto& v : x) time_energy += std::norm(v);
  Fft1D plan(n);
  plan.transform(x.data(), Direction::kForward);
  double freq_energy = 0;
  for (const auto& v : x) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
              1e-8 * (time_energy + 1.0));
}

TEST_P(Fft1DSizes, ErrorWithinModelBound) {
  // Forward and unscaled inverse, each against a long double DFT of the
  // same input: max error <= 8 eps ceil(log2 n) ||x||_2.
  const std::size_t n = GetParam();
  const auto x = random_signal(n, 4242 + n);
  const double bound = error_model(n) * norm2(x);
  Fft1D plan(n);
  for (const Direction dir : {Direction::kForward, Direction::kInverse}) {
    auto y = x;
    plan.transform(y.data(), dir);
    const double err = max_error(y.data(), dft_long_double(x, dir), n);
    EXPECT_LE(err, bound) << "n=" << n << " inverse="
                          << (dir == Direction::kInverse)
                          << " err/(eps log2n |x|)="
                          << 8.0 * err / bound;
  }
}

// ---- 1-D real-to-complex ----------------------------------------------------

std::vector<double> random_real(std::size_t n, std::uint64_t seed) {
  Philox rng(seed);
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = rng.gaussian2(i)[0];
  return v;
}

class Fft1DR2CSizes : public ::testing::TestWithParam<std::size_t> {};

// Even (two-for-one path): powers of two, smooth composites (160 = 2^5*5 is
// the paper's 5120 grid scaled down), 2*prime Bluestein half-plans. Odd
// (full-plan fallback): smooth, awkward, and prime lengths.
INSTANTIATE_TEST_SUITE_P(Sizes, Fft1DR2CSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 8, 9, 15, 16, 27,
                                           30, 45, 64, 97, 100, 101, 128, 160,
                                           243, 256, 337, 674, 1024));

TEST_P(Fft1DR2CSizes, MatchesReferenceDft) {
  const std::size_t n = GetParam();
  const auto x = random_real(n, 314 + n);
  std::vector<Complex> full(n);
  for (std::size_t j = 0; j < n; ++j) full[j] = Complex(x[j], 0.0);
  const auto expect = dft_reference(full, Direction::kForward);
  Fft1D plan(n);
  std::vector<Complex> half(plan.half_size());
  plan.forward_r2c(x.data(), half.data());
  for (std::size_t k = 0; k < half.size(); ++k) {
    EXPECT_LT(std::abs(half[k] - expect[k]),
              1e-9 * static_cast<double>(n) + 1e-12)
        << "n=" << n << " k=" << k;
  }
}

TEST_P(Fft1DR2CSizes, RoundTripRestoresSignal) {
  const std::size_t n = GetParam();
  const auto x = random_real(n, 2718 + n);
  Fft1D plan(n);
  std::vector<Complex> half(plan.half_size());
  std::vector<double> back(n);
  plan.forward_r2c(x.data(), half.data());
  plan.inverse_c2r(half.data(), back.data());
  double m = 0;
  for (std::size_t j = 0; j < n; ++j) m = std::max(m, std::abs(back[j] - x[j]));
  EXPECT_LT(m, 1e-10 * static_cast<double>(n) + 1e-12) << "n=" << n;
}

TEST_P(Fft1DR2CSizes, ErrorWithinModelBound) {
  // forward_r2c against a long double DFT: max error <= 8 eps ceil(log2 n)
  // ||x||_2; the inverse_c2r(forward_r2c(x)) round trip within
  // 8 eps ceil(log2 n) rms(x).
  const std::size_t n = GetParam();
  const auto x = random_real(n, 9000 + n);
  std::vector<Complex> full(n);
  for (std::size_t j = 0; j < n; ++j) full[j] = Complex(x[j], 0.0);
  const double norm = norm2(full);
  Fft1D plan(n);
  std::vector<Complex> half(plan.half_size());
  plan.forward_r2c(x.data(), half.data());
  const double bound = error_model(n) * norm;
  const double err = max_error(
      half.data(), dft_long_double(full, Direction::kForward), half.size());
  EXPECT_LE(err, bound) << "n=" << n << " err/(eps log2n |x|)="
                        << 8.0 * err / bound;

  std::vector<double> back(n);
  plan.inverse_c2r(half.data(), back.data());
  double m = 0;
  for (std::size_t j = 0; j < n; ++j) m = std::max(m, std::abs(back[j] - x[j]));
  const double rt_bound =
      error_model(n) * norm / std::sqrt(static_cast<double>(n));
  EXPECT_LE(m, rt_bound) << "n=" << n << " err/(eps log2n rms)="
                         << 8.0 * m / rt_bound;
}

TEST(Fft1DR2C, HalfSizeIsNzOver2Plus1) {
  EXPECT_EQ(Fft1D(8).half_size(), 5u);
  EXPECT_EQ(Fft1D(7).half_size(), 4u);
  EXPECT_EQ(Fft1D(1).half_size(), 1u);
}

TEST(Fft1DR2C, SingleModeLandsInCorrectBin) {
  const std::size_t n = 32, mode = 3;
  std::vector<double> x(n);
  for (std::size_t j = 0; j < n; ++j)
    x[j] = std::cos(2.0 * std::numbers::pi * static_cast<double>(mode * j) /
                    static_cast<double>(n));
  Fft1D plan(n);
  std::vector<Complex> half(plan.half_size());
  plan.forward_r2c(x.data(), half.data());
  for (std::size_t k = 0; k < half.size(); ++k) {
    const double expect = (k == mode) ? static_cast<double>(n) / 2.0 : 0.0;
    EXPECT_NEAR(std::abs(half[k]), expect, 1e-9) << "k=" << k;
  }
}

TEST(Fft1D, SmoothDetection) {
  EXPECT_TRUE(Fft1D(1024).smooth());
  EXPECT_TRUE(Fft1D(10240).smooth());  // 2^11 * 5: the paper's largest grid
  EXPECT_TRUE(Fft1D(9216).smooth());   // 2^10 * 9
  EXPECT_FALSE(Fft1D(337).smooth());   // prime > 31
  EXPECT_FALSE(Fft1D(2 * 337).smooth());
}

TEST(Fft1D, DeltaTransformsToConstant) {
  const std::size_t n = 30;
  std::vector<Complex> x(n, Complex(0, 0));
  x[0] = Complex(1, 0);
  Fft1D(n).transform(x.data(), Direction::kForward);
  for (const auto& v : x) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Fft1D, SingleModeLandsInCorrectBin) {
  const std::size_t n = 64, mode = 5;
  std::vector<Complex> x(n);
  for (std::size_t j = 0; j < n; ++j) {
    const double phase = 2.0 * std::numbers::pi *
                         static_cast<double>(mode * j) /
                         static_cast<double>(n);
    x[j] = Complex(std::cos(phase), std::sin(phase));
  }
  Fft1D(n).transform(x.data(), Direction::kForward);
  for (std::size_t k = 0; k < n; ++k) {
    const double expect = (k == mode) ? static_cast<double>(n) : 0.0;
    EXPECT_NEAR(std::abs(x[k]), expect, 1e-9) << "k=" << k;
  }
}

TEST(Fft1D, BatchMatchesIndividual) {
  const std::size_t n = 48, count = 5;
  auto data = random_signal(n * count, 11);
  auto expect = data;
  Fft1D plan(n);
  for (std::size_t i = 0; i < count; ++i)
    plan.transform(expect.data() + i * n, Direction::kForward);
  plan.transform_batch(data.data(), count, Direction::kForward);
  EXPECT_EQ(max_abs_diff(data, expect), 0.0);
}

TEST(Fft1D, LargeBatchThreadedMatchesSerial) {
  // transform_batch threads when count >= 64; results must match per-line
  // transforms exactly.
  const std::size_t n = 64, count = 200;
  auto data = random_signal(n * count, 77);
  auto expect = data;
  Fft1D plan(n);
  for (std::size_t i = 0; i < count; ++i)
    plan.transform(expect.data() + i * n, Direction::kForward);
  plan.transform_batch(data.data(), count, Direction::kForward);
  EXPECT_EQ(max_abs_diff(data, expect), 0.0);
}

TEST(Fft1D, ConcurrentTransformsOnSharedPlanAreSafe) {
  // Hammer one plan from many threads; every result must equal the
  // single-threaded reference (thread-local scratch isolation).
  const std::size_t n = 96;
  Fft1D plan(n);
  auto base = random_signal(n, 31);
  auto expect = base;
  plan.transform(expect.data(), Direction::kForward);
#pragma omp parallel for
  for (int t = 0; t < 32; ++t) {
    auto work = base;
    plan.transform(work.data(), Direction::kForward);
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_EQ(work[j], expect[j]);
    }
  }
}

TEST(Fft1D, ZeroLengthRejected) { EXPECT_THROW(Fft1D(0), Error); }

// ---- serial 3-D ---------------------------------------------------------------

TEST(Fft3DLocal, MatchesBruteForceOnTinyGrid) {
  const std::size_t nx = 4, ny = 3, nz = 5;
  auto x = random_signal(nx * ny * nz, 21);
  // Brute force 3-D DFT.
  std::vector<Complex> expect(x.size(), Complex(0, 0));
  for (std::size_t kx = 0; kx < nx; ++kx)
    for (std::size_t ky = 0; ky < ny; ++ky)
      for (std::size_t kz = 0; kz < nz; ++kz) {
        Complex acc(0, 0);
        for (std::size_t jx = 0; jx < nx; ++jx)
          for (std::size_t jy = 0; jy < ny; ++jy)
            for (std::size_t jz = 0; jz < nz; ++jz) {
              const double phase =
                  -2.0 * std::numbers::pi *
                  (static_cast<double>(kx * jx) / static_cast<double>(nx) +
                   static_cast<double>(ky * jy) / static_cast<double>(ny) +
                   static_cast<double>(kz * jz) / static_cast<double>(nz));
              acc += x[(jx * ny + jy) * nz + jz] *
                     Complex(std::cos(phase), std::sin(phase));
            }
        expect[(kx * ny + ky) * nz + kz] = acc;
      }
  Fft3DLocal(nx, ny, nz).transform(x.data(), Direction::kForward);
  EXPECT_LT(max_abs_diff(x, expect), 1e-9);
}

TEST(Fft3DLocal, RoundTrip) {
  const std::size_t n = 16;
  auto x = random_signal(n * n * n, 3);
  const auto orig = x;
  Fft3DLocal fft(n, n, n);
  fft.transform(x.data(), Direction::kForward);
  fft.inverse_scaled(x.data());
  EXPECT_LT(max_abs_diff(x, orig), 1e-10);
}

// ---- distributed: shared helpers ---------------------------------------------

/// Builds the same deterministic global field on every rank.
std::vector<Complex> global_field(std::size_t nx, std::size_t ny,
                                  std::size_t nz, std::uint64_t seed) {
  return random_signal(nx * ny * nz, seed);
}

/// Serial reference spectrum of that field.
std::vector<Complex> reference_spectrum(std::vector<Complex> field,
                                        std::size_t nx, std::size_t ny,
                                        std::size_t nz) {
  Fft3DLocal(nx, ny, nz).transform(field.data(), Direction::kForward);
  return field;
}

// ---- box remap ----------------------------------------------------------------

TEST(BoxRemap, IntersectHandlesDisjointBoxes) {
  const Box3D a{{0, 4}, {0, 4}, {0, 4}};
  const Box3D b{{4, 8}, {0, 4}, {0, 4}};
  EXPECT_EQ(intersect(a, b).volume(), 0u);
  const Box3D c{{2, 6}, {1, 3}, {0, 4}};
  EXPECT_EQ(intersect(a, c).volume(), 2u * 2u * 4u);
}

TEST(BoxRemap, RunsAreTheLongestTheLayoutsShare) {
  const Box3D box{{2, 6}, {0, 5}, {1, 8}};  // storage extents 4 x 5 x 7
  // A partial z range: one z-run per (x, y).
  const BoxRuns zr = box_runs(Box3D{{3, 5}, {1, 4}, {2, 6}}, box);
  EXPECT_EQ(zr.len, 4u);
  EXPECT_EQ(zr.count, 6u);
  EXPECT_EQ(zr.offset(0), (1 * 5 + 1) * 7 + 1u);
  EXPECT_EQ(zr.offset(4), (2 * 5 + 2) * 7 + 1u);
  // The full z range, a partial y range: one (y, z) slab per x.
  const BoxRuns slab = box_runs(Box3D{{3, 6}, {1, 4}, {1, 8}}, box);
  EXPECT_EQ(slab.len, 3u * 7u);
  EXPECT_EQ(slab.count, 3u);
  EXPECT_EQ(slab.offset(2), (3 * 5 + 1) * 7u);
  // Full y and z: the whole piece is one run.
  const BoxRuns whole = box_runs(Box3D{{4, 6}, {0, 5}, {1, 8}}, box);
  EXPECT_EQ(whole.len, 2u * 5u * 7u);
  EXPECT_EQ(whole.count, 1u);
  EXPECT_EQ(whole.offset(0), 2 * 5 * 7u);
  EXPECT_EQ(box_runs(Box3D{{4, 4}, {0, 5}, {1, 8}}, box).count, 0u);
}

/// A layout change to test: each rank's box before and after, on an
/// n[0] x n[1] x n[2] grid.
struct LayoutChange {
  std::string name;
  std::array<std::size_t, 3> n;
  std::vector<Box3D> src, dst;
};

/// Appends a random layout of `box` over `p` ranks to `out`: recursive
/// bisection along a random axis at a random cut (a cut at either end
/// leaves one side empty), the ranks split at random between the sides.
void random_bisection(const Box3D& box, int p, Philox::Stream& rng,
                      std::vector<Box3D>& out) {
  if (p == 1) {
    out.push_back(box);
    return;
  }
  const int lower =
      1 + static_cast<int>(rng.index(static_cast<std::uint64_t>(p - 1)));
  Range Box3D::*const axes[] = {&Box3D::x, &Box3D::y, &Box3D::z};
  Range Box3D::*const axis = axes[rng.index(3)];
  const std::size_t cut =
      (box.*axis).lo + rng.index((box.*axis).extent() + 1);
  Box3D lo = box, hi = box;
  (lo.*axis).hi = cut;
  (hi.*axis).lo = cut;
  random_bisection(lo, lower, rng, out);
  random_bisection(hi, p - lower, rng, out);
}

/// A random layout of an n[0] x n[1] x n[2] grid over `p` ranks, boxes
/// uneven and some empty, dealt to the ranks in a random order.
std::vector<Box3D> random_layout(const std::array<std::size_t, 3>& n, int p,
                                 Philox::Stream& rng) {
  std::vector<Box3D> boxes;
  random_bisection(Box3D{Range{0, n[0]}, Range{0, n[1]}, Range{0, n[2]}}, p,
                   rng, boxes);
  for (std::size_t i = boxes.size(); i > 1; --i)
    std::swap(boxes[i - 1], boxes[rng.index(i)]);
  return boxes;
}

/// Random layout changes on 1-6 ranks, the pencil's z <-> y (one process
/// row) and y <-> x (one process column) transposes at Nz and Nz/2 + 1 on
/// an uneven grid, and block <-> z-pencil at 8 ranks.
std::vector<LayoutChange> layout_changes() {
  std::vector<LayoutChange> out;
  Philox::Stream rng(Philox(2024));
  for (int p = 1; p <= 6; ++p)
    for (int t = 0; t < 8; ++t) {
      const std::array<std::size_t, 3> n{2 + rng.index(7), 2 + rng.index(7),
                                         2 + rng.index(7)};
      out.push_back({"random p=" + std::to_string(p) + " #" +
                         std::to_string(t),
                     n, random_layout(n, p, rng), random_layout(n, p, rng)});
    }
  const std::size_t nx = 9, ny = 7, nz = 11;
  for (const std::size_t nzf : {nz, nz / 2 + 1}) {
    LayoutChange zy{"z->y NZ=" + std::to_string(nzf), {nx, ny, nzf}, {}, {}};
    const Range xr = block_range(nx, 2, 1);  // one row of a 2 x 3 grid
    for (int d = 0; d < 3; ++d) {
      zy.src.push_back(Box3D{xr, block_range(ny, 3, d), Range{0, nzf}});
      zy.dst.push_back(Box3D{xr, Range{0, ny}, block_range(nzf, 3, d)});
    }
    out.push_back(zy);
    LayoutChange yx{"y->x NZ=" + std::to_string(nzf), {nx, ny, nzf}, {}, {}};
    const Range zr = block_range(nzf, 2, 0);  // one column of a 4 x 2 grid
    for (int d = 0; d < 4; ++d) {
      yx.src.push_back(Box3D{block_range(nx, 4, d), Range{0, ny}, zr});
      yx.dst.push_back(Box3D{Range{0, nx}, block_range(ny, 4, d), zr});
    }
    out.push_back(yx);
  }
  LayoutChange bp{"block->pencil 8 ranks", {12, 10, 9}, {}, {}};
  const auto blocks = comm::Cart3D::balanced(8);
  const auto grid = comm::dims_create(8, 2);
  for (int r = 0; r < 8; ++r) {
    const auto c = blocks.coords(r);
    bp.src.push_back(Box3D{block_range(12, blocks.dims()[0], c[0]),
                           block_range(10, blocks.dims()[1], c[1]),
                           block_range(9, blocks.dims()[2], c[2])});
    bp.dst.push_back(Box3D{block_range(12, grid[0], r / grid[1]),
                           block_range(10, grid[1], r % grid[1]),
                           Range{0, 9}});
  }
  out.push_back(bp);
  return out;
}

/// The value of global cell g, distinct per cell and exact in T.
template <typename T>
T cell_value(std::size_t g) {
  if constexpr (std::is_same_v<T, Complex>) {
    return Complex(static_cast<double>(g), -0.5 - static_cast<double>(g));
  } else {
    return static_cast<T>(g);
  }
}

/// `box`'s cells row-major, each holding its global value.
template <typename T>
std::vector<T> box_values(const Box3D& box,
                          const std::array<std::size_t, 3>& n) {
  std::vector<T> v;
  for (std::size_t x = box.x.lo; x < box.x.hi; ++x)
    for (std::size_t y = box.y.lo; y < box.y.hi; ++y)
      for (std::size_t z = box.z.lo; z < box.z.hi; ++z)
        v.push_back(cell_value<T>((x * n[1] + y) * n[2] + z));
  return v;
}

template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

/// Remaps `change` forward and back in place on every rank, through one
/// buffer set per rank: every cell lands at its global index in the
/// destination box, and the backward remap restores the input bit for bit.
template <typename T>
void expect_round_trip(const LayoutChange& change) {
  const BoxRemap<T> plan(change.src, change.dst);
  comm::Machine::run(static_cast<int>(change.src.size()),
                     [&](comm::Comm& c) {
    const auto r = static_cast<std::size_t>(c.rank());
    const std::vector<T> input = box_values<T>(change.src[r], change.n);
    std::vector<T> data = input;
    typename BoxRemap<T>::Buffers buf;
    for (int round = 0; round < 2; ++round) {  // the buffers are reusable
      plan.forward(c, data, buf);
      EXPECT_TRUE(same_bits(data, box_values<T>(change.dst[r], change.n)))
          << change.name << ", rank " << r;
      plan.backward(c, data, buf);
      EXPECT_TRUE(same_bits(data, input)) << change.name << ", rank " << r;
    }
  });
}

TEST(BoxRemap, EveryCellLandsAtItsGlobalIndexAndComesBackBitForBit) {
  for (const LayoutChange& change : layout_changes()) {
    expect_round_trip<double>(change);
    expect_round_trip<Complex>(change);
  }
}

TEST(BoxRemap, NoCollectiveWhenEveryRankKeepsItsBox) {
  // The decision is global: where every rank keeps its box no rank enters
  // the all-to-all; where only some do, all of them still enter it.
  const std::array<std::size_t, 3> n{8, 6, 5};
  std::vector<Box3D> keep;
  for (int r = 0; r < 4; ++r)
    keep.push_back(Box3D{block_range(8, 2, r / 2), block_range(6, 2, r % 2),
                         Range{0, 5}});
  std::vector<Box3D> trade = keep;  // ranks 0 and 1 keep theirs
  std::swap(trade[2], trade[3]);
  const BoxRemap<double> still(keep, keep), partial(keep, trade);
  const NameId calls = comm::telemetry::ids(comm::telemetry::Op::kAlltoall).calls;
  comm::Machine::run(4, [&](comm::Comm& c) {
    obs::Counters counters;
    obs::Binding binding(nullptr, &counters);
    const auto r = static_cast<std::size_t>(c.rank());
    std::vector<double> data = box_values<double>(keep[r], n);
    BoxRemap<double>::Buffers buf;
    still.forward(c, data, buf);
    still.backward(c, data, buf);
    EXPECT_EQ(counters.value(calls), 0u);
    EXPECT_TRUE(same_bits(data, box_values<double>(keep[r], n)));
    partial.forward(c, data, buf);
    EXPECT_EQ(counters.value(calls), 1u);
    EXPECT_TRUE(same_bits(data, box_values<double>(trade[r], n)));
  });
}

// ---- pencil -------------------------------------------------------------------

struct PencilCase {
  std::size_t nx, ny, nz;
  int p1, p2;
};

class PencilTest : public ::testing::TestWithParam<PencilCase> {};

INSTANTIATE_TEST_SUITE_P(
    Shapes, PencilTest,
    ::testing::Values(PencilCase{8, 8, 8, 1, 1}, PencilCase{8, 8, 8, 2, 2},
                      PencilCase{8, 8, 8, 4, 2}, PencilCase{8, 8, 8, 2, 4},
                      PencilCase{16, 16, 16, 4, 4},
                      // uneven blocks: dims don't divide the grid
                      PencilCase{12, 10, 14, 3, 2},
                      PencilCase{9, 7, 11, 2, 3},
                      // non-cubic grids
                      PencilCase{16, 8, 4, 2, 2},
                      PencilCase{5, 6, 7, 5, 3},
                      // 1 x P: the slab decomposition
                      PencilCase{8, 12, 6, 1, 3},
                      PencilCase{8, 8, 8, 1, 8}));

TEST_P(PencilTest, ForwardMatchesSerial) {
  const auto c = GetParam();
  const auto field = global_field(c.nx, c.ny, c.nz, 99);
  const auto expect = reference_spectrum(field, c.nx, c.ny, c.nz);
  comm::Machine::run(c.p1 * c.p2, [&](comm::Comm& world) {
    PencilFft3D fft(world, c.nx, c.ny, c.nz, c.p1, c.p2);
    const Box3D rb = fft.real_box();
    std::vector<Complex> local(rb.volume());
    std::size_t i = 0;
    for (std::size_t x = rb.x.lo; x < rb.x.hi; ++x)
      for (std::size_t y = rb.y.lo; y < rb.y.hi; ++y)
        for (std::size_t z = rb.z.lo; z < rb.z.hi; ++z)
          local[i++] = field[(x * c.ny + y) * c.nz + z];
    fft.forward(local);
    const Box3D sb = fft.spectral_box();
    ASSERT_EQ(local.size(), sb.volume());
    i = 0;
    for (std::size_t x = sb.x.lo; x < sb.x.hi; ++x)
      for (std::size_t y = sb.y.lo; y < sb.y.hi; ++y)
        for (std::size_t z = sb.z.lo; z < sb.z.hi; ++z) {
          EXPECT_LT(std::abs(local[i] - expect[(x * c.ny + y) * c.nz + z]),
                    1e-8)
              << "k=(" << x << "," << y << "," << z << ")";
          ++i;
        }
  });
}

TEST_P(PencilTest, RoundTripRestoresField) {
  const auto c = GetParam();
  const auto field = global_field(c.nx, c.ny, c.nz, 5);
  comm::Machine::run(c.p1 * c.p2, [&](comm::Comm& world) {
    PencilFft3D fft(world, c.nx, c.ny, c.nz, c.p1, c.p2);
    const Box3D rb = fft.real_box();
    std::vector<Complex> local(rb.volume());
    std::size_t i = 0;
    for (std::size_t x = rb.x.lo; x < rb.x.hi; ++x)
      for (std::size_t y = rb.y.lo; y < rb.y.hi; ++y)
        for (std::size_t z = rb.z.lo; z < rb.z.hi; ++z)
          local[i++] = field[(x * c.ny + y) * c.nz + z];
    const auto orig = local;
    fft.forward(local);
    fft.inverse(local);
    ASSERT_EQ(local.size(), orig.size());
    double m = 0;
    for (std::size_t j = 0; j < local.size(); ++j)
      m = std::max(m, std::abs(local[j] - orig[j]));
    EXPECT_LT(m, 1e-10);
  });
}

TEST_P(PencilTest, ForwardR2CMatchesHalfSpectrum) {
  const auto c = GetParam();
  std::vector<double> field(c.nx * c.ny * c.nz);
  {
    Philox rng(423);
    for (std::size_t i = 0; i < field.size(); ++i)
      field[i] = rng.gaussian2(i)[0];
  }
  std::vector<Complex> full(field.size());
  for (std::size_t i = 0; i < field.size(); ++i)
    full[i] = Complex(field[i], 0.0);
  const auto expect = reference_spectrum(std::move(full), c.nx, c.ny, c.nz);
  comm::Machine::run(c.p1 * c.p2, [&](comm::Comm& world) {
    PencilFft3D fft(world, c.nx, c.ny, c.nz, c.p1, c.p2);
    const Box3D rb = fft.real_box();
    std::vector<double> local(rb.volume());
    std::size_t i = 0;
    for (std::size_t x = rb.x.lo; x < rb.x.hi; ++x)
      for (std::size_t y = rb.y.lo; y < rb.y.hi; ++y)
        for (std::size_t z = rb.z.lo; z < rb.z.hi; ++z)
          local[i++] = field[(x * c.ny + y) * c.nz + z];
    std::vector<Complex> spec;
    fft.forward_r2c(std::span<const double>(local), spec);
    const Box3D sb = fft.spectral_box_r2c();
    ASSERT_EQ(spec.size(), sb.volume());
    EXPECT_EQ(sb.z.hi, std::min(sb.z.hi, fft.nzh()));
    i = 0;
    for (std::size_t x = sb.x.lo; x < sb.x.hi; ++x)
      for (std::size_t y = sb.y.lo; y < sb.y.hi; ++y)
        for (std::size_t z = sb.z.lo; z < sb.z.hi; ++z) {
          EXPECT_LT(std::abs(spec[i] - expect[(x * c.ny + y) * c.nz + z]),
                    1e-8)
              << "k=(" << x << "," << y << "," << z << ")";
          ++i;
        }
  });
}

TEST_P(PencilTest, R2CRoundTripRestoresField) {
  const auto c = GetParam();
  std::vector<double> field(c.nx * c.ny * c.nz);
  {
    Philox rng(77);
    for (std::size_t i = 0; i < field.size(); ++i)
      field[i] = rng.gaussian2(i)[0];
  }
  comm::Machine::run(c.p1 * c.p2, [&](comm::Comm& world) {
    PencilFft3D fft(world, c.nx, c.ny, c.nz, c.p1, c.p2);
    const Box3D rb = fft.real_box();
    std::vector<double> local(rb.volume());
    std::size_t i = 0;
    for (std::size_t x = rb.x.lo; x < rb.x.hi; ++x)
      for (std::size_t y = rb.y.lo; y < rb.y.hi; ++y)
        for (std::size_t z = rb.z.lo; z < rb.z.hi; ++z)
          local[i++] = field[(x * c.ny + y) * c.nz + z];
    std::vector<Complex> spec;
    std::vector<double> back;
    fft.forward_r2c(std::span<const double>(local), spec);
    fft.inverse_c2r(spec, back);
    ASSERT_EQ(back.size(), local.size());
    double m = 0;
    for (std::size_t j = 0; j < back.size(); ++j)
      m = std::max(m, std::abs(back[j] - local[j]));
    EXPECT_LT(m, 1e-10);
  });
}

TEST(Pencil, SteadyStateTransformsDoNotAllocate) {
  // The acceptance contract of the persistent workspace: after one warm-up
  // pass, forward/inverse and forward_r2c/inverse_c2r perform no heap
  // allocations. Run single-rank so the exchange takes the self-block
  // memcpy path (multi-rank mailbox envelopes are SimMPI transport, not
  // FFT workspace). The 16^3 grid keeps every OpenMP `if` clause false, so
  // the measured path is exactly the serial steady-state code.
  comm::Machine::run(1, [](comm::Comm& world) {
    const std::size_t n = 16;
    PencilFft3D fft(world, n, n, n, 1, 1);
    std::vector<double> rin(n * n * n);
    Philox rng(99);
    for (std::size_t i = 0; i < rin.size(); ++i) rin[i] = rng.gaussian2(i)[0];
    std::vector<Complex> data, half;
    std::vector<double> rout;
    for (int pass = 0; pass < 2; ++pass) {  // warm-up sizes every buffer
      data.assign(rin.size(), Complex(1.0, 0.5));
      fft.forward(data);
      fft.inverse(data);
      fft.forward_r2c(std::span<const double>(rin), half);
      fft.inverse_c2r(half, rout);
    }
    alloc_hook::count.store(0);
    alloc_hook::armed.store(true);
    data.assign(rin.size(), Complex(1.0, 0.5));
    fft.forward(data);
    fft.inverse(data);
    fft.forward_r2c(std::span<const double>(rin), half);
    fft.inverse_c2r(half, rout);
    alloc_hook::armed.store(false);
    EXPECT_EQ(alloc_hook::count.load(), 0u);
  });
}

TEST(PencilInvariance, R2CIsBitIdenticalAcrossGridsAndThreads) {
  // A line's result does not depend on where it runs: the same plan runs
  // the same operations on every rank, OpenMP thread and batch slot, so
  // forward_r2c's half spectrum and inverse_c2r's field match bit for bit
  // on every process grid, at 1 and 2 OpenMP threads per rank. 24^3 runs
  // radix-2 and radix-3 passes; 32^3 is the smallest grid whose y and x
  // line loops thread.
  for (const std::size_t n : {std::size_t{24}, std::size_t{32}}) {
    const std::size_t nzh = n / 2 + 1;
    std::vector<double> field(n * n * n);
    Philox rng(2012);
    for (std::size_t i = 0; i < field.size(); ++i)
      field[i] = rng.gaussian2(i)[0];
    std::vector<Complex> spec_ref;
    std::vector<double> back_ref;
    for (const int threads : {1, 2}) {
      for (const auto& [p1, p2] : {std::pair{1, 1}, std::pair{1, 2},
                                   std::pair{2, 2}, std::pair{2, 3}}) {
        std::vector<Complex> spec(n * n * nzh);
        std::vector<double> back(n * n * n);
        comm::Machine::run(p1 * p2, [&](comm::Comm& world) {
          omp_set_num_threads(threads);
          PencilFft3D fft(world, n, n, n, p1, p2);
          const Box3D rb = fft.real_box();
          std::vector<double> local;
          for (std::size_t x = rb.x.lo; x < rb.x.hi; ++x)
            for (std::size_t y = rb.y.lo; y < rb.y.hi; ++y)
              for (std::size_t z = rb.z.lo; z < rb.z.hi; ++z)
                local.push_back(field[(x * n + y) * n + z]);
          std::vector<Complex> half;
          fft.forward_r2c(std::span<const double>(local), half);
          // Boxes are disjoint across ranks: each writes its own cells.
          const Box3D sb = fft.spectral_box_r2c();
          std::size_t i = 0;
          for (std::size_t x = sb.x.lo; x < sb.x.hi; ++x)
            for (std::size_t y = sb.y.lo; y < sb.y.hi; ++y)
              for (std::size_t z = sb.z.lo; z < sb.z.hi; ++z)
                spec[(x * n + y) * nzh + z] = half[i++];
          std::vector<double> out;
          fft.inverse_c2r(half, out);
          i = 0;
          for (std::size_t x = rb.x.lo; x < rb.x.hi; ++x)
            for (std::size_t y = rb.y.lo; y < rb.y.hi; ++y)
              for (std::size_t z = rb.z.lo; z < rb.z.hi; ++z)
                back[(x * n + y) * n + z] = out[i++];
        });
        if (spec_ref.empty()) {  // 1x1 at one thread is the reference
          spec_ref = std::move(spec);
          back_ref = std::move(back);
          continue;
        }
        std::size_t modes_differ = 0, cells_differ = 0;
        for (std::size_t k = 0; k < spec.size(); ++k)
          modes_differ +=
              std::memcmp(&spec[k], &spec_ref[k], sizeof(Complex)) != 0;
        for (std::size_t c = 0; c < back.size(); ++c)
          cells_differ +=
              std::memcmp(&back[c], &back_ref[c], sizeof(double)) != 0;
        EXPECT_EQ(modes_differ, 0u)
            << n << "^3 on " << p1 << "x" << p2 << " at " << threads
            << " threads";
        EXPECT_EQ(cells_differ, 0u)
            << n << "^3 on " << p1 << "x" << p2 << " at " << threads
            << " threads";
      }
    }
  }
}

TEST(Pencil, StatsAccumulatePhases) {
  comm::Machine::run(4, [](comm::Comm& world) {
    obs::Counters counters;
    obs::Binding binding(nullptr, &counters);
    const std::size_t n = 8;
    PencilFft3D fft(world, n, n, n, 2, 2);
    EXPECT_EQ(fft.stats().transforms, 0u);
    std::vector<Complex> data(fft.real_box().volume(), Complex(1, 0));
    fft.forward(data);
    fft.inverse(data);
    const auto& s = fft.stats();
    EXPECT_EQ(s.transforms, 2u);
    EXPECT_GT(s.fft_seconds, 0.0);
    EXPECT_GT(s.transpose_seconds, 0.0);
    // Each transpose carries this rank's whole block, its own share
    // included: forward the z-pencil (z->y), then the y-pencil (y->x);
    // inverse the x-pencil (x->y), then the y-pencil (y->z).
    const Box3D rb = fft.real_box(), sb = fft.spectral_box();
    const std::size_t y_pencil = rb.x.extent() * n * sb.z.extent();
    const std::size_t bytes =
        (rb.volume() + 2 * y_pencil + sb.volume()) * sizeof(Complex);
    EXPECT_EQ(s.bytes_moved, bytes);
    EXPECT_EQ(counters.value(obs::counter_id("fft.transpose.bytes")), bytes);
    fft.reset_stats();
    EXPECT_EQ(fft.stats().transforms, 0u);
    EXPECT_EQ(fft.stats().bytes_moved, 0u);
  });
}

TEST(Pencil, WorkspaceStaysPutOnATwoByTwoGrid) {
  // The allocation gate above runs one rank, where every transpose moves
  // nothing and no exchange buffer is touched. On a 2 x 2 grid every
  // transpose packs, exchanges and unpacks (threaded at 64^3): after a
  // warm-up pass, the exchange buffers and the caller's buffers keep their
  // storage and capacity through every kind of transform.
  comm::Machine::run(4, [](comm::Comm& world) {
    const std::size_t n = 64;
    PencilFft3D fft(world, n, n, n, 2, 2);
    std::vector<double> rin(fft.real_box().volume(), 0.25), rout;
    std::vector<Complex> data, half;
    const auto& ws = fft.workspace();
    auto storage = [&] {
      return std::vector<std::pair<const void*, std::size_t>>{
          {ws.send.data(), ws.send.capacity()},
          {ws.recv.data(), ws.recv.capacity()},
          {ws.counts.data(), ws.counts.capacity()},
          {ws.rcounts.data(), ws.rcounts.capacity()},
          {data.data(), data.capacity()},
          {half.data(), half.capacity()},
          {rout.data(), rout.capacity()}};
    };
    auto pass = [&] {
      data.assign(rin.size(), Complex(1.0, 0.5));
      fft.forward(data);
      fft.inverse(data);
      fft.forward_r2c(std::span<const double>(rin), half);
      fft.inverse_c2r(half, rout);
    };
    pass();
    const auto warm = storage();
    pass();
    pass();
    EXPECT_EQ(storage(), warm);
    EXPECT_GT(ws.send.size(), 0u);
    EXPECT_GT(ws.recv.size(), 0u);
  });
}

TEST(Pencil, BoxesTileTheGrid) {
  const std::size_t n = 10;
  const int p1 = 3, p2 = 2;
  std::vector<int> real_cover(n * n * n, 0), spec_cover(n * n * n, 0);
  std::mutex mu;
  comm::Machine::run(p1 * p2, [&](comm::Comm& world) {
    PencilFft3D fft(world, n, n, n, p1, p2);
    std::lock_guard lock(mu);
    for (auto [box, cover] :
         {std::pair{fft.real_box(), &real_cover},
          std::pair{fft.spectral_box(), &spec_cover}}) {
      for (std::size_t x = box.x.lo; x < box.x.hi; ++x)
        for (std::size_t y = box.y.lo; y < box.y.hi; ++y)
          for (std::size_t z = box.z.lo; z < box.z.hi; ++z)
            ++(*cover)[(x * n + y) * n + z];
    }
  });
  for (std::size_t i = 0; i < real_cover.size(); ++i) {
    EXPECT_EQ(real_cover[i], 1);
    EXPECT_EQ(spec_cover[i], 1);
  }
}

TEST(Pencil, RejectsBadProcessGrid) {
  comm::Machine::run(4, [](comm::Comm& world) {
    EXPECT_THROW(PencilFft3D(world, 8, 8, 8, 3, 1), Error);
  });
}

TEST(Pencil, RejectsOversubscribedAxis) {
  comm::Machine::run(6, [](comm::Comm& world) {
    // p1 = 6 > ny = 4.
    EXPECT_THROW(PencilFft3D(world, 8, 4, 8, 6, 1), Error);
  });
}

TEST(Pencil, SlabGridEnforcesRankLimit) {
  // A 1 x P grid is the slab decomposition, subject to N_rank <= N_fft
  // (paper Sec. IV-A); a 2-D grid is what lifts this.
  comm::Machine::run(9, [](comm::Comm& world) {
    EXPECT_THROW(PencilFft3D(world, 8, 8, 8, 1, 9), Error);
  });
}

}  // namespace
}  // namespace hacc::fft
