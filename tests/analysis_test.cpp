// Tests for the science-analysis tools: halo profiles, the FFT-based
// correlation function (validated against direct real-space computation and
// against its Fourier duality with P(k)), and the Press-Schechter mass
// function.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "comm/comm.h"
#include "cosmology/analysis.h"
#include "util/rng.h"

namespace hacc::cosmology {
namespace {

// ---- halo profiles -------------------------------------------------------------

TEST(HaloProfile, UniformSphereHasFlatProfile) {
  // Particles uniform inside a sphere of radius R: density flat inside,
  // zero outside.
  const double box = 32.0, radius = 4.0;
  tree::ParticleArray p;
  Philox rng(3);
  Philox::Stream s(rng);
  std::size_t count = 0;
  while (count < 4000) {
    const double x = s.uniform(-radius, radius);
    const double y = s.uniform(-radius, radius);
    const double z = s.uniform(-radius, radius);
    if (x * x + y * y + z * z > radius * radius) continue;
    p.push_back(static_cast<float>(16.0 + x), static_cast<float>(16.0 + y),
                static_cast<float>(16.0 + z), 0, 0, 0, 1.0f, count++);
  }
  Halo h;
  h.center = {16.0, 16.0, 16.0};
  const auto prof = halo_profile(p, h, box, 6.0, 12);
  // Inside (r < 3): flat within sampling noise (innermost bins are too
  // sparse for a tight check).
  const double inner = prof[3].density;
  for (std::size_t b = 2; b < 6; ++b) {
    EXPECT_NEAR(prof[b].density / inner, 1.0, 0.3) << "bin " << b;
  }
  // Outside (r > 4.5): empty.
  for (std::size_t b = 10; b < prof.size(); ++b)
    EXPECT_EQ(prof[b].count, 0u);
}

TEST(HaloProfile, ClusteredProfileDeclines) {
  // Gaussian blob: density must fall monotonically (coarse bins).
  const double box = 32.0;
  tree::ParticleArray p;
  Philox rng(5);
  Philox::Stream s(rng);
  for (std::size_t i = 0; i < 5000; ++i) {
    p.push_back(static_cast<float>(16.0 + 1.2 * s.gaussian()),
                static_cast<float>(16.0 + 1.2 * s.gaussian()),
                static_cast<float>(16.0 + 1.2 * s.gaussian()), 0, 0, 0, 1.0f,
                i);
  }
  Halo h;
  h.center = {16.0, 16.0, 16.0};
  const auto prof = halo_profile(p, h, box, 5.0, 8);
  for (std::size_t b = 1; b < 6; ++b)
    EXPECT_LT(prof[b].density, prof[b - 1].density) << "bin " << b;
}

TEST(HaloProfile, PeriodicCenterNearEdgeWorks) {
  const double box = 16.0;
  tree::ParticleArray p;
  Philox rng(7);
  Philox::Stream s(rng);
  for (std::size_t i = 0; i < 1000; ++i) {
    auto wrap = [&](double v) {
      v = std::fmod(v + box, box);
      return static_cast<float>(v);
    };
    p.push_back(wrap(0.5 * s.gaussian()), wrap(0.5 * s.gaussian()),
                wrap(0.5 * s.gaussian()), 0, 0, 0, 1.0f, i);
  }
  Halo h;
  h.center = {0.0, 0.0, 0.0};
  const auto prof = halo_profile(p, h, box, 3.0, 6);
  std::size_t total = 0;
  for (const auto& b : prof) total += b.count;
  EXPECT_GT(total, 950u);  // nearly all particles found despite the seam
}

// ---- correlation function --------------------------------------------------------

TEST(Correlation, SingleModeGivesCosine) {
  // delta = A cos(k x) => xi(r) = (A^2/2) sinc(k r) shell-averaged: xi(0+)
  // ~ A^2/2 > 0 and negative for k r in (pi, 2 pi). Mode 4 puts the first
  // zero crossing at r = 8 Mpc/h, well inside rmax = box/2.
  const std::size_t n = 32;
  const int mode = 4;
  const double box = 64.0, amp = 0.2;
  mesh::BlockDecomp3D d({n, n, n}, comm::Cart3D({1, 1, 1}));
  comm::Machine::run(1, [&](comm::Comm& c) {
    mesh::DistGrid delta(d, 0, 1);
    for (std::size_t x = 0; x < n; ++x)
      for (std::size_t y = 0; y < n; ++y)
        for (std::size_t z = 0; z < n; ++z)
          delta.at(static_cast<std::ptrdiff_t>(x),
                   static_cast<std::ptrdiff_t>(y),
                   static_cast<std::ptrdiff_t>(z)) =
              amp * std::cos(2.0 * std::numbers::pi * mode *
                             static_cast<double>(x) / static_cast<double>(n));
    mesh::BlockFft fft(c, d);
    auto xi = measure_correlation_function(c, fft, delta, box, 16);
    ASSERT_FALSE(xi.empty());
    EXPECT_NEAR(xi.front().xi, 0.5 * amp * amp, 0.2 * 0.5 * amp * amp);
    // xi at small lag positive, somewhere beyond a quarter wavelength the
    // shell-average goes negative.
    bool crossed = false;
    for (const auto& b : xi) {
      if (b.xi < 0) crossed = true;
    }
    EXPECT_TRUE(crossed);
  });
}

TEST(Correlation, ZeroLagEqualsVariance) {
  const std::size_t n = 16;
  const double box = 32.0;
  mesh::BlockDecomp3D d({n, n, n}, comm::Cart3D({1, 1, 1}));
  comm::Machine::run(1, [&](comm::Comm& c) {
    mesh::DistGrid delta(d, 0, 1);
    Philox rng(9);
    double var = 0, mean = 0;
    for (std::size_t x = 0; x < n; ++x)
      for (std::size_t y = 0; y < n; ++y)
        for (std::size_t z = 0; z < n; ++z) {
          const double v = rng.gaussian2((x * n + y) * n + z)[0];
          delta.at(static_cast<std::ptrdiff_t>(x),
                   static_cast<std::ptrdiff_t>(y),
                   static_cast<std::ptrdiff_t>(z)) = v;
          mean += v;
        }
    mean /= static_cast<double>(n * n * n);
    for (std::size_t x = 0; x < n; ++x)
      for (std::size_t y = 0; y < n; ++y)
        for (std::size_t z = 0; z < n; ++z) {
          const double v = delta.at(static_cast<std::ptrdiff_t>(x),
                                    static_cast<std::ptrdiff_t>(y),
                                    static_cast<std::ptrdiff_t>(z)) -= mean;
          var += v * v;
        }
    var /= static_cast<double>(n * n * n);
    // Very fine binning so the first bin contains only the zero lag.
    mesh::BlockFft fft(c, d);
    auto xi = measure_correlation_function(c, fft, delta, box, 16);
    EXPECT_NEAR(xi.front().xi * static_cast<double>(xi.front().cells), var,
                0.05 * var + 1e-12);
    // White noise: all other bins ~ 0.
    for (std::size_t b = 1; b < xi.size(); ++b)
      EXPECT_LT(std::abs(xi[b].xi), 0.1 * var);
  });
}

class CorrelationRanks : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, CorrelationRanks, ::testing::Values(1, 4, 8));

TEST_P(CorrelationRanks, DecompositionIndependent) {
  const int nranks = GetParam();
  const std::size_t n = 16;
  const double box = 32.0;
  auto field = [&](std::size_t x, std::size_t y, std::size_t z) {
    return Philox(42).gaussian2((x * n + y) * n + z)[0] * 0.3;
  };
  static std::vector<CorrelationBin> reference;
  mesh::BlockDecomp3D d = mesh::BlockDecomp3D::balanced({n, n, n}, nranks);
  comm::Machine::run(nranks, [&](comm::Comm& c) {
    mesh::DistGrid delta(d, c.rank(), 1);
    const auto& b = delta.interior();
    for (std::size_t x = b.x.lo; x < b.x.hi; ++x)
      for (std::size_t y = b.y.lo; y < b.y.hi; ++y)
        for (std::size_t z = b.z.lo; z < b.z.hi; ++z)
          delta.at(static_cast<std::ptrdiff_t>(x - b.x.lo),
                   static_cast<std::ptrdiff_t>(y - b.y.lo),
                   static_cast<std::ptrdiff_t>(z - b.z.lo)) = field(x, y, z);
    mesh::BlockFft fft(c, d);
    auto xi = measure_correlation_function(c, fft, delta, box, 10);
    if (c.rank() == 0) {
      if (nranks == 1) {
        reference = xi;
      } else {
        ASSERT_EQ(xi.size(), reference.size());
        for (std::size_t i = 0; i < xi.size(); ++i) {
          EXPECT_NEAR(xi[i].xi, reference[i].xi,
                      1e-10 * (std::abs(reference[i].xi) + 1.0));
          EXPECT_EQ(xi[i].cells, reference[i].cells);
        }
      }
    }
  });
}

// ---- Press-Schechter --------------------------------------------------------------

TEST(PressSchechter, SigmaOfMassDecreases) {
  Cosmology c;
  LinearPower p(c);
  double prev = 1e9;
  for (double m : {1e11, 1e12, 1e13, 1e14, 1e15}) {
    const double s = sigma_of_mass(p, m);
    EXPECT_LT(s, prev) << m;
    prev = s;
  }
  // sigma at the 8 Mpc/h mass scale reproduces sigma8 by construction:
  // M(8 Mpc/h) = (4pi/3) rho_m 8^3.
  const double rho_m = 2.775e11 * c.omega_m;
  const double m8 = 4.0 / 3.0 * std::numbers::pi * rho_m * 512.0;
  EXPECT_NEAR(sigma_of_mass(p, m8), c.sigma8, 1e-6);
}

TEST(PressSchechter, MassFunctionShape) {
  Cosmology c;
  LinearPower p(c);
  // dn/dlnM declines steeply toward cluster masses and is exponentially
  // cut off above the knee.
  const double n12 = press_schechter_dndlnm(p, 0.0, 1e12);
  const double n14 = press_schechter_dndlnm(p, 0.0, 1e14);
  const double n16 = press_schechter_dndlnm(p, 0.0, 1e16);
  EXPECT_GT(n12, n14);
  EXPECT_GT(n14, n16);
  EXPECT_LT(n16, 1e-3 * n14);  // exponential cutoff
  // Rough normalization: ~1e-3 halos / (Mpc/h)^3 / ln M at 1e13 Msun/h.
  const double n13 = press_schechter_dndlnm(p, 0.0, 1e13);
  EXPECT_GT(n13, 1e-5);
  EXPECT_LT(n13, 1e-2);
}

TEST(PressSchechter, HighRedshiftSuppressesClusters) {
  // Clusters form late (paper Sec. V: "they form very late and are hence
  // sensitive probes of the late-time acceleration").
  Cosmology c;
  LinearPower p(c);
  const double now = press_schechter_dndlnm(p, 0.0, 1e14);
  const double early = press_schechter_dndlnm(p, 2.0, 1e14);
  EXPECT_LT(early, 0.2 * now);
}

}  // namespace
}  // namespace hacc::cosmology
