// Tests for the cosmology module: FLRW background, growth, linear power
// spectra, Zel'dovich initial conditions (measured P(k) must reproduce the
// input), FOF halos and subhalos.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <numbers>
#include <numeric>
#include <set>
#include <utility>

#include "comm/comm.h"
#include "cosmology/background.h"
#include "cosmology/halo_finder.h"
#include "cosmology/initial_conditions.h"
#include "cosmology/power_spectrum.h"
#include "fft/pencil.h"
#include "mesh/block_fft.h"
#include "mesh/cic.h"
#include "mesh/kernels.h"
#include "util/rng.h"

#include "alloc_hook.h"

namespace hacc::cosmology {
namespace {

// ---- background --------------------------------------------------------------

TEST(Background, EfuncLimits) {
  Cosmology c;
  EXPECT_NEAR(c.efunc(1.0), 1.0, 1e-12);  // E(a=1) = 1 by construction
  // Deep matter domination: E ~ sqrt(Om) a^{-3/2}.
  const double a = 1e-3;
  EXPECT_NEAR(c.efunc(a) / (std::sqrt(c.omega_m) * std::pow(a, -1.5)), 1.0,
              1e-3);
}

TEST(Background, EinsteinDeSitterGrowthIsA) {
  // Om = 1: D+(a) = a exactly.
  Cosmology eds;
  eds.omega_m = 1.0;
  eds.omega_l = 0.0;
  eds.omega_b = 0.0;
  for (double a : {0.1, 0.25, 0.5, 0.9}) {
    EXPECT_NEAR(eds.growth_factor(a), a, 2e-4) << "a=" << a;
    EXPECT_NEAR(eds.growth_rate(a), 1.0, 1e-3);
  }
}

TEST(Background, LcdmGrowthSuppressedAtLateTimes) {
  // In LCDM growth lags a at late times; at early times D ~ a.
  Cosmology c;
  EXPECT_NEAR(c.growth_factor(1.0), 1.0, 1e-12);
  const double early = c.growth_factor(0.02) / 0.02;
  const double late = c.growth_factor(1.0) / 1.0;
  EXPECT_GT(early, late);  // normalized growth per a declines
  // Known LCDM value: D+(a=0.5)/a ~ 1.1..1.3 relative to its z=0 value for
  // Om ~ 0.265 (growth suppression ~ 0.78 at z=0 in absolute terms).
  const double d_half = c.growth_factor(0.5);
  EXPECT_GT(d_half, 0.5);   // more growth than a (normalized at 1)
  EXPECT_LT(d_half, 0.75);
}

TEST(Background, GrowthRateApproximatesOmegaPower) {
  // f(z=0) ~ Omega_m(z=0)^0.55 for LCDM.
  Cosmology c;
  EXPECT_NEAR(c.growth_rate(1.0), std::pow(c.omega_m, 0.55), 0.01);
}

TEST(Background, KickDriftFactorsPositiveAndAdditive) {
  Cosmology c;
  const double k1 = c.kick_factor(0.2, 0.5);
  const double k2 = c.kick_factor(0.5, 0.8);
  EXPECT_GT(k1, 0);
  EXPECT_NEAR(k1 + k2, c.kick_factor(0.2, 0.8), 1e-10);
  const double d1 = c.drift_factor(0.2, 0.5);
  EXPECT_GT(d1, k1);  // 1/(a^3 E) > 1/(a^2 E) for a < 1
}

TEST(Background, EdsFactorsMatchClosedForm) {
  // Om = 1: kick = int a^{-1/2} da... E = a^{-3/2}:
  // kick: int da/(a^2 E) = int a^{-1/2} da = 2(sqrt(a1)-sqrt(a0));
  // drift: int da/(a^3 E) = int a^{-3/2} da = 2(1/sqrt(a0)-1/sqrt(a1)).
  Cosmology eds;
  eds.omega_m = 1.0;
  eds.omega_l = 0.0;
  EXPECT_NEAR(eds.kick_factor(0.25, 1.0), 2.0 * (1.0 - 0.5), 1e-9);
  EXPECT_NEAR(eds.drift_factor(0.25, 1.0), 2.0 * (2.0 - 1.0), 1e-9);
}

TEST(Background, DarkEnergyEquationOfState) {
  // w = -1 must reproduce the cosmological constant exactly.
  Cosmology lcdm;
  Cosmology w1 = lcdm;
  w1.w = -1.0;
  for (double a : {0.1, 0.5, 1.0}) {
    EXPECT_DOUBLE_EQ(w1.efunc(a), lcdm.efunc(a));
  }
  // Quintessence-like w = -0.8: dark energy matters earlier, so E(a<1) is
  // larger and growth since a=0.5 is more suppressed (D(0.5)/D(1) larger).
  Cosmology q = lcdm;
  q.w = -0.8;
  EXPECT_GT(q.efunc(0.5), lcdm.efunc(0.5));
  EXPECT_GT(q.growth_factor(0.5), lcdm.growth_factor(0.5));
  // Phantom w = -1.2: the opposite ordering.
  Cosmology ph = lcdm;
  ph.w = -1.2;
  EXPECT_LT(ph.efunc(0.5), lcdm.efunc(0.5));
  EXPECT_LT(ph.growth_factor(0.5), lcdm.growth_factor(0.5));
}

TEST(Background, GrowthOdeStableAcrossWRange) {
  // The ODE growth must stay normalized and monotone for the model-space
  // scan the paper motivates.
  for (double w : {-1.4, -1.2, -1.0, -0.8, -0.6}) {
    Cosmology c;
    c.w = w;
    EXPECT_NEAR(c.growth_factor(1.0), 1.0, 1e-12) << w;
    double prev = 0;
    for (double a : {0.1, 0.3, 0.5, 0.7, 0.9, 1.0}) {
      const double d = c.growth_factor(a);
      EXPECT_GT(d, prev) << "w=" << w << " a=" << a;
      prev = d;
    }
  }
}

// ---- linear power -------------------------------------------------------------

class TransferCase : public ::testing::TestWithParam<TransferFunction> {};
INSTANTIATE_TEST_SUITE_P(Both, TransferCase,
                         ::testing::Values(TransferFunction::kBbks,
                                           TransferFunction::kEisensteinHu));

TEST_P(TransferCase, TransferIsOneAtLargeScalesAndDecays) {
  Cosmology c;
  LinearPower p(c, GetParam());
  EXPECT_NEAR(p.transfer(1e-5), 1.0, 1e-3);
  EXPECT_LT(p.transfer(1.0), 0.1);
  EXPECT_LT(p.transfer(10.0), p.transfer(1.0));
}

TEST_P(TransferCase, Sigma8NormalizationHolds) {
  Cosmology c;
  LinearPower p(c, GetParam());
  EXPECT_NEAR(sigma_r(p, 8.0), c.sigma8, 1e-6);
}

TEST_P(TransferCase, PowerPeaksAroundMatterRadiationEquality) {
  Cosmology c;
  LinearPower p(c, GetParam());
  // P(k) rises as ~k^ns at low k and falls at high k; the turnover for this
  // cosmology sits near k ~ 0.01-0.05 h/Mpc.
  const double p_low = p(1e-4);
  const double p_peak = p(0.02);
  const double p_high = p(5.0);
  EXPECT_GT(p_peak, p_low);
  EXPECT_GT(p_peak, p_high);
}

TEST(LinearPower, RedshiftScalingIsGrowthSquared) {
  Cosmology c;
  LinearPower p(c);
  const double d = c.growth_factor(Cosmology::a_of_z(2.0));
  EXPECT_NEAR(p.at_redshift(0.1, 2.0), p(0.1) * d * d, 1e-12);
}

// ---- measured P(k) of a known field ---------------------------------------------

TEST(MeasuredPower, RecoversSingleModeAmplitude) {
  // delta(x) = A cos(k1 x): P should concentrate in the k1 bin with
  // |delta_k|^2 = (A N^3 / 2)^2 in two modes -> P = A^2 V / 4 ... checked
  // against the estimator's normalization directly.
  const std::size_t n = 16;
  const double box = 100.0;  // Mpc/h
  const double amp = 0.01;
  mesh::BlockDecomp3D d({n, n, n}, comm::Cart3D({1, 1, 1}));
  comm::Machine::run(1, [&](comm::Comm& c) {
    mesh::DistGrid delta(d, 0, 1);
    for (std::size_t x = 0; x < n; ++x)
      for (std::size_t y = 0; y < n; ++y)
        for (std::size_t z = 0; z < n; ++z)
          delta.at(static_cast<std::ptrdiff_t>(x),
                   static_cast<std::ptrdiff_t>(y),
                   static_cast<std::ptrdiff_t>(z)) =
              amp * std::cos(2.0 * std::numbers::pi * static_cast<double>(x) /
                             static_cast<double>(n));
    mesh::BlockFft fft(c, d);
    std::vector<fft::Complex> spectrum;
    fft.forward(c, delta, spectrum);
    auto bins = measure_power_spectrum(c, fft, spectrum, box, 8,
                                       /*deconvolve_cic=*/false);
    const double kf = 2.0 * std::numbers::pi / box;
    // All power in the lowest bin; expected P = A^2/4 * V ... per-mode
    // power: |delta_k|^2 = (A/2 N^3)^2 at k = +-k1; estimator averages over
    // modes in the bin.
    double total_modes = 0, weighted_p = 0, kbar = 0;
    for (const auto& b : bins) {
      total_modes += static_cast<double>(b.modes);
      weighted_p += b.power * static_cast<double>(b.modes);
      if (b.power > weighted_p / total_modes * 10) kbar = b.k;
    }
    (void)kbar;
    const double volume = box * box * box;
    const double expected_total = 2.0 * (amp / 2.0) * (amp / 2.0) * volume;
    EXPECT_NEAR(weighted_p, expected_total, 1e-6 * expected_total);
    // The hot bin is the one containing kf.
    const auto& hot = *std::max_element(
        bins.begin(), bins.end(),
        [](const PowerBin& a, const PowerBin& b) { return a.power < b.power; });
    EXPECT_NEAR(hot.k, kf, kf * 0.5);
  });
}

/// Independent full-spectrum reference for measure_power_spectrum: the c2c
/// pencil transform of the global row-major n^3 field on one rank, every
/// mode of the full spectrum binned once, with the estimator's binning,
/// window and normalization.
std::vector<PowerBin> c2c_reference_power(const std::vector<double>& field,
                                          std::size_t n, double box,
                                          std::size_t bins,
                                          bool deconvolve_cic) {
  std::vector<fft::Complex> spec(field.begin(), field.end());
  comm::Machine::run(1, [&](comm::Comm& c) {
    fft::PencilFft3D(c, n, n, n, 1, 1).forward(spec);
  });
  const double kf = 2.0 * std::numbers::pi / box;
  const double k_nyq = kf * static_cast<double>(n) / 2.0;
  std::vector<double> psum(bins, 0.0), ksum(bins, 0.0);
  std::vector<std::size_t> counts(bins, 0);
  for (std::size_t mx = 0; mx < n; ++mx)
    for (std::size_t my = 0; my < n; ++my)
      for (std::size_t mz = 0; mz < n; ++mz) {
        const long s[3] = {mesh::signed_mode(mx, n), mesh::signed_mode(my, n),
                           mesh::signed_mode(mz, n)};
        if (s[0] == 0 && s[1] == 0 && s[2] == 0) continue;
        const double kmag = kf * std::sqrt(static_cast<double>(
                                     s[0] * s[0] + s[1] * s[1] + s[2] * s[2]));
        if (kmag > k_nyq) continue;
        double p = std::norm(spec[(mx * n + my) * n + mz]);
        if (deconvolve_cic) {
          double w = 1.0;
          for (const long m : s) {
            const double u = std::numbers::pi * static_cast<double>(m) /
                             static_cast<double>(n);
            if (m != 0) w *= std::sin(u) / u;
          }
          p /= std::pow(w, 4);
        }
        const std::size_t bi = std::min(
            bins - 1, static_cast<std::size_t>(kmag / k_nyq *
                                               static_cast<double>(bins)));
        psum[bi] += p;
        ksum[bi] += kmag;
        ++counts[bi];
      }
  const double ncells = std::pow(static_cast<double>(n), 3);
  std::vector<PowerBin> out;
  for (std::size_t i = 0; i < bins; ++i) {
    if (counts[i] == 0) continue;
    const double mean_p = psum[i] / static_cast<double>(counts[i]);
    out.push_back(PowerBin{ksum[i] / static_cast<double>(counts[i]),
                           mean_p * box * box * box / (ncells * ncells),
                           counts[i]});
  }
  return out;
}

class MeasureRanks : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, MeasureRanks, ::testing::Values(1, 2, 4, 8));

TEST_P(MeasureRanks, DecompositionIndependent) {
  // The half-spectrum estimator must bin exactly the modes of the full
  // spectrum: identical mode counts and k/power to 1e-12 relative against
  // the c2c reference, at every rank count, on an even grid (z = 0 and
  // Nyquist planes self-conjugate) and an odd one (only z = 0), with and
  // without the CIC window. Every rank count also reproduces the 1-rank
  // estimate.
  const int nranks = GetParam();
  const double box = 64.0;
  static std::map<std::pair<std::size_t, bool>, std::vector<PowerBin>>
      one_rank;
  for (const std::size_t n : {std::size_t{16}, std::size_t{15}}) {
    // Deterministic random field keyed on global cell.
    std::vector<double> field(n * n * n);
    for (std::size_t i = 0; i < field.size(); ++i)
      field[i] = Philox(77).gaussian2(i)[0] * 0.1;
    mesh::BlockDecomp3D d = mesh::BlockDecomp3D::balanced({n, n, n}, nranks);
    for (const bool deconvolve : {false, true}) {
      const auto reference = c2c_reference_power(field, n, box, 12, deconvolve);
      comm::Machine::run(nranks, [&](comm::Comm& c) {
        mesh::DistGrid delta(d, c.rank(), 1);
        const auto& b = delta.interior();
        for (std::size_t x = b.x.lo; x < b.x.hi; ++x)
          for (std::size_t y = b.y.lo; y < b.y.hi; ++y)
            for (std::size_t z = b.z.lo; z < b.z.hi; ++z)
              delta.at(static_cast<std::ptrdiff_t>(x - b.x.lo),
                       static_cast<std::ptrdiff_t>(y - b.y.lo),
                       static_cast<std::ptrdiff_t>(z - b.z.lo)) =
                  field[(x * n + y) * n + z];
        mesh::BlockFft fft(c, d);
        std::vector<fft::Complex> spectrum;
        fft.forward(c, delta, spectrum);
        auto bins =
            measure_power_spectrum(c, fft, spectrum, box, 12, deconvolve);
        if (c.rank() != 0) return;
        ASSERT_EQ(bins.size(), reference.size()) << "n=" << n;
        for (std::size_t i = 0; i < bins.size(); ++i) {
          EXPECT_EQ(bins[i].modes, reference[i].modes) << "n=" << n;
          EXPECT_NEAR(bins[i].k, reference[i].k, 1e-12 * reference[i].k)
              << "n=" << n << " bin " << i;
          EXPECT_NEAR(bins[i].power, reference[i].power,
                      1e-12 * reference[i].power)
              << "n=" << n << " deconvolve=" << deconvolve << " bin " << i;
        }
        auto& first = one_rank[{n, deconvolve}];
        if (nranks == 1) {
          first = bins;
        } else {
          ASSERT_EQ(bins.size(), first.size());
          for (std::size_t i = 0; i < bins.size(); ++i) {
            EXPECT_NEAR(bins[i].power, first[i].power,
                        1e-9 * (first[i].power + 1.0));
            EXPECT_EQ(bins[i].modes, first[i].modes);
          }
        }
      });
    }
  }
}

// ---- initial conditions ----------------------------------------------------------

TEST(InitialConditions, LatticeCountAndDeterminism) {
  const std::size_t n = 16;
  IcConfig cfg;
  cfg.particles_per_dim = 16;
  cfg.box_mpch = 32.0;
  cfg.z_init = 30.0;
  Cosmology cosmo;
  for (int nranks : {1, 4, 8}) {
    mesh::BlockDecomp3D d = mesh::BlockDecomp3D::balanced({n, n, n}, nranks);
    std::vector<std::array<float, 6>> by_id(16 * 16 * 16);
    std::mutex mu;
    comm::Machine::run(nranks, [&](comm::Comm& c) {
      tree::ParticleArray p;
      generate_zeldovich(c, d, cosmo, cfg, p);
      const auto total = c.allreduce_value(
          static_cast<long long>(p.size()), comm::ReduceOp::kSum);
      EXPECT_EQ(total, 16LL * 16 * 16);
      std::lock_guard lock(mu);
      for (std::size_t i = 0; i < p.size(); ++i)
        by_id[p.id[i]] = {p.x[i], p.y[i], p.z[i], p.vx[i], p.vy[i], p.vz[i]};
    });
    static std::vector<std::array<float, 6>> reference;
    if (nranks == 1) {
      reference = by_id;
    } else {
      // Decomposition independence: the same realization, bit for bit, on
      // 1, 4 and 8 ranks (every transform runs on whole global lines).
      for (std::size_t i = 0; i < by_id.size(); ++i) {
        for (std::size_t c6 = 0; c6 < 6; ++c6)
          EXPECT_EQ(std::bit_cast<std::uint32_t>(by_id[i][c6]),
                    std::bit_cast<std::uint32_t>(reference[i][c6]))
              << "id=" << i << " field=" << c6 << " ranks=" << nranks;
      }
    }
  }
}

TEST(InitialConditions, MeasuredPowerMatchesLinearInput) {
  // Deposit the Zel'dovich particles and verify the measured P(k) tracks
  // the linear input spectrum at the IC redshift (within sampling noise).
  const std::size_t n = 32;
  IcConfig cfg;
  cfg.particles_per_dim = 32;
  cfg.box_mpch = 128.0;
  cfg.z_init = 20.0;
  cfg.seed = 99;
  Cosmology cosmo;
  LinearPower lin(cosmo, cfg.transfer);
  mesh::BlockDecomp3D d({n, n, n}, comm::Cart3D({1, 1, 1}));
  comm::Machine::run(1, [&](comm::Comm& c) {
    tree::ParticleArray p;
    generate_zeldovich(c, d, cosmo, cfg, p);
    mesh::DistGrid rho(d, 0, 1);
    mesh::cic_deposit(rho, p.x, p.y, p.z, 1.0f);
    rho.fold_ghosts(c);
    mesh::to_density_contrast(rho, c);
    mesh::BlockFft fft(c, d);
    std::vector<fft::Complex> spectrum;
    fft.forward(c, rho, spectrum);
    auto bins = measure_power_spectrum(c, fft, spectrum, cfg.box_mpch, 12);
    const double z = cfg.z_init;
    // Compare in the intermediate-k range (low k: few modes; high k near
    // Nyquist: lattice/window artifacts).
    std::size_t tested = 0;
    for (const auto& b : bins) {
      if (b.modes < 50 || b.k > 0.5) continue;
      const double expect = lin.at_redshift(b.k, z);
      EXPECT_NEAR(b.power / expect, 1.0, 0.5) << "k=" << b.k;
      ++tested;
    }
    EXPECT_GE(tested, 3u);
  });
}

TEST(InitialConditions, DisplacementFieldsAreDivergenceOfPotential) {
  // The Zel'dovich displacement is curl-free; check a discrete curl is
  // small relative to the field magnitude.
  const std::size_t n = 16;
  IcConfig cfg;
  cfg.particles_per_dim = 16;
  cfg.box_mpch = 64.0;
  Cosmology cosmo;
  mesh::BlockDecomp3D d({n, n, n}, comm::Cart3D({1, 1, 1}));
  comm::Machine::run(1, [&](comm::Comm& c) {
    std::array<mesh::DistGrid, 3> psi{mesh::DistGrid(d, 0, 1),
                                      mesh::DistGrid(d, 0, 1),
                                      mesh::DistGrid(d, 0, 1)};
    generate_displacement_fields(c, d, cosmo, cfg, psi);
    double curl = 0, mag = 0;
    for (std::ptrdiff_t x = 1; x < static_cast<std::ptrdiff_t>(n) - 1; ++x)
      for (std::ptrdiff_t y = 1; y < static_cast<std::ptrdiff_t>(n) - 1; ++y)
        for (std::ptrdiff_t z = 1; z < static_cast<std::ptrdiff_t>(n) - 1;
             ++z) {
          // curl_z = d(psi_y)/dx - d(psi_x)/dy (central differences).
          const double cz =
              0.5 * (psi[1].at(x + 1, y, z) - psi[1].at(x - 1, y, z)) -
              0.5 * (psi[0].at(x, y + 1, z) - psi[0].at(x, y - 1, z));
          curl += cz * cz;
          mag += psi[0].at(x, y, z) * psi[0].at(x, y, z) +
                 psi[1].at(x, y, z) * psi[1].at(x, y, z);
        }
    EXPECT_LT(curl, 0.05 * mag);
  });
}

/// Independent full-spectrum reference for generate_displacement_fields:
/// the same white noise, power and i k / k^2 multipliers run through the
/// c2c pencil transform on `nranks` ranks; returns each axis' real part as
/// a global row-major n^3 array.
std::array<std::vector<double>, 3> c2c_reference_displacement(
    std::size_t n, const Cosmology& cosmo, const IcConfig& cfg, int nranks) {
  const double box = cfg.box_mpch;
  const double kf = 2.0 * std::numbers::pi / box;
  const double ncells = std::pow(static_cast<double>(n), 3);
  const LinearPower power(cosmo, cfg.transfer);
  std::array<std::vector<double>, 3> out;
  for (auto& v : out) v.assign(n * n * n, 0.0);
  comm::Machine::run(nranks, [&](comm::Comm& c) {
    auto fft = fft::PencilFft3D::balanced(c, n, n, n);
    const fft::Box3D rb = fft.real_box();
    Philox rng(cfg.seed);
    std::vector<fft::Complex> delta_k;
    for (std::size_t x = rb.x.lo; x < rb.x.hi; ++x)
      for (std::size_t y = rb.y.lo; y < rb.y.hi; ++y)
        for (std::size_t z = rb.z.lo; z < rb.z.hi; ++z)
          delta_k.emplace_back(rng.gaussian2((x * n + y) * n + z)[0], 0.0);
    fft.forward(delta_k);
    const fft::Box3D sb = fft.spectral_box();
    auto for_each_mode = [&](auto&& fn) {
      std::size_t i = 0;
      for (std::size_t mx = sb.x.lo; mx < sb.x.hi; ++mx)
        for (std::size_t my = sb.y.lo; my < sb.y.hi; ++my)
          for (std::size_t mz = sb.z.lo; mz < sb.z.hi; ++mz)
            fn(i++, std::array<long, 3>{mesh::signed_mode(mx, n),
                                        mesh::signed_mode(my, n),
                                        mesh::signed_mode(mz, n)});
    };
    for_each_mode([&](std::size_t i, const std::array<long, 3>& s) {
      const double k2 =
          kf * kf * static_cast<double>(s[0] * s[0] + s[1] * s[1] + s[2] * s[2]);
      delta_k[i] *= k2 == 0.0 ? 0.0
                              : std::sqrt(power(std::sqrt(k2)) * ncells /
                                          (box * box * box));
    });
    for (std::size_t axis = 0; axis < 3; ++axis) {
      std::vector<fft::Complex> psi_k(delta_k.size());
      for_each_mode([&](std::size_t i, const std::array<long, 3>& s) {
        const double k2 = kf * kf * static_cast<double>(s[0] * s[0] +
                                                        s[1] * s[1] +
                                                        s[2] * s[2]);
        const bool nyquist =
            n % 2 == 0 && s[axis] == -static_cast<long>(n / 2);
        if (k2 == 0.0 || nyquist) return;
        psi_k[i] = fft::Complex(0.0, kf * static_cast<double>(s[axis]) / k2) *
                   delta_k[i] / (box / static_cast<double>(n));
      });
      fft.inverse(psi_k);
      std::size_t i = 0;
      for (std::size_t x = rb.x.lo; x < rb.x.hi; ++x)
        for (std::size_t y = rb.y.lo; y < rb.y.hi; ++y)
          for (std::size_t z = rb.z.lo; z < rb.z.hi; ++z)
            out[axis][(x * n + y) * n + z] = psi_k[i++].real();
    }
  });
  return out;
}

TEST(InitialConditions, DisplacementMatchesFullSpectrumReference) {
  // The half-spectrum displacement fields must equal the full complex
  // construction to round-off: a wrong Hermitian treatment of the z = 0 or
  // Nyquist planes would leave an O(1) difference. Acceptance: every cell
  // within 1e-12 of the field's largest magnitude.
  const std::size_t n = 16;
  IcConfig cfg;
  cfg.particles_per_dim = 16;
  cfg.box_mpch = 64.0;
  cfg.seed = 31;
  Cosmology cosmo;
  for (int nranks : {1, 4}) {
    const auto ref = c2c_reference_displacement(n, cosmo, cfg, nranks);
    mesh::BlockDecomp3D d = mesh::BlockDecomp3D::balanced({n, n, n}, nranks);
    std::array<std::vector<double>, 3> got;
    for (auto& v : got) v.assign(n * n * n, 0.0);
    std::mutex mu;
    comm::Machine::run(nranks, [&](comm::Comm& c) {
      std::array<mesh::DistGrid, 3> psi{mesh::DistGrid(d, c.rank(), 1),
                                        mesh::DistGrid(d, c.rank(), 1),
                                        mesh::DistGrid(d, c.rank(), 1)};
      generate_displacement_fields(c, d, cosmo, cfg, psi);
      std::lock_guard lock(mu);
      const auto& b = psi[0].interior();
      for (std::size_t axis = 0; axis < 3; ++axis)
        for (std::size_t x = b.x.lo; x < b.x.hi; ++x)
          for (std::size_t y = b.y.lo; y < b.y.hi; ++y)
            for (std::size_t z = b.z.lo; z < b.z.hi; ++z)
              got[axis][(x * n + y) * n + z] =
                  psi[axis].at(static_cast<std::ptrdiff_t>(x - b.x.lo),
                               static_cast<std::ptrdiff_t>(y - b.y.lo),
                               static_cast<std::ptrdiff_t>(z - b.z.lo));
    });
    for (std::size_t axis = 0; axis < 3; ++axis) {
      double scale = 0, err = 0;
      for (std::size_t i = 0; i < got[axis].size(); ++i) {
        scale = std::max(scale, std::abs(ref[axis][i]));
        err = std::max(err, std::abs(got[axis][i] - ref[axis][i]));
      }
      EXPECT_GT(scale, 0.0);
      EXPECT_LE(err, 1e-12 * scale) << "axis=" << axis << " ranks=" << nranks;
    }
  }
}

// ---- halo finder ------------------------------------------------------------------

tree::ParticleArray two_blobs(double box, std::size_t per_blob,
                              std::uint64_t seed) {
  tree::ParticleArray p;
  Philox rng(seed);
  Philox::Stream s(rng);
  auto blob = [&](double cx, double cy, double cz, float sigma) {
    for (std::size_t i = 0; i < per_blob; ++i) {
      auto wrap = [&](double v) {
        v = std::fmod(v, box);
        return static_cast<float>(v < 0 ? v + box : v);
      };
      p.push_back(wrap(cx + sigma * s.gaussian()),
                  wrap(cy + sigma * s.gaussian()),
                  wrap(cz + sigma * s.gaussian()), 1.0f, 2.0f, 3.0f, 1.0f,
                  p.size());
    }
  };
  blob(box * 0.25, box * 0.25, box * 0.25, 0.4f);
  blob(box * 0.75, box * 0.75, box * 0.75, 0.4f);
  return p;
}

TEST(HaloFinder, FindsTwoWellSeparatedBlobs) {
  const double box = 32.0;
  auto p = two_blobs(box, 200, 5);
  FofConfig cfg;
  cfg.box = box;
  cfg.mean_spacing = 2.0;  // linking radius 0.4
  cfg.linking_length = 0.2;
  cfg.min_members = 50;
  auto halos = find_halos(p, cfg);
  ASSERT_EQ(halos.size(), 2u);
  // Gaussian-tail outliers may legitimately be unlinked; require >= 95%.
  EXPECT_GE(halos[0].members.size() + halos[1].members.size(), 380u);
  // Centers near the blob centers.
  for (const auto& h : halos) {
    const bool near_a = std::abs(h.center[0] - 8.0) < 1.0;
    const bool near_b = std::abs(h.center[0] - 24.0) < 1.0;
    EXPECT_TRUE(near_a || near_b);
    EXPECT_NEAR(h.velocity[0], 1.0, 1e-4);
  }
}

TEST(HaloFinder, PeriodicWrapLinksAcrossSeam) {
  // A blob straddling the box corner must come out as ONE halo with its
  // center near the corner.
  const double box = 32.0;
  tree::ParticleArray p;
  Philox rng(6);
  Philox::Stream s(rng);
  for (std::size_t i = 0; i < 300; ++i) {
    auto wrap = [&](double v) {
      v = std::fmod(v + box, box);
      return static_cast<float>(v);
    };
    p.push_back(wrap(0.3 * s.gaussian()), wrap(0.3 * s.gaussian()),
                wrap(0.3 * s.gaussian()), 0, 0, 0, 1.0f, i);
  }
  FofConfig cfg;
  cfg.box = box;
  cfg.mean_spacing = 2.0;
  cfg.min_members = 100;
  auto halos = find_halos(p, cfg);
  ASSERT_EQ(halos.size(), 1u);
  EXPECT_GE(halos[0].members.size(), 285u);  // tail outliers may drop
  const double cx = halos[0].center[0];
  EXPECT_TRUE(cx < 1.5 || cx > box - 1.5) << cx;
}

TEST(HaloFinder, MinMembersFiltersFieldParticles) {
  const double box = 32.0;
  tree::ParticleArray p = two_blobs(box, 100, 8);
  // Sprinkle isolated particles.
  Philox rng(9);
  Philox::Stream s(rng);
  for (std::size_t i = 0; i < 50; ++i)
    p.push_back(static_cast<float>(s.uniform(0, box)),
                static_cast<float>(s.uniform(0, box)),
                static_cast<float>(s.uniform(0, box)), 0, 0, 0, 1.0f,
                1000 + i);
  FofConfig cfg;
  cfg.box = box;
  cfg.mean_spacing = 2.0;
  cfg.min_members = 50;
  auto halos = find_halos(p, cfg);
  EXPECT_EQ(halos.size(), 2u);
}

TEST(HaloFinder, SubhalosSplitMerger) {
  // One FOF halo made of two sub-clumps connected by a thin bridge; the
  // tighter sub-linking must split them.
  const double box = 32.0;
  tree::ParticleArray p;
  Philox rng(10);
  Philox::Stream s(rng);
  auto blob = [&](double cx, float sigma, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i)
      p.push_back(static_cast<float>(cx + sigma * s.gaussian()),
                  static_cast<float>(16.0 + sigma * s.gaussian()),
                  static_cast<float>(16.0 + sigma * s.gaussian()), 0, 0, 0,
                  1.0f, p.size());
  };
  blob(14.0, 0.25f, 150);
  blob(18.0, 0.25f, 150);
  // Bridge with spacing just under the parent linking radius (0.4).
  for (int i = 0; i < 12; ++i)
    p.push_back(14.0f + 0.35f * static_cast<float>(i), 16.0f, 16.0f, 0, 0, 0,
                1.0f, p.size());
  FofConfig cfg;
  cfg.box = box;
  cfg.mean_spacing = 2.0;
  cfg.min_members = 100;
  auto halos = find_halos(p, cfg);
  ASSERT_EQ(halos.size(), 1u);  // bridge merges everything
  auto subs = find_subhalos(p, halos[0], cfg, 0.5, 50);
  EXPECT_EQ(subs.size(), 2u);  // sub-linking severs the bridge
}

// ---- halo finder against an all-pairs oracle ---------------------------------

/// The finder's pair test, written out: float difference, promoted to
/// double, wrapped to the nearest periodic image, squares summed x, y, z.
bool within(const std::array<float, 3>& a, const std::array<float, 3>& b,
            double radius, double box) {
  auto wrap = [box](double d) {
    return d > 0.5 * box ? d - box : d < -0.5 * box ? d + box : d;
  };
  const double dx = wrap(a[0] - b[0]);
  const double dy = wrap(a[1] - b[1]);
  const double dz = wrap(a[2] - b[2]);
  return dx * dx + dy * dy + dz * dz <= radius * radius;
}

std::array<float, 3> position(const tree::ParticleArray& p, std::size_t i) {
  return {p.x[i], p.y[i], p.z[i]};
}

using Partition = std::set<std::vector<std::uint64_t>>;

/// Connected components of `members` under `within`, testing all O(N²)
/// pairs, as sets of particle ids.
Partition brute_force_groups(const tree::ParticleArray& p,
                             const std::vector<std::uint32_t>& members,
                             double radius, double box) {
  std::vector<std::size_t> parent(members.size());
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  auto find = [&](std::size_t v) {
    while (parent[v] != v) v = parent[v] = parent[parent[v]];
    return v;
  };
  for (std::size_t a = 0; a < members.size(); ++a)
    for (std::size_t b = a + 1; b < members.size(); ++b)
      if (within(position(p, members[a]), position(p, members[b]), radius,
                 box))
        parent[find(a)] = find(b);
  std::map<std::size_t, std::vector<std::uint64_t>> groups;
  for (std::size_t k = 0; k < members.size(); ++k)
    groups[find(k)].push_back(p.id[members[k]]);
  Partition out;
  for (auto& [root, ids] : groups) {
    std::sort(ids.begin(), ids.end());
    out.insert(ids);
  }
  return out;
}

Partition partition_of(const tree::ParticleArray& p,
                       const std::vector<Halo>& halos) {
  Partition out;
  for (const Halo& h : halos) {
    std::vector<std::uint64_t> ids;
    for (auto i : h.members) ids.push_back(p.id[i]);
    std::sort(ids.begin(), ids.end());
    out.insert(ids);
  }
  return out;
}

/// One finder configuration: box, mean spacing and linking length b.
struct LinkCase {
  double box, spacing, b;
  const char* what;
  double radius() const { return b * spacing; }
};

/// Chaining meshes of 80 and 25 cells per axis; 3 cells (r > box/4, and
/// r > box/3, where floor(box/r) = 2 is raised to 3); and box/r = 2048,
/// above the 1625 cells per axis a 32-bit cell key can address.
const LinkCase kLinkCases[] = {
    {32.0, 2.0, 0.2, "n=80"},
    {17.5, 1.25, 0.55, "n=25"},
    {8.0, 5.0, 0.5, "n=3"},
    {8.0, 6.0, 0.5, "n=3, box/r < 3"},
    {2048.0, 5.0, 0.2, "box/r above the key cap"},
};

/// Particles 0 and the largest float below the box on every axis: they
/// link across every periodic face, edge and corner at once.
void add_box_extremes(tree::ParticleArray& p, double box) {
  const float top = std::nextafter(static_cast<float>(box), 0.0f);
  for (int corner = 0; corner < 8; ++corner)
    p.push_back(corner & 1 ? top : 0.0f, corner & 2 ? top : 0.0f,
                corner & 4 ? top : 0.0f, 0, 0, 0, 1.0f, p.size());
}

/// `count` uniform particles, or, when `clustered`, Gaussian blobs of
/// width 1.5 r (one centered on the box corner) over a uniform background.
tree::ParticleArray link_sample(const LinkCase& c, std::uint64_t seed,
                                bool clustered) {
  const double box = c.box;
  const double r = c.radius();
  // About one neighbor within r per particle, at most 1500 particles.
  const double ball = 4.0 / 3.0 * std::numbers::pi * r * r * r;
  const auto count = static_cast<std::size_t>(
      std::clamp(box * box * box / ball, 8.0, 1500.0));
  Philox rng(seed);
  Philox::Stream s(rng);
  tree::ParticleArray p;
  auto wrap = [box](double v) {
    v = std::fmod(v, box);
    if (v < 0) v += box;
    const auto f = static_cast<float>(v);
    return f < static_cast<float>(box) ? f : 0.0f;
  };
  auto add = [&](double x, double y, double z) {
    p.push_back(wrap(x), wrap(y), wrap(z), 0, 0, 0, 1.0f, p.size());
  };
  for (std::size_t i = 0; i < count; ++i)
    add(s.uniform(0, box), s.uniform(0, box), s.uniform(0, box));
  if (clustered) {
    for (int blob = 0; blob < 6; ++blob) {
      const double cx = blob == 0 ? 0.0 : s.uniform(0, box);
      const double cy = blob == 0 ? 0.0 : s.uniform(0, box);
      const double cz = blob == 0 ? 0.0 : s.uniform(0, box);
      for (std::size_t i = 0; i < std::min<std::size_t>(count, 60); ++i)
        add(cx + 1.5 * r * s.gaussian(), cy + 1.5 * r * s.gaussian(),
            cz + 1.5 * r * s.gaussian());
    }
  }
  add_box_extremes(p, box);
  return p;
}

/// A pair straddling the periodic faces of the axes in `wrapped` (a face,
/// an edge or a corner of the box) at the linking radius: `step` 0 puts
/// b at the farthest float that still links, +1 one float closer, -1 one
/// float farther, where the pair no longer links.
std::array<std::array<float, 3>, 2> straddling_pair(
    const LinkCase& c, const std::array<bool, 3>& wrapped, int step) {
  const double box = c.box;
  const double r = c.radius();
  const int k = static_cast<int>(wrapped[0]) + wrapped[1] + wrapped[2];
  const double per_axis = r / std::sqrt(static_cast<double>(k));
  std::array<float, 3> a{}, b{};
  int axis = -1;
  for (int d = 0; d < 3; ++d) {
    const auto u = static_cast<std::size_t>(d);
    if (wrapped[u]) {
      if (axis < 0) axis = d;
      a[u] = static_cast<float>(0.25 * per_axis);
      b[u] = static_cast<float>(box - 0.75 * per_axis);
    } else {
      a[u] = b[u] = static_cast<float>(0.5 * box);
    }
  }
  // b near the top face, a near 0: lowering b's coordinate moves it out.
  float& t = b[static_cast<std::size_t>(axis)];
  const float in = static_cast<float>(box), out = 0.0f;
  for (int i = 0; i < 10000 && !within(a, b, r, box); ++i)
    t = std::nextafter(t, in);
  for (int i = 0; i < 10000; ++i) {
    const float saved = t;
    t = std::nextafter(t, out);
    if (!within(a, b, r, box)) {
      t = saved;
      break;
    }
  }
  if (step > 0) t = std::nextafter(t, in);
  if (step < 0) t = std::nextafter(t, out);
  return {a, b};
}

TEST(HaloFinder, MatchesBruteForceLinking) {
  for (const LinkCase& c : kLinkCases) {
    FofConfig cfg;
    cfg.box = c.box;
    cfg.mean_spacing = c.spacing;
    cfg.linking_length = c.b;
    cfg.min_members = 1;  // every component, singletons included
    std::vector<tree::ParticleArray> samples;
    for (std::uint64_t seed : {1u, 2u, 3u})
      for (bool clustered : {false, true})
        samples.push_back(link_sample(c, seed * 7 + clustered, clustered));
    // Pairs at the linking radius across faces, edges and corners, alone
    // or over a background too sparse to link them another way.
    const std::array<bool, 3> kWrapped[] = {
        {true, false, false}, {false, true, false}, {false, false, true},
        {true, true, false},  {true, false, true},  {false, true, true},
        {true, true, true}};
    const double ball = 4.0 / 3.0 * std::numbers::pi *
                        std::pow(4.0 * c.radius(), 3);
    const auto background = static_cast<std::size_t>(
        std::min(c.box * c.box * c.box / ball, 200.0));
    for (const auto& wrapped : kWrapped)
      for (int step : {1, 0, -1}) {
        const auto pair = straddling_pair(c, wrapped, step);
        ASSERT_EQ(within(pair[0], pair[1], c.radius(), c.box), step >= 0)
            << c.what;
        tree::ParticleArray p;
        Philox rng(static_cast<std::uint64_t>(step + 5));
        Philox::Stream s(rng);
        for (std::size_t i = 0; i < background; ++i)
          p.push_back(static_cast<float>(s.uniform(0, 0.9 * c.box)),
                      static_cast<float>(s.uniform(0, 0.9 * c.box)),
                      static_cast<float>(s.uniform(0, 0.9 * c.box)), 0, 0, 0,
                      1.0f, p.size());
        for (const auto& q : pair)
          p.push_back(q[0], q[1], q[2], 0, 0, 0, 1.0f, p.size());
        samples.push_back(std::move(p));
      }

    for (const tree::ParticleArray& p : samples) {
      std::vector<std::uint32_t> all(p.size());
      std::iota(all.begin(), all.end(), 0u);
      const Partition want = brute_force_groups(p, all, c.radius(), c.box);
      EXPECT_EQ(partition_of(p, find_halos(p, cfg)), want)
          << c.what << ", " << p.size() << " particles";

      // The subhalo path over a subset, given in descending index order.
      Halo subset;
      for (std::uint32_t i = static_cast<std::uint32_t>(p.size()); i-- > 0;)
        if (i % 3 != 0) subset.members.push_back(i);
      const double fraction = 0.7;
      const Partition want_sub = brute_force_groups(
          p, subset.members, c.b * c.spacing * fraction, c.box);
      EXPECT_EQ(partition_of(p, find_subhalos(p, subset, cfg, fraction, 1)),
                want_sub)
          << c.what << ", subset of " << subset.members.size();
    }
  }
}

TEST(HaloFinder, MemoryScalesWithParticlesNotCells) {
  // Box 32 at linking radius 0.4 is an 80³ chaining mesh: one container
  // per mesh cell would request ~12 MB here, ~6 kB per particle. The
  // finder may ask for 128 B per particle plus the halos it returns.
  const double box = 32.0;
  const tree::ParticleArray p = two_blobs(box, 1000, 12);
  FofConfig cfg;
  cfg.box = box;
  cfg.mean_spacing = 2.0;  // linking radius 0.4
  cfg.min_members = 10;
  alloc_hook::count.store(0);
  alloc_hook::bytes.store(0);
  alloc_hook::armed.store(true);
  const std::vector<Halo> halos = find_halos(p, cfg);
  alloc_hook::armed.store(false);
  ASSERT_EQ(halos.size(), 2u);
  std::size_t returned = halos.capacity() * sizeof(Halo);
  for (const Halo& h : halos)
    returned += h.members.capacity() * sizeof(std::uint32_t);
  EXPECT_LE(alloc_hook::bytes.load(), 128 * p.size() + returned)
      << alloc_hook::count.load() << " allocations";
}

TEST(HaloFinder, MassFunctionIsCumulative) {
  std::vector<Halo> halos(3);
  halos[0].mass = 100;
  halos[1].mass = 50;
  halos[2].mass = 10;
  const auto counts = mass_function(halos, {5.0, 20.0, 60.0, 200.0});
  EXPECT_EQ(counts, (std::vector<std::size_t>{3, 2, 1, 0}));
}

TEST(HaloFinder, RequiresBoxAndSpacing) {
  tree::ParticleArray p = two_blobs(32.0, 20, 3);
  FofConfig cfg;  // box/mean_spacing unset
  EXPECT_THROW(find_halos(p, cfg), Error);
}

}  // namespace
}  // namespace hacc::cosmology
