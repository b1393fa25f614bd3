// Tests for the PM mesh layer: block decomposition, ghost exchanges, CIC,
// the remap, the spectral kernels, and the full Poisson solve (validated
// against analytic single modes, the single-rank solve, and an independent
// full-complex solve).
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <mutex>
#include <numbers>

#include "alloc_hook.h"
#include "comm/comm.h"
#include "fft/pencil.h"
#include "mesh/block_fft.h"
#include "mesh/cic.h"
#include "mesh/grid.h"
#include "mesh/kernels.h"
#include "mesh/poisson.h"
#include "mesh/remap.h"
#include "obs/obs.h"
#include "util/rng.h"

namespace hacc::mesh {
namespace {

// ---- decomposition ----------------------------------------------------------

TEST(BlockDecomp, BoxesTileTheGrid) {
  for (int nranks : {1, 2, 3, 6, 8, 12}) {
    BlockDecomp3D d = BlockDecomp3D::balanced({8, 9, 10}, nranks);
    std::vector<int> cover(8 * 9 * 10, 0);
    for (int r = 0; r < nranks; ++r) {
      const auto b = d.box_of(r);
      for (std::size_t x = b.x.lo; x < b.x.hi; ++x)
        for (std::size_t y = b.y.lo; y < b.y.hi; ++y)
          for (std::size_t z = b.z.lo; z < b.z.hi; ++z)
            ++cover[(x * 9 + y) * 10 + z];
    }
    for (int c : cover) EXPECT_EQ(c, 1) << "nranks=" << nranks;
  }
}

TEST(BlockDecomp, OwnerMatchesBox) {
  BlockDecomp3D d = BlockDecomp3D::balanced({8, 8, 8}, 8);
  for (std::size_t x = 0; x < 8; ++x)
    for (std::size_t y = 0; y < 8; ++y)
      for (std::size_t z = 0; z < 8; ++z) {
        const int r = d.owner_of(x, y, z);
        const auto b = d.box_of(r);
        EXPECT_TRUE(b.x.contains(x) && b.y.contains(y) && b.z.contains(z));
      }
}

TEST(BlockDecomp, RejectsOversubscription) {
  EXPECT_THROW(BlockDecomp3D({2, 2, 2}, comm::Cart3D({4, 2, 1})), Error);
}

// ---- DistGrid ghost exchange --------------------------------------------------

TEST(DistGrid, GhostWidthValidated) {
  BlockDecomp3D d = BlockDecomp3D::balanced({8, 8, 8}, 8);  // 4x4x4 blocks
  EXPECT_NO_THROW(DistGrid(d, 0, 4));
  EXPECT_THROW(DistGrid(d, 0, 5), Error);
}

TEST(DistGrid, FoldConservesTotalAcrossRankCounts) {
  const std::size_t n = 8;
  for (int nranks : {1, 2, 4, 8}) {
    BlockDecomp3D d = BlockDecomp3D::balanced({n, n, n}, nranks);
    std::vector<double> totals;
    std::mutex mu;
    comm::Machine::run(nranks, [&](comm::Comm& c) {
      DistGrid g(d, c.rank(), 2);
      // Fill everything, ghosts included, with rank-dependent values.
      Philox::Stream rs(Philox(17, static_cast<std::uint64_t>(c.rank())));
      double local_total = 0;
      for (auto& v : g.data()) {
        v = rs.uniform();
        local_total += v;
      }
      g.fold_ghosts(c);
      // After folding, all ghost cells must be zero...
      double interior = g.interior_sum();
      double full = 0;
      for (const auto& v : g.data()) full += v;
      EXPECT_NEAR(interior, full, 1e-9);
      // ...and the global total is conserved.
      const double sum_before =
          c.allreduce_value(local_total, comm::ReduceOp::kSum);
      const double sum_after =
          c.allreduce_value(interior, comm::ReduceOp::kSum);
      EXPECT_NEAR(sum_before, sum_after, 1e-9);
      std::lock_guard lock(mu);
      totals.push_back(sum_after);
    });
  }
}

TEST(DistGrid, FillGhostsMatchesPeriodicGlobalField) {
  const std::size_t n = 6;
  for (int nranks : {1, 2, 4, 8}) {
    BlockDecomp3D d = BlockDecomp3D::balanced({n, n, n}, nranks);
    auto field = [&](std::size_t x, std::size_t y, std::size_t z) {
      return static_cast<double>((x * n + y) * n + z + 1);
    };
    comm::Machine::run(nranks, [&](comm::Comm& c) {
      DistGrid g(d, c.rank(), 2);
      const auto& b = g.interior();
      for (std::size_t x = b.x.lo; x < b.x.hi; ++x)
        for (std::size_t y = b.y.lo; y < b.y.hi; ++y)
          for (std::size_t z = b.z.lo; z < b.z.hi; ++z)
            g.at(static_cast<std::ptrdiff_t>(x - b.x.lo),
                 static_cast<std::ptrdiff_t>(y - b.y.lo),
                 static_cast<std::ptrdiff_t>(z - b.z.lo)) = field(x, y, z);
      g.fill_ghosts(c);
      // Every local cell (ghosts included) must equal the periodic field.
      const auto gst = static_cast<std::ptrdiff_t>(g.ghost());
      for (std::ptrdiff_t i = -gst;
           i < static_cast<std::ptrdiff_t>(b.x.extent()) + gst; ++i)
        for (std::ptrdiff_t j = -gst;
             j < static_cast<std::ptrdiff_t>(b.y.extent()) + gst; ++j)
          for (std::ptrdiff_t k = -gst;
               k < static_cast<std::ptrdiff_t>(b.z.extent()) + gst; ++k) {
            const auto wrap = [&](std::ptrdiff_t v, std::size_t lo) {
              auto w = (static_cast<std::ptrdiff_t>(lo) + v) %
                       static_cast<std::ptrdiff_t>(n);
              if (w < 0) w += static_cast<std::ptrdiff_t>(n);
              return static_cast<std::size_t>(w);
            };
            EXPECT_DOUBLE_EQ(
                g.at(i, j, k),
                field(wrap(i, b.x.lo), wrap(j, b.y.lo), wrap(k, b.z.lo)))
                << "rank=" << c.rank() << " ijk=" << i << "," << j << ","
                << k;
          }
    });
  }
}

// ---- CIC ---------------------------------------------------------------------

TEST(Cic, ParticleOnGridPointDepositsToOneCell) {
  BlockDecomp3D d = BlockDecomp3D::balanced({8, 8, 8}, 1);
  comm::Machine::run(1, [&](comm::Comm& c) {
    DistGrid g(d, 0, 1);
    const std::vector<float> x{3.0f}, y{4.0f}, z{5.0f};
    cic_deposit(g, x, y, z, 2.5f);
    g.fold_ghosts(c);
    EXPECT_DOUBLE_EQ(g.at(3, 4, 5), 2.5);
    EXPECT_NEAR(g.interior_sum(), 2.5, 1e-12);
  });
}

TEST(Cic, MidCellParticleSplitsEvenly) {
  BlockDecomp3D d = BlockDecomp3D::balanced({8, 8, 8}, 1);
  comm::Machine::run(1, [&](comm::Comm& c) {
    DistGrid g(d, 0, 1);
    const std::vector<float> x{2.5f}, y{3.5f}, z{6.5f};
    cic_deposit(g, x, y, z, 8.0f);
    g.fold_ghosts(c);
    for (std::ptrdiff_t di = 0; di <= 1; ++di)
      for (std::ptrdiff_t dj = 0; dj <= 1; ++dj)
        for (std::ptrdiff_t dk = 0; dk <= 1; ++dk)
          EXPECT_NEAR(g.at(2 + di, 3 + dj, 6 + dk), 1.0, 1e-12);
  });
}

TEST(ThreadedCic, MatchesSerialDeposit) {
  const std::size_t n = 16;
  BlockDecomp3D d({n, n, n}, comm::Cart3D({1, 1, 1}));
  Philox rng(11);
  Philox::Stream s(rng);
  std::vector<float> xs, ys, zs;
  for (int i = 0; i < 5000; ++i) {
    xs.push_back(static_cast<float>(s.uniform(0, n)));
    ys.push_back(static_cast<float>(s.uniform(0, n)));
    zs.push_back(static_cast<float>(s.uniform(0, n)));
  }
  DistGrid serial(d, 0, 2), threaded(d, 0, 2);
  cic_deposit(serial, xs, ys, zs, 1.5f);
  cic_deposit_threaded(threaded, xs, ys, zs, 1.5f);
  for (std::size_t i = 0; i < serial.data().size(); ++i)
    EXPECT_NEAR(threaded.data()[i], serial.data()[i],
                1e-9 * (std::abs(serial.data()[i]) + 1.0));
}

class CicRanks : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, CicRanks, ::testing::Values(1, 2, 4, 8));

TEST_P(CicRanks, MassConservedIncludingSeamCrossers) {
  const int nranks = GetParam();
  const std::size_t n = 8;
  const std::size_t npart = 200;
  BlockDecomp3D d = BlockDecomp3D::balanced({n, n, n}, nranks);
  comm::Machine::run(nranks, [&](comm::Comm& c) {
    DistGrid g(d, c.rank(), 1);
    // Each rank deposits the particles inside its own box (global sample).
    Philox rng(4242);
    std::vector<float> xs, ys, zs;
    const auto& b = g.interior();
    for (std::size_t p = 0; p < npart; ++p) {
      Philox::Stream s(rng, p);
      const float x = static_cast<float>(s.uniform(0, n));
      const float y = static_cast<float>(s.uniform(0, n));
      const float z = static_cast<float>(s.uniform(0, n));
      if (b.x.contains(static_cast<std::size_t>(x)) &&
          b.y.contains(static_cast<std::size_t>(y)) &&
          b.z.contains(static_cast<std::size_t>(z))) {
        xs.push_back(x);
        ys.push_back(y);
        zs.push_back(z);
      }
    }
    const auto nmine = c.allreduce_value(
        static_cast<long long>(xs.size()), comm::ReduceOp::kSum);
    EXPECT_EQ(nmine, static_cast<long long>(npart));
    cic_deposit(g, xs, ys, zs, 1.0f);
    g.fold_ghosts(c);
    const double total =
        c.allreduce_value(g.interior_sum(), comm::ReduceOp::kSum);
    EXPECT_NEAR(total, static_cast<double>(npart), 1e-9);
  });
}

TEST_P(CicRanks, DepositMatchesSingleRankReference) {
  const int nranks = GetParam();
  const std::size_t n = 8;
  const std::size_t npart = 100;
  // Reference: single-rank deposit.
  std::vector<double> reference(n * n * n, 0.0);
  std::vector<float> gx, gy, gz;
  {
    Philox rng(99);
    for (std::size_t p = 0; p < npart; ++p) {
      Philox::Stream s(rng, p);
      gx.push_back(static_cast<float>(s.uniform(0, n)));
      gy.push_back(static_cast<float>(s.uniform(0, n)));
      gz.push_back(static_cast<float>(s.uniform(0, n)));
    }
    BlockDecomp3D d1 = BlockDecomp3D::balanced({n, n, n}, 1);
    comm::Machine::run(1, [&](comm::Comm& c) {
      DistGrid g(d1, 0, 1);
      cic_deposit(g, gx, gy, gz, 1.0f);
      g.fold_ghosts(c);
      for (std::size_t x = 0; x < n; ++x)
        for (std::size_t y = 0; y < n; ++y)
          for (std::size_t z = 0; z < n; ++z)
            reference[(x * n + y) * n + z] =
                g.at(static_cast<std::ptrdiff_t>(x),
                     static_cast<std::ptrdiff_t>(y),
                     static_cast<std::ptrdiff_t>(z));
    });
  }
  BlockDecomp3D d = BlockDecomp3D::balanced({n, n, n}, nranks);
  comm::Machine::run(nranks, [&](comm::Comm& c) {
    DistGrid g(d, c.rank(), 1);
    std::vector<float> xs, ys, zs;
    const auto& b = g.interior();
    for (std::size_t p = 0; p < npart; ++p) {
      if (b.x.contains(static_cast<std::size_t>(gx[p])) &&
          b.y.contains(static_cast<std::size_t>(gy[p])) &&
          b.z.contains(static_cast<std::size_t>(gz[p]))) {
        xs.push_back(gx[p]);
        ys.push_back(gy[p]);
        zs.push_back(gz[p]);
      }
    }
    cic_deposit(g, xs, ys, zs, 1.0f);
    g.fold_ghosts(c);
    for (std::size_t x = b.x.lo; x < b.x.hi; ++x)
      for (std::size_t y = b.y.lo; y < b.y.hi; ++y)
        for (std::size_t z = b.z.lo; z < b.z.hi; ++z)
          EXPECT_NEAR(g.at(static_cast<std::ptrdiff_t>(x - b.x.lo),
                           static_cast<std::ptrdiff_t>(y - b.y.lo),
                           static_cast<std::ptrdiff_t>(z - b.z.lo)),
                      reference[(x * n + y) * n + z], 1e-10);
  });
}

TEST(Cic, InterpolationReproducesLinearField) {
  // CIC interpolation is exact for fields linear in the coordinates.
  const std::size_t n = 8;
  BlockDecomp3D d = BlockDecomp3D::balanced({n, n, n}, 1);
  comm::Machine::run(1, [&](comm::Comm& c) {
    DistGrid g(d, 0, 1);
    auto f = [](double x, double y, double z) {
      return 1.0 + 2.0 * x - 0.5 * y + 0.25 * z;
    };
    for (std::ptrdiff_t i = -1; i < static_cast<std::ptrdiff_t>(n) + 1; ++i)
      for (std::ptrdiff_t j = -1; j < static_cast<std::ptrdiff_t>(n) + 1; ++j)
        for (std::ptrdiff_t k = -1; k < static_cast<std::ptrdiff_t>(n) + 1;
             ++k)
          g.at(i, j, k) = f(static_cast<double>(i), static_cast<double>(j),
                            static_cast<double>(k));
    (void)c;
    Philox rng(5);
    std::vector<float> xs, ys, zs;
    for (std::size_t p = 0; p < 50; ++p) {
      Philox::Stream s(rng, p);
      // Keep clouds off the seam: the linear field is not periodic.
      xs.push_back(static_cast<float>(s.uniform(0.0, n - 1.0)));
      ys.push_back(static_cast<float>(s.uniform(0.0, n - 1.0)));
      zs.push_back(static_cast<float>(s.uniform(0.0, n - 1.0)));
    }
    std::vector<float> out(xs.size());
    cic_interpolate(g, xs, ys, zs, out);
    for (std::size_t p = 0; p < xs.size(); ++p)
      EXPECT_NEAR(out[p], f(xs[p], ys[p], zs[p]), 1e-4);
  });
}

TEST(Cic, DensityContrastHasZeroMean) {
  const std::size_t n = 8;
  BlockDecomp3D d = BlockDecomp3D::balanced({n, n, n}, 4);
  comm::Machine::run(4, [&](comm::Comm& c) {
    DistGrid g(d, c.rank(), 1);
    Philox::Stream s(Philox(3, static_cast<std::uint64_t>(c.rank())));
    const auto& b = g.interior();
    for (std::size_t x = b.x.lo; x < b.x.hi; ++x)
      for (std::size_t y = b.y.lo; y < b.y.hi; ++y)
        for (std::size_t z = b.z.lo; z < b.z.hi; ++z)
          g.at(static_cast<std::ptrdiff_t>(x - b.x.lo),
               static_cast<std::ptrdiff_t>(y - b.y.lo),
               static_cast<std::ptrdiff_t>(z - b.z.lo)) = 0.5 + s.uniform();
    to_density_contrast(g, c);
    const double total =
        c.allreduce_value(g.interior_sum(), comm::ReduceOp::kSum);
    EXPECT_NEAR(total, 0.0, 1e-9);
  });
}

// ---- Redistributor -------------------------------------------------------------

TEST(Redistributor, BlockToPencilRoundTrip) {
  const std::size_t n = 6;
  const int nranks = 4;
  BlockDecomp3D d = BlockDecomp3D::balanced({n, n, n}, nranks);
  comm::Machine::run(nranks, [&](comm::Comm& c) {
    // Destination layout: z-pencils on a 2x2 grid.
    std::vector<fft::Box3D> src, dst;
    for (int r = 0; r < nranks; ++r) {
      src.push_back(d.box_of(r));
      const int q1 = r / 2, q2 = r % 2;
      dst.push_back(fft::Box3D{fft::block_range(n, 2, q1),
                               fft::block_range(n, 2, q2), fft::Range{0, n}});
    }
    Redistributor re(src, dst);
    const auto& mine = src[static_cast<std::size_t>(c.rank())];
    std::vector<double> data;
    for (std::size_t x = mine.x.lo; x < mine.x.hi; ++x)
      for (std::size_t y = mine.y.lo; y < mine.y.hi; ++y)
        for (std::size_t z = mine.z.lo; z < mine.z.hi; ++z)
          data.push_back(static_cast<double>((x * n + y) * n + z));
    auto pencil = re.forward(c, data);
    // Values must land at the right global cells in the pencil layout.
    const auto& pb = dst[static_cast<std::size_t>(c.rank())];
    std::size_t idx = 0;
    for (std::size_t x = pb.x.lo; x < pb.x.hi; ++x)
      for (std::size_t y = pb.y.lo; y < pb.y.hi; ++y)
        for (std::size_t z = pb.z.lo; z < pb.z.hi; ++z)
          EXPECT_DOUBLE_EQ(pencil[idx++],
                           static_cast<double>((x * n + y) * n + z));
    // And the backward remap restores the original block.
    auto back = re.backward(c, pencil);
    ASSERT_EQ(back.size(), data.size());
    for (std::size_t i = 0; i < data.size(); ++i)
      EXPECT_DOUBLE_EQ(back[i], data[i]);
  });
}

// ---- BlockFft ------------------------------------------------------------------

class BlockFftRanks : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, BlockFftRanks, ::testing::Values(1, 2, 4, 8));

TEST_P(BlockFftRanks, HalfSpectrumMatchesFullSpectrum) {
  // Every half-spectrum mode equals the c2c transform of the global field
  // at the same index, and the multiplicities add up to the full spectrum,
  // on an even grid (z = 0 and Nyquist planes count once) and an odd one.
  const int nranks = GetParam();
  for (const std::size_t n : {std::size_t{12}, std::size_t{9}}) {
    std::vector<fft::Complex> full(n * n * n);
    for (std::size_t i = 0; i < full.size(); ++i)
      full[i] = Philox(21).uniform2(i)[0] - 0.5;
    std::vector<double> field(full.size());
    for (std::size_t i = 0; i < full.size(); ++i) field[i] = full[i].real();
    comm::Machine::run(1, [&](comm::Comm& c) {
      fft::PencilFft3D(c, n, n, n, 1, 1).forward(full);
    });
    double scale = 0;
    for (const auto& v : full) scale = std::max(scale, std::abs(v));
    BlockDecomp3D d = BlockDecomp3D::balanced({n, n, n}, nranks);
    comm::Machine::run(nranks, [&](comm::Comm& c) {
      DistGrid grid(d, c.rank(), 1);
      const auto& b = grid.interior();
      for (std::size_t x = b.x.lo; x < b.x.hi; ++x)
        for (std::size_t y = b.y.lo; y < b.y.hi; ++y)
          for (std::size_t z = b.z.lo; z < b.z.hi; ++z)
            grid.at(static_cast<std::ptrdiff_t>(x - b.x.lo),
                    static_cast<std::ptrdiff_t>(y - b.y.lo),
                    static_cast<std::ptrdiff_t>(z - b.z.lo)) =
                field[(x * n + y) * n + z];
      BlockFft fft(c, d);
      std::vector<fft::Complex> spectrum;
      fft.forward(c, grid, spectrum);
      const fft::Box3D& m = fft.modes();
      ASSERT_EQ(spectrum.size(), m.volume());
      EXPECT_LE(m.z.hi, n / 2 + 1);
      long long counted = 0;
      std::size_t idx = 0;
      for (std::size_t mx = m.x.lo; mx < m.x.hi; ++mx)
        for (std::size_t my = m.y.lo; my < m.y.hi; ++my)
          for (std::size_t mz = m.z.lo; mz < m.z.hi; ++mz, ++idx) {
            EXPECT_LE(std::abs(spectrum[idx] - full[(mx * n + my) * n + mz]),
                      1e-12 * scale)
                << "n=" << n << " mode " << mx << "," << my << "," << mz;
            counted += fft.multiplicity(mz);
          }
      EXPECT_EQ(c.allreduce_value(counted, comm::ReduceOp::kSum),
                static_cast<long long>(n * n * n))
          << "n=" << n;
    });
  }
}

TEST_P(BlockFftRanks, InverseRestoresTheGridAndZeroesItsGhosts) {
  const int nranks = GetParam();
  const std::size_t n = 10;
  BlockDecomp3D d = BlockDecomp3D::balanced({n, n, n}, nranks);
  comm::Machine::run(nranks, [&](comm::Comm& c) {
    DistGrid in(d, c.rank(), 1), out(d, c.rank(), 1);
    const auto& b = in.interior();
    auto value = [&](std::size_t x, std::size_t y, std::size_t z) {
      return Philox(5).uniform2((x * n + y) * n + z)[0];
    };
    for (std::size_t x = b.x.lo; x < b.x.hi; ++x)
      for (std::size_t y = b.y.lo; y < b.y.hi; ++y)
        for (std::size_t z = b.z.lo; z < b.z.hi; ++z)
          in.at(static_cast<std::ptrdiff_t>(x - b.x.lo),
                static_cast<std::ptrdiff_t>(y - b.y.lo),
                static_cast<std::ptrdiff_t>(z - b.z.lo)) = value(x, y, z);
    out.fill(7.0);
    BlockFft fft(c, d);
    std::vector<fft::Complex> spectrum;
    for (int round = 0; round < 2; ++round) {  // the workspace is reusable
      fft.forward(c, in, spectrum);
      fft.inverse(c, spectrum, out);
      const auto ex = static_cast<std::ptrdiff_t>(b.x.extent());
      const auto ey = static_cast<std::ptrdiff_t>(b.y.extent());
      const auto ez = static_cast<std::ptrdiff_t>(b.z.extent());
      for (std::ptrdiff_t i = -1; i <= ex; ++i)
        for (std::ptrdiff_t j = -1; j <= ey; ++j)
          for (std::ptrdiff_t k = -1; k <= ez; ++k) {
            const bool ghost = i < 0 || j < 0 || k < 0 || i == ex ||
                               j == ey || k == ez;
            const double expect =
                ghost ? 0.0
                      : value(b.x.lo + static_cast<std::size_t>(i),
                              b.y.lo + static_cast<std::size_t>(j),
                              b.z.lo + static_cast<std::size_t>(k));
            EXPECT_NEAR(out.at(i, j, k), expect, 1e-13);
          }
    }
  });
}

TEST(BlockFft, SteadyStateTransformsDoNotAllocate) {
  // After one warm-up pass, a forward + inverse pair (interior copy, remap
  // pack, exchange and unpack, pencil r2c and c2r) performs no heap
  // allocation: BlockFft owns every buffer on the way. Run single-rank so
  // the exchanges take the self-block memcpy path (multi-rank mailbox
  // envelopes are SimMPI transport, not remap workspace). The 16^3 grid
  // keeps every OpenMP `if` clause false.
  const std::size_t n = 16;
  BlockDecomp3D d = BlockDecomp3D::balanced({n, n, n}, 1);
  comm::Machine::run(1, [&](comm::Comm& c) {
    DistGrid grid(d, c.rank(), 1);
    const auto& b = grid.interior();
    for (std::size_t x = b.x.lo; x < b.x.hi; ++x)
      for (std::size_t y = b.y.lo; y < b.y.hi; ++y)
        for (std::size_t z = b.z.lo; z < b.z.hi; ++z)
          grid.at(static_cast<std::ptrdiff_t>(x),
                  static_cast<std::ptrdiff_t>(y),
                  static_cast<std::ptrdiff_t>(z)) =
              Philox(8).uniform2((x * n + y) * n + z)[0];
    BlockFft fft(c, d);
    std::vector<fft::Complex> spectrum;
    for (int pass = 0; pass < 2; ++pass) {  // warm-up sizes every buffer
      fft.forward(c, grid, spectrum);
      fft.inverse(c, spectrum, grid);
    }
    alloc_hook::count.store(0);
    alloc_hook::armed.store(true);
    fft.forward(c, grid, spectrum);
    fft.inverse(c, spectrum, grid);
    alloc_hook::armed.store(false);
    EXPECT_EQ(alloc_hook::count.load(), 0u);
  });
}

TEST(BlockFft, RemapWorkspaceStaysPutAtEightRanks) {
  // At 2-4 ranks every block is its z-pencil and the remap moves nothing;
  // at 8 ranks (2 x 2 x 2 blocks, 4 x 2 pencils) it exchanges. After a
  // warm-up pair, its buffers keep their storage and capacity.
  const std::size_t n = 32;
  BlockDecomp3D d = BlockDecomp3D::balanced({n, n, n}, 8);
  comm::Machine::run(8, [&](comm::Comm& c) {
    DistGrid grid(d, c.rank(), 1);
    grid.fill(0.5);
    BlockFft fft(c, d);
    std::vector<fft::Complex> spectrum;
    const auto& ws = fft.remap_workspace();
    auto storage = [&] {
      return std::vector<std::pair<const void*, std::size_t>>{
          {ws.send.data(), ws.send.capacity()},
          {ws.recv.data(), ws.recv.capacity()},
          {ws.counts.data(), ws.counts.capacity()},
          {ws.rcounts.data(), ws.rcounts.capacity()}};
    };
    fft.forward(c, grid, spectrum);
    fft.inverse(c, spectrum, grid);
    const auto warm = storage();
    for (int pass = 0; pass < 2; ++pass) {
      fft.forward(c, grid, spectrum);
      fft.inverse(c, spectrum, grid);
    }
    EXPECT_EQ(storage(), warm);
    EXPECT_GT(ws.send.size() + ws.recv.size(), 0u);
  });
}

// ---- spectral kernels ----------------------------------------------------------

TEST(Kernels, SignedModeWrapsNyquist) {
  EXPECT_EQ(signed_mode(0, 8), 0);
  EXPECT_EQ(signed_mode(3, 8), 3);
  EXPECT_EQ(signed_mode(4, 8), -4);  // Nyquist maps negative
  EXPECT_EQ(signed_mode(7, 8), -1);
}

TEST(Kernels, GreensApproachesContinuumAtSmallK) {
  const std::array<double, 3> k{0.05, 0.02, -0.03};
  const double exact = greens_function(k, GreenOrder::kExact);
  EXPECT_NEAR(greens_function(k, GreenOrder::kOrder2) / exact, 1.0, 1e-3);
  EXPECT_NEAR(greens_function(k, GreenOrder::kOrder6) / exact, 1.0, 1e-8);
}

TEST(Kernels, SixthOrderGreensConvergesFasterThanSecond) {
  // Error scaling: order-2 ~ k^2 relative error, order-6 ~ k^6.
  for (double kk : {0.2, 0.4, 0.8}) {
    const std::array<double, 3> k{kk, 0.0, 0.0};
    const double exact = greens_function(k, GreenOrder::kExact);
    const double e2 =
        std::abs(greens_function(k, GreenOrder::kOrder2) / exact - 1.0);
    const double e6 =
        std::abs(greens_function(k, GreenOrder::kOrder6) / exact - 1.0);
    EXPECT_LT(e6, 0.05 * e2) << "k=" << kk;
  }
}

TEST(Kernels, GreensZeroModeIsZero) {
  EXPECT_EQ(greens_function({0, 0, 0}, GreenOrder::kOrder6), 0.0);
  EXPECT_EQ(greens_function({0, 0, 0}, GreenOrder::kExact), 0.0);
}

TEST(Kernels, FilterIsUnityAtZeroAndDecays) {
  EXPECT_DOUBLE_EQ(spectral_filter({0, 0, 0}, 0.8, 3), 1.0);
  const double f1 = spectral_filter({0.5, 0, 0}, 0.8, 3);
  const double f2 = spectral_filter({1.5, 0, 0}, 0.8, 3);
  EXPECT_LT(f2, f1);
  EXPECT_LT(f1, 1.0);
  EXPECT_GT(f2, 0.0);
}

TEST(Kernels, FilterReducesToGaussianWhenNsZero) {
  const std::array<double, 3> k{0.7, -0.2, 0.1};
  const double k2 = k[0] * k[0] + k[1] * k[1] + k[2] * k[2];
  EXPECT_NEAR(spectral_filter(k, 0.8, 0), std::exp(-0.25 * k2 * 0.64), 1e-12);
}

TEST(Kernels, GreenFilterTableMatchesPerModeProductBitForBit) {
  // The Poisson solver's table must reproduce the per-mode kernels exactly
  // (a mixed-radix, odd-sized box with negative and Nyquist modes).
  const std::array<std::size_t, 3> n{12, 10, 9};
  const std::array<std::size_t, 3> lo{3, 0, 0}, hi{9, 10, 5};
  for (const GreenOrder green :
       {GreenOrder::kExact, GreenOrder::kOrder2, GreenOrder::kOrder6}) {
    for (const int ns : {0, 3}) {
      SpectralConfig cfg;
      cfg.green = green;
      cfg.ns = ns;
      const std::vector<double> table = green_filter_table(n, lo, hi, cfg);
      ASSERT_EQ(table.size(), 6u * 10u * 5u);
      std::size_t idx = 0;
      for (std::size_t mx = lo[0]; mx < hi[0]; ++mx)
        for (std::size_t my = lo[1]; my < hi[1]; ++my)
          for (std::size_t mz = lo[2]; mz < hi[2]; ++mz, ++idx) {
            const std::array<double, 3> k{wavenumber(mx, n[0]),
                                          wavenumber(my, n[1]),
                                          wavenumber(mz, n[2])};
            EXPECT_EQ(table[idx], greens_function(k, green) *
                                      spectral_filter(k, cfg.sigma, ns))
                << mx << "," << my << "," << mz;
          }
    }
  }
}

TEST(Kernels, GradientMultipliersMatchSmallK) {
  for (double k : {0.01, 0.05}) {
    EXPECT_NEAR(gradient_multiplier(k, GradientOrder::kOrder2).imag(), k,
                1e-4);
    EXPECT_NEAR(gradient_multiplier(k, GradientOrder::kSuperLanczos4).imag(),
                k, 1e-7);
  }
}

TEST(Kernels, SuperLanczosIsFourthOrder) {
  // err(k) ~ C k^5 => err(2k)/err(k) ~ 32.
  auto err = [](double k) {
    return std::abs(
        gradient_multiplier(k, GradientOrder::kSuperLanczos4).imag() - k);
  };
  const double ratio = err(0.2) / err(0.1);
  EXPECT_NEAR(ratio, 32.0, 4.0);
}

// ---- Poisson solver -------------------------------------------------------------

/// Fill the interior of `g` with delta(x) = cos(2 pi m x / n).
void fill_single_mode(DistGrid& g, std::size_t n, int axis, int mode) {
  const auto& b = g.interior();
  for (std::size_t x = b.x.lo; x < b.x.hi; ++x)
    for (std::size_t y = b.y.lo; y < b.y.hi; ++y)
      for (std::size_t z = b.z.lo; z < b.z.hi; ++z) {
        const std::size_t coord = axis == 0 ? x : axis == 1 ? y : z;
        g.at(static_cast<std::ptrdiff_t>(x - b.x.lo),
             static_cast<std::ptrdiff_t>(y - b.y.lo),
             static_cast<std::ptrdiff_t>(z - b.z.lo)) =
            std::cos(2.0 * std::numbers::pi * static_cast<double>(mode) *
                     static_cast<double>(coord) / static_cast<double>(n));
      }
}

TEST(Poisson, SingleModeMatchesAnalyticForce) {
  // With exact kernels and no filter, delta = cos(kx) gives
  // f_x = -sin(kx)/k, f_y = f_z = 0.
  const std::size_t n = 16;
  const int mode = 2;
  const double k = 2.0 * std::numbers::pi * mode / static_cast<double>(n);
  BlockDecomp3D d = BlockDecomp3D::balanced({n, n, n}, 1);
  comm::Machine::run(1, [&](comm::Comm& c) {
    SpectralConfig cfg;
    cfg.sigma = 0.0;
    cfg.ns = 0;
    cfg.green = GreenOrder::kExact;
    cfg.gradient = GradientOrder::kExact;
    PoissonSolver solver(c, d, cfg);
    DistGrid delta(d, 0, 1);
    fill_single_mode(delta, n, 0, mode);
    std::array<DistGrid, 3> f{DistGrid(d, 0, 1), DistGrid(d, 0, 1),
                              DistGrid(d, 0, 1)};
    DistGrid phi(d, 0, 1);
    solver.solve(c, delta, f, &phi);
    for (std::size_t x = 0; x < n; ++x) {
      const double expect_fx =
          -std::sin(k * static_cast<double>(x)) / k;
      const double expect_phi =
          -std::cos(k * static_cast<double>(x)) / (k * k);
      EXPECT_NEAR(f[0].at(static_cast<std::ptrdiff_t>(x), 3, 5), expect_fx,
                  1e-9)
          << "x=" << x;
      EXPECT_NEAR(f[1].at(static_cast<std::ptrdiff_t>(x), 3, 5), 0.0, 1e-10);
      EXPECT_NEAR(f[2].at(static_cast<std::ptrdiff_t>(x), 3, 5), 0.0, 1e-10);
      EXPECT_NEAR(phi.at(static_cast<std::ptrdiff_t>(x), 3, 5), expect_phi,
                  1e-9);
    }
  });
}

TEST(Poisson, DiscreteKernelsCloseToExactForLowModes) {
  // The default (6th-order Green's + Super-Lanczos) solve of a low-k mode
  // must agree with the continuum answer to high accuracy.
  const std::size_t n = 32;
  const int mode = 1;
  const double k = 2.0 * std::numbers::pi * mode / static_cast<double>(n);
  BlockDecomp3D d = BlockDecomp3D::balanced({n, n, n}, 1);
  comm::Machine::run(1, [&](comm::Comm& c) {
    SpectralConfig cfg;  // defaults, but without the smoothing filter
    cfg.sigma = 0.0;
    cfg.ns = 0;
    PoissonSolver solver(c, d, cfg);
    DistGrid delta(d, 0, 1);
    fill_single_mode(delta, n, 2, mode);
    std::array<DistGrid, 3> f{DistGrid(d, 0, 1), DistGrid(d, 0, 1),
                              DistGrid(d, 0, 1)};
    solver.solve(c, delta, f);
    for (std::size_t z = 0; z < n; ++z) {
      const double expect = -std::sin(k * static_cast<double>(z)) / k;
      EXPECT_NEAR(f[2].at(1, 2, static_cast<std::ptrdiff_t>(z)), expect,
                  5e-4 * (std::abs(expect) + 1.0));
    }
  });
}

class PoissonRanks : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, PoissonRanks, ::testing::Values(1, 2, 4, 8));

TEST_P(PoissonRanks, MultiRankMatchesSingleRank) {
  const int nranks = GetParam();
  const std::size_t n = 8;
  // Random (deterministic) density contrast.
  std::vector<double> delta_global(n * n * n);
  {
    Philox rng(2024);
    double mean = 0;
    for (std::size_t i = 0; i < delta_global.size(); ++i) {
      delta_global[i] = rng.uniform2(i)[0];
      mean += delta_global[i];
    }
    mean /= static_cast<double>(delta_global.size());
    for (auto& v : delta_global) v -= mean;
  }
  // Reference on one rank.
  std::vector<double> ref_fx(n * n * n), ref_fy(n * n * n), ref_fz(n * n * n);
  {
    BlockDecomp3D d1 = BlockDecomp3D::balanced({n, n, n}, 1);
    comm::Machine::run(1, [&](comm::Comm& c) {
      PoissonSolver solver(c, d1);
      DistGrid delta(d1, 0, 1);
      for (std::size_t x = 0; x < n; ++x)
        for (std::size_t y = 0; y < n; ++y)
          for (std::size_t z = 0; z < n; ++z)
            delta.at(static_cast<std::ptrdiff_t>(x),
                     static_cast<std::ptrdiff_t>(y),
                     static_cast<std::ptrdiff_t>(z)) =
                delta_global[(x * n + y) * n + z];
      std::array<DistGrid, 3> f{DistGrid(d1, 0, 1), DistGrid(d1, 0, 1),
                                DistGrid(d1, 0, 1)};
      solver.solve(c, delta, f);
      for (std::size_t x = 0; x < n; ++x)
        for (std::size_t y = 0; y < n; ++y)
          for (std::size_t z = 0; z < n; ++z) {
            const std::size_t i = (x * n + y) * n + z;
            ref_fx[i] = f[0].at(static_cast<std::ptrdiff_t>(x),
                                static_cast<std::ptrdiff_t>(y),
                                static_cast<std::ptrdiff_t>(z));
            ref_fy[i] = f[1].at(static_cast<std::ptrdiff_t>(x),
                                static_cast<std::ptrdiff_t>(y),
                                static_cast<std::ptrdiff_t>(z));
            ref_fz[i] = f[2].at(static_cast<std::ptrdiff_t>(x),
                                static_cast<std::ptrdiff_t>(y),
                                static_cast<std::ptrdiff_t>(z));
          }
    });
  }
  BlockDecomp3D d = BlockDecomp3D::balanced({n, n, n}, nranks);
  comm::Machine::run(nranks, [&](comm::Comm& c) {
    PoissonSolver solver(c, d);
    DistGrid delta(d, c.rank(), 1);
    const auto& b = delta.interior();
    for (std::size_t x = b.x.lo; x < b.x.hi; ++x)
      for (std::size_t y = b.y.lo; y < b.y.hi; ++y)
        for (std::size_t z = b.z.lo; z < b.z.hi; ++z)
          delta.at(static_cast<std::ptrdiff_t>(x - b.x.lo),
                   static_cast<std::ptrdiff_t>(y - b.y.lo),
                   static_cast<std::ptrdiff_t>(z - b.z.lo)) =
              delta_global[(x * n + y) * n + z];
    std::array<DistGrid, 3> f{DistGrid(d, c.rank(), 1),
                              DistGrid(d, c.rank(), 1),
                              DistGrid(d, c.rank(), 1)};
    solver.solve(c, delta, f);
    for (std::size_t x = b.x.lo; x < b.x.hi; ++x)
      for (std::size_t y = b.y.lo; y < b.y.hi; ++y)
        for (std::size_t z = b.z.lo; z < b.z.hi; ++z) {
          const std::size_t i = (x * n + y) * n + z;
          EXPECT_NEAR(f[0].at(static_cast<std::ptrdiff_t>(x - b.x.lo),
                              static_cast<std::ptrdiff_t>(y - b.y.lo),
                              static_cast<std::ptrdiff_t>(z - b.z.lo)),
                      ref_fx[i], 1e-9);
          EXPECT_NEAR(f[1].at(static_cast<std::ptrdiff_t>(x - b.x.lo),
                              static_cast<std::ptrdiff_t>(y - b.y.lo),
                              static_cast<std::ptrdiff_t>(z - b.z.lo)),
                      ref_fy[i], 1e-9);
          EXPECT_NEAR(f[2].at(static_cast<std::ptrdiff_t>(x - b.x.lo),
                              static_cast<std::ptrdiff_t>(y - b.y.lo),
                              static_cast<std::ptrdiff_t>(z - b.z.lo)),
                      ref_fz[i], 1e-9);
        }
  });
}

/// Independent full-complex (c2c) reference for a default-configured
/// PoissonSolver, built from the c2c pencil transform and the kernels.h
/// multipliers on `nranks` ranks: returns the three force components and
/// the potential as global row-major n^3 arrays.
std::array<std::vector<double>, 4> c2c_reference_solve(
    const std::vector<double>& delta_global, std::size_t n, int nranks) {
  const SpectralConfig cfg;
  std::array<std::vector<double>, 4> out;
  for (auto& v : out) v.assign(n * n * n, 0.0);
  comm::Machine::run(nranks, [&](comm::Comm& c) {
    auto fft = fft::PencilFft3D::balanced(c, n, n, n);
    const fft::Box3D rb = fft.real_box();
    std::vector<fft::Complex> spectrum;
    for (std::size_t x = rb.x.lo; x < rb.x.hi; ++x)
      for (std::size_t y = rb.y.lo; y < rb.y.hi; ++y)
        for (std::size_t z = rb.z.lo; z < rb.z.hi; ++z)
          spectrum.emplace_back(delta_global[(x * n + y) * n + z], 0.0);
    fft.forward(spectrum);
    const fft::Box3D sb = fft.spectral_box();
    auto for_each_mode = [&](auto&& fn) {
      std::size_t idx = 0;
      for (std::size_t mx = sb.x.lo; mx < sb.x.hi; ++mx)
        for (std::size_t my = sb.y.lo; my < sb.y.hi; ++my)
          for (std::size_t mz = sb.z.lo; mz < sb.z.hi; ++mz)
            fn(idx++, std::array<double, 3>{wavenumber(mx, n),
                                            wavenumber(my, n),
                                            wavenumber(mz, n)});
    };
    for_each_mode([&](std::size_t i, const std::array<double, 3>& k) {
      spectrum[i] *= greens_function(k, cfg.green) *
                     spectral_filter(k, cfg.sigma, cfg.ns);
    });
    for (std::size_t component = 0; component < 4; ++component) {
      std::vector<fft::Complex> field = spectrum;
      if (component < 3) {  // f = -grad(phi)
        for_each_mode([&](std::size_t i, const std::array<double, 3>& k) {
          field[i] *= -gradient_multiplier(k[component], cfg.gradient);
        });
      }
      fft.inverse(field);
      std::size_t idx = 0;
      for (std::size_t x = rb.x.lo; x < rb.x.hi; ++x)
        for (std::size_t y = rb.y.lo; y < rb.y.hi; ++y)
          for (std::size_t z = rb.z.lo; z < rb.z.hi; ++z)
            out[component][(x * n + y) * n + z] = field[idx++].real();
    }
  });
  return out;
}

TEST_P(PoissonRanks, R2CSolveMatchesC2C) {
  // The solver's r2c half-spectrum pipeline must reproduce the full complex
  // solve to round-off: the two share kernels and differ only in the
  // transform. Acceptance: <= 1e-10 relative.
  const int nranks = GetParam();
  const std::size_t n = 12;
  std::vector<double> delta_global(n * n * n);
  {
    Philox rng(555);
    double mean = 0;
    for (std::size_t i = 0; i < delta_global.size(); ++i) {
      delta_global[i] = rng.uniform2(i)[0];
      mean += delta_global[i];
    }
    mean /= static_cast<double>(delta_global.size());
    for (auto& v : delta_global) v -= mean;
  }
  const auto ref = c2c_reference_solve(delta_global, n, nranks);
  BlockDecomp3D d = BlockDecomp3D::balanced({n, n, n}, nranks);
  comm::Machine::run(nranks, [&](comm::Comm& c) {
    PoissonSolver solver(c, d);
    DistGrid delta(d, c.rank(), 1);
    const auto& b = delta.interior();
    for (std::size_t x = b.x.lo; x < b.x.hi; ++x)
      for (std::size_t y = b.y.lo; y < b.y.hi; ++y)
        for (std::size_t z = b.z.lo; z < b.z.hi; ++z)
          delta.at(static_cast<std::ptrdiff_t>(x - b.x.lo),
                   static_cast<std::ptrdiff_t>(y - b.y.lo),
                   static_cast<std::ptrdiff_t>(z - b.z.lo)) =
              delta_global[(x * n + y) * n + z];
    std::array<DistGrid, 3> f{DistGrid(d, c.rank(), 1),
                              DistGrid(d, c.rank(), 1),
                              DistGrid(d, c.rank(), 1)};
    DistGrid phi(d, c.rank(), 1);
    solver.solve(c, delta, f, &phi);
    const std::array<const DistGrid*, 4> got{&f[0], &f[1], &f[2], &phi};
    for (std::size_t x = b.x.lo; x < b.x.hi; ++x)
      for (std::size_t y = b.y.lo; y < b.y.hi; ++y)
        for (std::size_t z = b.z.lo; z < b.z.hi; ++z)
          for (std::size_t component = 0; component < 4; ++component) {
            const double r = ref[component][(x * n + y) * n + z];
            EXPECT_NEAR(got[component]->at(
                            static_cast<std::ptrdiff_t>(x - b.x.lo),
                            static_cast<std::ptrdiff_t>(y - b.y.lo),
                            static_cast<std::ptrdiff_t>(z - b.z.lo)),
                        r, 1e-10 * (std::abs(r) + 1.0))
                << "component=" << component;
          }
  });
}

TEST(Poisson, ForceSumsToZero) {
  // The zero mode is projected out, so the net grid force must vanish
  // (momentum conservation of the PM sector).
  const std::size_t n = 8;
  BlockDecomp3D d = BlockDecomp3D::balanced({n, n, n}, 2);
  comm::Machine::run(2, [&](comm::Comm& c) {
    PoissonSolver solver(c, d);
    DistGrid delta(d, c.rank(), 1);
    Philox rng(7);
    const auto& b = delta.interior();
    for (std::size_t x = b.x.lo; x < b.x.hi; ++x)
      for (std::size_t y = b.y.lo; y < b.y.hi; ++y)
        for (std::size_t z = b.z.lo; z < b.z.hi; ++z)
          delta.at(static_cast<std::ptrdiff_t>(x - b.x.lo),
                   static_cast<std::ptrdiff_t>(y - b.y.lo),
                   static_cast<std::ptrdiff_t>(z - b.z.lo)) =
              rng.uniform2((x * n + y) * n + z)[0] - 0.5;
    std::array<DistGrid, 3> f{DistGrid(d, c.rank(), 1),
                              DistGrid(d, c.rank(), 1),
                              DistGrid(d, c.rank(), 1)};
    solver.solve(c, delta, f);
    for (auto& grid : f) {
      const double total =
          c.allreduce_value(grid.interior_sum(), comm::ReduceOp::kSum);
      EXPECT_NEAR(total, 0.0, 1e-8);
    }
  });
}

TEST(Poisson, SolveTimesItsPhasesIntoTheBoundSinks) {
  // The solver owns no sink: under a Binding, one solve adds its three
  // phases (ns + calls) to the bound Counters and emits spans of the same
  // names on the bound, enabled Tracer. Unbound, it records nothing.
  const std::size_t n = 8;
  BlockDecomp3D d = BlockDecomp3D::balanced({n, n, n}, 2);
  comm::Machine::run(2, [&](comm::Comm& c) {
    PoissonSolver solver(c, d);
    DistGrid delta(d, c.rank(), 1);
    delta.fill(0.0);
    delta.at(0, 0, 0) = 1.0;
    std::array<DistGrid, 3> f{DistGrid(d, c.rank(), 1),
                              DistGrid(d, c.rank(), 1),
                              DistGrid(d, c.rank(), 1)};
    obs::Tracer tracer;
    tracer.set_enabled(true);
    obs::Counters counters;
    {
      obs::Binding binding(&tracer, &counters);
      solver.solve(c, delta, f);
    }
    solver.solve(c, delta, f);  // unbound: not recorded anywhere

    const auto events = tracer.snapshot();
    // Per solve: one forward pass, then per axis one spectral multiply,
    // one inverse FFT and one remap back to blocks.
    for (const char* phase : {"poisson.remap", "poisson.fft",
                              "poisson.kernel"}) {
      const obs::PhaseIds ids = obs::phase_ids(phase);
      EXPECT_GT(counters.value(ids.ns), 0u) << phase;
      EXPECT_EQ(counters.value(ids.calls), 4u) << phase;
      std::size_t spans = 0;
      for (const auto& e : events)
        if (e.name == ids.name && e.type == obs::Tracer::Type::kComplete)
          ++spans;
      EXPECT_EQ(spans, 4u) << phase;
    }
    for (const auto& e : events) {
      const std::string_view name = name_of(e.name);
      EXPECT_NE(name, "remap");
      EXPECT_NE(name, "fft");
      EXPECT_NE(name, "kernel");
    }
  });
}

}  // namespace
}  // namespace hacc::mesh
