// Tests for the core framework: particle overloading (role switching,
// migration, replica correctness against a brute-force oracle) and the
// Simulation driver's basic mechanics.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <algorithm>
#include <limits>
#include <map>
#include <set>

#include <fstream>

#include "comm/comm.h"
#include "comm/telemetry.h"
#include "obs/counters.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "core/domain.h"
#include "core/simulation.h"
#include "core/supervisor.h"
#include "fft/pencil.h"
#include "gio/gio.h"
#include "mesh/block_fft.h"
#include "mesh/cic.h"
#include "util/rng.h"

namespace hacc::core {
namespace {

using tree::ParticleArray;
using tree::Role;

ParticleArray scatter_global(const OverloadDomain& dom, std::size_t n_global,
                             std::size_t box, std::uint64_t seed) {
  // Every rank takes the particles of a shared global sample that fall in
  // its domain.
  ParticleArray p;
  Philox rng(seed);
  for (std::size_t i = 0; i < n_global; ++i) {
    Philox::Stream s(rng, i);
    const auto x = static_cast<float>(s.uniform(0, static_cast<double>(box)));
    const auto y = static_cast<float>(s.uniform(0, static_cast<double>(box)));
    const auto z = static_cast<float>(s.uniform(0, static_cast<double>(box)));
    if (dom.owns(x, y, z))
      p.push_back(x, y, z, static_cast<float>(i), 0, 0, 1.0f, i,
                  Role::kActive);
  }
  return p;
}

class OverloadRanks : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, OverloadRanks, ::testing::Values(1, 2, 4, 8));

TEST_P(OverloadRanks, RefreshConservesActives) {
  const int nranks = GetParam();
  const std::size_t n = 16, n_global = 500;
  mesh::BlockDecomp3D d = mesh::BlockDecomp3D::balanced({n, n, n}, nranks);
  comm::Machine::run(nranks, [&](comm::Comm& c) {
    OverloadDomain dom(d, c.rank(), 2.0);
    ParticleArray p = scatter_global(dom, n_global, n, 77);
    const auto stats = dom.refresh(c, p);
    const auto total = c.allreduce_value(
        static_cast<long long>(stats.active), comm::ReduceOp::kSum);
    EXPECT_EQ(total, static_cast<long long>(n_global));
    // Active ids globally unique: each id appears exactly once as active.
    std::set<std::uint64_t> ids;
    for (std::size_t i = 0; i < p.size(); ++i)
      if (p.role[i] == Role::kActive) ids.insert(p.id[i]);
    EXPECT_EQ(ids.size(), stats.active);
  });
}

TEST_P(OverloadRanks, ReplicaSetMatchesBruteForceOracle) {
  const int nranks = GetParam();
  const std::size_t n = 16, n_global = 400;
  const double ovl = 2.5;
  mesh::BlockDecomp3D d = mesh::BlockDecomp3D::balanced({n, n, n}, nranks);
  // Global sample (same as scatter_global's).
  std::vector<std::array<float, 3>> all(n_global);
  {
    Philox rng(99);
    for (std::size_t i = 0; i < n_global; ++i) {
      Philox::Stream s(rng, i);
      all[i] = {static_cast<float>(s.uniform(0, 16.0)),
                static_cast<float>(s.uniform(0, 16.0)),
                static_cast<float>(s.uniform(0, 16.0))};
    }
  }
  comm::Machine::run(nranks, [&](comm::Comm& c) {
    OverloadDomain dom(d, c.rank(), ovl);
    ParticleArray p = scatter_global(dom, n_global, n, 99);
    dom.refresh(c, p);
    // Oracle: particle id i (any periodic image) must appear as a passive
    // replica iff some image is within the overload slab and outside the
    // domain. Collect local passive (id -> unwrapped positions).
    std::multimap<std::uint64_t, std::array<float, 3>> passive;
    for (std::size_t i = 0; i < p.size(); ++i)
      if (p.role[i] == Role::kPassive)
        passive.insert({p.id[i], {p.x[i], p.y[i], p.z[i]}});
    const auto& box = dom.box();
    const double lo[3] = {static_cast<double>(box.x.lo) - ovl,
                          static_cast<double>(box.y.lo) - ovl,
                          static_cast<double>(box.z.lo) - ovl};
    const double hi[3] = {static_cast<double>(box.x.hi) + ovl,
                          static_cast<double>(box.y.hi) + ovl,
                          static_cast<double>(box.z.hi) + ovl};
    std::size_t expected = 0;
    for (std::size_t i = 0; i < n_global; ++i) {
      for (int ix = -1; ix <= 1; ++ix)
        for (int iy = -1; iy <= 1; ++iy)
          for (int iz = -1; iz <= 1; ++iz) {
            const double q[3] = {all[i][0] + 16.0 * ix, all[i][1] + 16.0 * iy,
                                 all[i][2] + 16.0 * iz};
            const bool in_slab = q[0] >= lo[0] && q[0] < hi[0] &&
                                 q[1] >= lo[1] && q[1] < hi[1] &&
                                 q[2] >= lo[2] && q[2] < hi[2];
            const bool in_domain =
                ix == 0 && iy == 0 && iz == 0 &&
                dom.owns(all[i][0], all[i][1], all[i][2]);
            if (in_slab && !in_domain) {
              ++expected;
              // A matching replica (same unwrapped position) must exist.
              bool found = false;
              auto [first, last] = passive.equal_range(i);
              for (auto it = first; it != last; ++it) {
                if (std::abs(it->second[0] - q[0]) < 1e-3 &&
                    std::abs(it->second[1] - q[1]) < 1e-3 &&
                    std::abs(it->second[2] - q[2]) < 1e-3)
                  found = true;
              }
              EXPECT_TRUE(found)
                  << "rank " << c.rank() << " missing replica of id " << i;
            }
          }
    }
    EXPECT_EQ(passive.size(), expected) << "rank " << c.rank();
  });
}

TEST_P(OverloadRanks, RoleSwitchingOnBoundaryCrossing) {
  const int nranks = GetParam();
  const std::size_t n = 16;
  mesh::BlockDecomp3D d = mesh::BlockDecomp3D::balanced({n, n, n}, nranks);
  comm::Machine::run(nranks, [&](comm::Comm& c) {
    OverloadDomain dom(d, c.rank(), 2.0);
    // One particle per rank near its domain's x-low edge.
    ParticleArray p;
    const auto& box = dom.box();
    p.push_back(static_cast<float>(box.x.lo) + 0.25f,
                static_cast<float>(box.y.lo) + 1.5f,
                static_cast<float>(box.z.lo) + 1.5f, 0, 0, 0, 1.0f,
                static_cast<std::uint64_t>(c.rank()), Role::kActive);
    dom.refresh(c, p);
    // Move every particle 0.5 cells in -x: it crosses into the neighbor
    // domain (or wraps) and must be re-assigned.
    for (std::size_t i = 0; i < p.size(); ++i) p.x[i] -= 0.5f;
    const auto stats = dom.refresh(c, p);
    const auto total_active = c.allreduce_value(
        static_cast<long long>(stats.active), comm::ReduceOp::kSum);
    EXPECT_EQ(total_active, static_cast<long long>(nranks));
    // Every active particle is inside its domain after refresh.
    for (std::size_t i = 0; i < p.size(); ++i) {
      if (p.role[i] == Role::kActive) {
        EXPECT_TRUE(dom.owns(p.x[i], p.y[i], p.z[i]));
      }
    }
    if (nranks > 1) {
      const auto migrated = c.allreduce_value(
          static_cast<long long>(stats.migrated), comm::ReduceOp::kSum);
      const int px = d.topology().dims()[0];
      if (px > 1) {
        EXPECT_GT(migrated, 0);
      }
    }
  });
}

TEST_P(OverloadRanks, MigrateAndReplicateAreOneSparseExchangeEach) {
  // migrate() and replicate() are each ONE neighbor_alltoallv over the
  // stencil — no dense alltoall, no point-to-point round — and refresh()
  // is exactly the two. The comm telemetry counters are the witness.
  const int nranks = GetParam();
  const std::size_t n = 16, n_global = 300;
  mesh::BlockDecomp3D d = mesh::BlockDecomp3D::balanced({n, n, n}, nranks);
  comm::Machine::run(nranks, [&](comm::Comm& c) {
    OverloadDomain dom(d, c.rank(), 2.0);
    ParticleArray p = scatter_global(dom, n_global, n, 55);
    obs::Counters counters;
    obs::Binding binding(nullptr, &counters);
    const auto& nbr =
        comm::telemetry::ids(comm::telemetry::Op::kNeighborAlltoall);
    // Every payload message goes to a non-self stencil member, once per
    // exchange.
    const std::size_t msgs = dom.stencil().size() - 1;
    dom.migrate(c, p);
    EXPECT_EQ(counters.value(nbr.calls), 1u);
    EXPECT_EQ(counters.value(nbr.msgs_sent), msgs);
    dom.replicate(c, p);
    EXPECT_EQ(counters.value(nbr.calls), 2u);
    EXPECT_EQ(counters.value(nbr.msgs_sent), 2 * msgs);
    // refresh() is exactly migrate() + replicate().
    dom.refresh(c, p);
    EXPECT_EQ(counters.value(nbr.calls), 4u);
    EXPECT_EQ(counters.value(nbr.msgs_sent), 4 * msgs);
    EXPECT_EQ(
        counters.value(comm::telemetry::ids(comm::telemetry::Op::kAlltoall)
                           .calls),
        0u);
    EXPECT_EQ(
        counters.value(comm::telemetry::ids(comm::telemetry::Op::kP2p)
                           .msgs_sent),
        0u);
  });
}

TEST_P(OverloadRanks, EveryRankReachRoutesParticlesFromAnywhere) {
  // The elastic restore's route: particles scattered over the whole box and
  // dealt to ranks round-robin reach their owners through one migrate over
  // every rank, every field bit-identical, no id lost or duplicated. The
  // slab decomposition keeps each stencil to three ranks, so at 8 ranks
  // most particles start outside their owner's stencil.
  const int nranks = GetParam();
  const std::size_t n_global = 600;
  mesh::BlockDecomp3D d({32, 16, 16}, comm::Cart3D({nranks, 1, 1}));
  const Philox rng(31);
  auto sample = [&](std::uint64_t id) {
    Philox::Stream s(rng, id);
    std::array<float, 10> f{};
    f[0] = static_cast<float>(s.uniform(0, 32.0));
    f[1] = static_cast<float>(s.uniform(0, 16.0));
    f[2] = static_cast<float>(s.uniform(0, 16.0));
    for (std::size_t k = 3; k < f.size(); ++k)
      f[k] = static_cast<float>(s.uniform(-5.0, 5.0));
    return f;
  };
  auto bits = [](const std::array<float, 10>& f) {
    std::array<std::uint32_t, 10> b{};
    for (std::size_t k = 0; k < f.size(); ++k)
      b[k] = std::bit_cast<std::uint32_t>(f[k]);
    return b;
  };
  comm::Machine::run(nranks, [&](comm::Comm& c) {
    OverloadDomain dom(d, c.rank(), 1.0);
    ParticleArray p;
    long long outside = 0;
    for (std::uint64_t id = static_cast<std::uint64_t>(c.rank()); id < n_global;
         id += static_cast<std::uint64_t>(nranks)) {
      const auto f = sample(id);
      p.push_back(f[0], f[1], f[2], f[3], f[4], f[5], f[6], id, Role::kActive,
                  f[7], f[8], f[9]);
      const int owner = d.owner_of(static_cast<std::size_t>(f[0]),
                                   static_cast<std::size_t>(f[1]),
                                   static_cast<std::size_t>(f[2]));
      const auto& st = dom.stencil();
      if (std::find(st.begin(), st.end(), owner) == st.end()) ++outside;
    }
    outside = c.allreduce_value(outside, comm::ReduceOp::kSum);
    if (nranks == 8) {
      EXPECT_GT(outside, static_cast<long long>(n_global) / 2);
    }

    dom.migrate(c, p, Reach::kWorld);
    for (std::size_t i = 0; i < p.size(); ++i) {
      EXPECT_EQ(p.role[i], Role::kActive);
      EXPECT_TRUE(dom.owns(p.x[i], p.y[i], p.z[i])) << "id " << p.id[i];
      const std::array<float, 10> got{p.x[i],  p.y[i],  p.z[i],    p.vx[i],
                                      p.vy[i], p.vz[i], p.mass[i], p.ax[i],
                                      p.ay[i], p.az[i]};
      EXPECT_EQ(bits(got), bits(sample(p.id[i]))) << "id " << p.id[i];
    }
    const auto ids = c.gatherv(
        std::span<const std::uint64_t>(p.id.data(), p.id.size()), 0);
    if (c.rank() == 0) {
      const std::set<std::uint64_t> unique(ids.begin(), ids.end());
      EXPECT_EQ(ids.size(), n_global);
      EXPECT_EQ(unique.size(), n_global);
      EXPECT_EQ(*unique.rbegin(), n_global - 1);
    }
  });
}

TEST_P(OverloadRanks, StencilIsSymmetricAndContainsSelf) {
  const int nranks = GetParam();
  mesh::BlockDecomp3D d = mesh::BlockDecomp3D::balanced({16, 16, 16}, nranks);
  std::vector<std::vector<int>> stencils(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    OverloadDomain dom(d, r, 2.0);
    stencils[static_cast<std::size_t>(r)] = dom.stencil();
  }
  for (int r = 0; r < nranks; ++r) {
    const auto& s = stencils[static_cast<std::size_t>(r)];
    EXPECT_TRUE(std::find(s.begin(), s.end(), r) != s.end())
        << "rank " << r << " missing from its own stencil";
    EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
    for (const int q : s) {
      const auto& sq = stencils[static_cast<std::size_t>(q)];
      EXPECT_TRUE(std::find(sq.begin(), sq.end(), r) != sq.end())
          << "stencil asymmetric between " << r << " and " << q;
    }
  }
}

TEST(OverloadDomain, RejectsExcessiveDepth) {
  mesh::BlockDecomp3D d = mesh::BlockDecomp3D::balanced({8, 8, 8}, 8);
  EXPECT_THROW(OverloadDomain(d, 0, 5.0), Error);
  EXPECT_NO_THROW(OverloadDomain(d, 0, 4.0));
}

TEST(OverloadDomain, MigrateRefusesNonFiniteCoordinates) {
  // A particle with a NaN or infinite coordinate has no owner cell: migrate
  // refuses it by name before any cell lookup, alone on one rank and with a
  // peer waiting in the exchange on two.
  const float bad[] = {std::numeric_limits<float>::quiet_NaN(),
                       std::numeric_limits<float>::infinity(),
                       -std::numeric_limits<float>::infinity()};
  for (const int nranks : {1, 2}) {
    mesh::BlockDecomp3D d = mesh::BlockDecomp3D::balanced({16, 16, 16}, nranks);
    for (int axis = 0; axis < 3; ++axis) {
      for (const float v : bad) {
        SCOPED_TRACE(std::to_string(nranks) + " rank(s), axis " +
                     std::to_string(axis) + ", value " + std::to_string(v));
        try {
          comm::Machine::run(nranks, [&](comm::Comm& c) {
            OverloadDomain dom(d, c.rank(), 2.0);
            ParticleArray p = scatter_global(dom, 100, 16, 3);
            ASSERT_GT(p.size(), 0u);
            if (c.rank() == 0) (axis == 0 ? p.x : axis == 1 ? p.y : p.z)[0] = v;
            dom.migrate(c, p);
          });
          ADD_FAILURE() << "migrate accepted a non-finite coordinate";
        } catch (const Error& e) {
          EXPECT_NE(std::string(e.what()).find("non-finite coordinates"),
                    std::string::npos)
              << e.what();
        }
      }
    }
  }
}

TEST(OverloadDomain, MemoryOverheadIsModest) {
  // The paper quotes ~10% overload memory overhead for large runs; on our
  // small boxes it is larger, but must scale like the surface/volume ratio.
  const std::size_t n = 32;
  mesh::BlockDecomp3D d({n, n, n}, comm::Cart3D({2, 1, 1}));
  comm::Machine::run(2, [&](comm::Comm& c) {
    OverloadDomain dom(d, c.rank(), 2.0);
    ParticleArray p = scatter_global(dom, 4000, n, 5);
    const auto stats = dom.refresh(c, p);
    // Overload volume / domain volume = ((16+2*2)*(32+4)*(32+4) - 16*32*32)
    // / (16*32*32) ... expect the particle ratio to be near the volume
    // ratio.
    const double vol_ratio =
        (20.0 * 36.0 * 36.0 - 16.0 * 32.0 * 32.0) / (16.0 * 32.0 * 32.0);
    EXPECT_NEAR(stats.overload_fraction(), vol_ratio, 0.25 * vol_ratio);
  });
}

// ---- Simulation mechanics -----------------------------------------------------

TEST(Simulation, InitializeProducesFullLattice) {
  SimulationConfig cfg;
  cfg.grid = 16;
  cfg.particles_per_dim = 16;
  cfg.steps = 2;
  cfg.overload = 2.0;
  cosmology::Cosmology cosmo;
  comm::Machine::run(4, [&](comm::Comm& c) {
    Simulation sim(c, cosmo, cfg);
    sim.initialize();
    const auto counts = sim.domain().census(sim.particles());
    const auto total = c.allreduce_value(static_cast<long long>(counts[0]),
                                         comm::ReduceOp::kSum);
    EXPECT_EQ(total, 16LL * 16 * 16);
    EXPECT_GT(counts[1], 0u);  // replicas exist
    EXPECT_NEAR(sim.current_z(), cfg.z_initial, 1e-9);
  });
}

TEST(Simulation, StepAdvancesScaleFactorUniformly) {
  SimulationConfig cfg;
  cfg.grid = 16;
  cfg.particles_per_dim = 8;
  cfg.z_initial = 9.0;   // a = 0.1
  cfg.z_final = 0.0;     // a = 1.0
  cfg.steps = 3;
  cfg.subcycles = 2;
  cfg.overload = 2.0;
  cfg.solver = ShortRangeSolver::kNone;
  cosmology::Cosmology cosmo;
  comm::Machine::run(1, [&](comm::Comm& c) {
    Simulation sim(c, cosmo, cfg);
    sim.initialize();
    sim.step();
    EXPECT_NEAR(sim.current_a(), 0.4, 1e-9);
    sim.step();
    EXPECT_NEAR(sim.current_a(), 0.7, 1e-9);
    sim.step();
    EXPECT_NEAR(sim.current_a(), 1.0, 1e-9);
    EXPECT_EQ(sim.steps_taken(), 3);
  });
}

TEST(Simulation, MomentumConservedOverSteps) {
  SimulationConfig cfg;
  cfg.grid = 16;
  cfg.particles_per_dim = 16;
  cfg.z_initial = 20.0;
  cfg.z_final = 5.0;
  cfg.steps = 3;
  cfg.subcycles = 2;
  cfg.overload = 2.0;
  cosmology::Cosmology cosmo;
  comm::Machine::run(2, [&](comm::Comm& c) {
    Simulation sim(c, cosmo, cfg);
    sim.initialize();
    sim.run();
    const auto mom = sim.total_momentum();
    // Zel'dovich initial momenta sum to ~0; forces are pairwise
    // antisymmetric: total momentum stays ~0 relative to the typical
    // momentum magnitude.
    double typ = 0;
    const auto& p = sim.particles();
    for (std::size_t i = 0; i < p.size(); ++i)
      typ += std::abs(p.vx[i]) + std::abs(p.vy[i]) + std::abs(p.vz[i]);
    typ = c.allreduce_value(typ, comm::ReduceOp::kSum);
    for (int a = 0; a < 3; ++a)
      EXPECT_LT(std::abs(mom[static_cast<std::size_t>(a)]), 2e-3 * typ);
  });
}

TEST(Simulation, GatherActiveCollectsEverything) {
  SimulationConfig cfg;
  cfg.grid = 16;
  cfg.particles_per_dim = 12;
  cfg.overload = 2.0;
  cosmology::Cosmology cosmo;
  comm::Machine::run(4, [&](comm::Comm& c) {
    Simulation sim(c, cosmo, cfg);
    sim.initialize();
    auto all = sim.gather_active();
    if (c.rank() == 0) {
      EXPECT_EQ(all.size(), 12u * 12 * 12);
      std::set<std::uint64_t> ids(all.id.begin(), all.id.end());
      EXPECT_EQ(ids.size(), all.size());
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST(Simulation, ThreadedDepositReproducesSerialRun) {
  // The OpenMP-threaded CIC deposit (paper Sec. VI) changes only the float
  // summation order of the density grid, so a short run must track the
  // serial-deposit run to round-off.
  SimulationConfig base;
  base.grid = 16;
  base.particles_per_dim = 16;
  base.box_mpch = 32.0;
  base.z_initial = 30.0;
  base.z_final = 10.0;
  base.steps = 2;
  base.subcycles = 2;
  base.overload = 3.0;
  base.solver = ShortRangeSolver::kTreePP;
  cosmology::Cosmology cosmo;

  auto run = [&](bool threaded) {
    SimulationConfig cfg = base;
    cfg.threaded_deposit = threaded;
    std::vector<std::array<float, 3>> by_id(16 * 16 * 16);
    comm::Machine::run(1, [&](comm::Comm& c) {
      Simulation sim(c, cosmo, cfg);
      sim.initialize();
      sim.run();
      const auto& p = sim.particles();
      for (std::size_t i = 0; i < p.size(); ++i) {
        if (p.role[i] == Role::kActive)
          by_id[p.id[i]] = {p.x[i], p.y[i], p.z[i]};
      }
    });
    return by_id;
  };
  const auto serial = run(false);
  const auto threaded = run(true);
  double max_err = 0;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    for (std::size_t d = 0; d < 3; ++d) {
      double diff =
          std::abs(static_cast<double>(serial[i][d] - threaded[i][d]));
      diff = std::min(diff, 16.0 - diff);  // periodic
      max_err = std::max(max_err, diff);
    }
  }
  EXPECT_LT(max_err, 2e-3);
}

TEST(Simulation, CheckpointRestartReproducesRun) {
  // run(4 steps) == run(2) -> checkpoint -> restore -> run(2).
  SimulationConfig cfg;
  cfg.grid = 16;
  cfg.particles_per_dim = 16;
  cfg.box_mpch = 32.0;
  cfg.z_initial = 30.0;
  cfg.z_final = 10.0;
  cfg.steps = 4;
  cfg.subcycles = 2;
  cfg.overload = 3.0;
  cosmology::Cosmology cosmo;
  const std::string path =
      (std::filesystem::temp_directory_path() / "hacc_ckpt").string();

  // Bit patterns of x, y, z, vx, vy, vz per particle id: at the launch
  // width a restart must reproduce the run exactly, not approximately.
  using Bits = std::array<std::uint32_t, 6>;
  const auto collect = [](Simulation& sim, comm::Comm& c,
                          std::map<std::uint64_t, Bits>& out) {
    const auto bits = [](float f) {
      std::uint32_t u;
      std::memcpy(&u, &f, sizeof(u));
      return u;
    };
    auto all = sim.gather_active();
    if (c.rank() != 0) return;
    for (std::size_t i = 0; i < all.size(); ++i)
      out[all.id[i]] = {bits(all.x[i]),  bits(all.y[i]),  bits(all.z[i]),
                        bits(all.vx[i]), bits(all.vy[i]), bits(all.vz[i])};
  };
  std::map<std::uint64_t, Bits> straight, resumed;
  comm::Machine::run(2, [&](comm::Comm& c) {
    Simulation sim(c, cosmo, cfg);
    sim.initialize();
    sim.run();
    collect(sim, c, straight);
  });
  comm::Machine::run(2, [&](comm::Comm& c) {
    {
      Simulation sim(c, cosmo, cfg);
      sim.initialize();
      sim.step();
      sim.step();
      sim.write_checkpoint(path);
    }
    Simulation sim2(c, cosmo, cfg);
    sim2.read_checkpoint(path);
    EXPECT_EQ(sim2.steps_taken(), 2);
    sim2.step();
    sim2.step();
    collect(sim2, c, resumed);
  });
  std::filesystem::remove(path);
  ASSERT_EQ(straight.size(), 16u * 16 * 16);
  ASSERT_EQ(straight.size(), resumed.size());
  for (const auto& [id, bits] : straight)
    ASSERT_EQ(resumed.at(id), bits) << "id " << id;
}

TEST(Simulation, OneLongRangeSolvePerWarmStep) {
  // A warm step runs exactly one PM solve: the closing half-kick of one
  // step and the opening half-kick of the next share it. Fresh or restored
  // state pays one extra solve, the boundary rebuild, in its first step (or
  // its first density product, whichever comes first), because the
  // acceleration is not part of the state initialize() and read_checkpoint()
  // build.
  SimulationConfig cfg;
  cfg.grid = 16;
  cfg.particles_per_dim = 12;
  cfg.box_mpch = 32.0;
  cfg.z_initial = 30.0;
  cfg.z_final = 10.0;
  cfg.steps = 5;
  cfg.subcycles = 2;
  cfg.overload = 3.0;
  cosmology::Cosmology cosmo;
  const std::string path =
      (std::filesystem::temp_directory_path() / "hacc_ckpt_one_solve")
          .string();
  comm::Machine::run(2, [&](comm::Comm& c) {
    {
      Simulation sim(c, cosmo, cfg);
      sim.initialize();
      const std::size_t n = 2;
      for (std::size_t s = 0; s < n; ++s) sim.step();
      EXPECT_EQ(sim.timers().count("poisson"), n + 1);
      // A warm step's particle traffic: one migrate, one replicate.
      const NameId calls =
          comm::telemetry::ids(comm::telemetry::Op::kNeighborAlltoall).calls;
      const std::uint64_t before = sim.counters().value(calls);
      sim.step();
      EXPECT_EQ(sim.counters().value(calls) - before, 2u);
      EXPECT_EQ(sim.timers().count("poisson"), n + 2);
      sim.write_checkpoint(path);
    }
    Simulation sim(c, cosmo, cfg);
    sim.read_checkpoint(path);
    EXPECT_EQ(sim.timers().count("poisson"), 0u);  // restore pays no solve
    const std::size_t m = 2;
    for (std::size_t s = 0; s < m; ++s) sim.step();
    EXPECT_EQ(sim.steps_taken(), cfg.steps);
    EXPECT_EQ(sim.timers().count("poisson"), m + 1);
  });
  std::filesystem::remove(path);
}

TEST(Simulation, ReadCheckpointRejectsMismatchedConfig) {
  SimulationConfig cfg;
  cfg.grid = 16;
  cfg.particles_per_dim = 8;
  cfg.overload = 3.0;
  cosmology::Cosmology cosmo;
  const std::string path =
      (std::filesystem::temp_directory_path() / "hacc_ckpt_mismatch").string();
  comm::Machine::run(1, [&](comm::Comm& c) {
    {
      Simulation sim(c, cosmo, cfg);
      sim.initialize();
      sim.write_checkpoint(path);
    }
    SimulationConfig other = cfg;
    other.grid = 24;  // different grid: must be refused
    Simulation sim2(c, cosmo, other);
    EXPECT_THROW(sim2.read_checkpoint(path), Error);
    std::filesystem::remove(path);
  });
}

TEST(Simulation, CheckpointIsRankCountElastic) {
  // Satellite of the gio subsystem: a checkpoint written on 4 ranks must
  // restore bit-identically on 1, 2, 3 and 8 ranks, and a subsequent step
  // must reproduce the uninterrupted run's power spectrum.
  SimulationConfig cfg;
  cfg.grid = 16;
  cfg.particles_per_dim = 16;
  cfg.box_mpch = 32.0;
  cfg.z_initial = 30.0;
  cfg.z_final = 10.0;
  cfg.steps = 3;
  cfg.subcycles = 2;
  cfg.overload = 3.0;
  cfg.io_aggregators = 2;  // exercise a non-trivial fan-in
  cosmology::Cosmology cosmo;
  const std::string path =
      (std::filesystem::temp_directory_path() / "hacc_ckpt_elastic").string();

  // Uninterrupted 4-rank reference: state at the checkpoint (bit patterns)
  // and the power spectrum one step later.
  std::map<std::uint64_t, std::array<std::uint32_t, 6>> at_ckpt;
  std::vector<cosmology::PowerBin> ref_spectrum;
  auto bits = [](float f) {
    std::uint32_t u;
    std::memcpy(&u, &f, 4);
    return u;
  };
  comm::Machine::run(4, [&](comm::Comm& c) {
    Simulation sim(c, cosmo, cfg);
    sim.initialize();
    sim.step();
    sim.step();
    sim.write_checkpoint(path);
    auto all = sim.gather_active();
    if (c.rank() == 0) {
      for (std::size_t i = 0; i < all.size(); ++i)
        at_ckpt[all.id[i]] = {bits(all.x[i]),  bits(all.y[i]),
                              bits(all.z[i]),  bits(all.vx[i]),
                              bits(all.vy[i]), bits(all.vz[i])};
    }
    sim.step();
    auto ps = sim.power_spectrum(16);
    if (c.rank() == 0) ref_spectrum = ps;
  });
  ASSERT_EQ(at_ckpt.size(), 16u * 16 * 16);

  for (int ranks : {1, 2, 3, 8}) {
    std::map<std::uint64_t, std::array<std::uint32_t, 6>> restored;
    std::vector<cosmology::PowerBin> spectrum;
    comm::Machine::run(ranks, [&](comm::Comm& c) {
      Simulation sim(c, cosmo, cfg);
      sim.read_checkpoint(path);
      EXPECT_EQ(sim.steps_taken(), 2);
      auto all = sim.gather_active();
      if (c.rank() == 0) {
        for (std::size_t i = 0; i < all.size(); ++i)
          restored[all.id[i]] = {bits(all.x[i]),  bits(all.y[i]),
                                 bits(all.z[i]),  bits(all.vx[i]),
                                 bits(all.vy[i]), bits(all.vz[i])};
      }
      sim.step();
      auto ps = sim.power_spectrum(16);
      if (c.rank() == 0) spectrum = ps;
    });
    // Bit-identical restore of every particle, at any rank count.
    ASSERT_EQ(restored.size(), at_ckpt.size()) << ranks << " ranks";
    for (const auto& [id, f] : at_ckpt)
      ASSERT_EQ(restored.at(id), f) << "id " << id << " @ " << ranks;
    // One further step reproduces the uninterrupted spectrum (different
    // rank counts change only the float summation order).
    ASSERT_EQ(spectrum.size(), ref_spectrum.size());
    for (std::size_t b = 0; b < spectrum.size(); ++b) {
      EXPECT_EQ(spectrum[b].modes, ref_spectrum[b].modes);
      if (ref_spectrum[b].modes == 0) continue;
      EXPECT_NEAR(spectrum[b].power, ref_spectrum[b].power,
                  1e-3 * std::abs(ref_spectrum[b].power) + 1e-12)
          << "bin " << b << " @ " << ranks << " ranks";
    }
  }
  std::filesystem::remove(path);
}

TEST(Simulation, ReadCheckpointRefusesCorruptBlocks) {
  SimulationConfig cfg;
  cfg.grid = 16;
  cfg.particles_per_dim = 8;
  cfg.overload = 3.0;
  cosmology::Cosmology cosmo;
  const std::string path =
      (std::filesystem::temp_directory_path() / "hacc_ckpt_corrupt").string();
  comm::Machine::run(2, [&](comm::Comm& c) {
    Simulation sim(c, cosmo, cfg);
    sim.initialize();
    sim.write_checkpoint(path);
  });
  gio::flip_byte_in_variable(path, 1, "vx", 7);
  comm::Machine::run(2, [&](comm::Comm& c) {
    Simulation sim(c, cosmo, cfg);
    try {
      sim.read_checkpoint(path);
      FAIL() << "corrupt checkpoint must be refused";
    } catch (const Error& e) {
      // The refusal names the damaged block so operators can react.
      EXPECT_NE(std::string(e.what()).find("vx"), std::string::npos);
    }
  });
  std::filesystem::remove(path);
}

TEST(Simulation, TimersCoverTheExpectedPhases) {
  SimulationConfig cfg;
  cfg.grid = 16;
  cfg.particles_per_dim = 12;
  cfg.steps = 1;
  cfg.overload = 2.0;
  cosmology::Cosmology cosmo;
  const NameId sr_kernel = intern_name("sr-kernel");
  for (const auto solver :
       {ShortRangeSolver::kTreePP, ShortRangeSolver::kP3m}) {
    cfg.solver = solver;
    comm::Machine::run(1, [&](comm::Comm& c) {
      SCOPED_TRACE(solver == ShortRangeSolver::kP3m ? "P3M" : "PPTreePM");
      Simulation sim(c, cosmo, cfg);
      sim.tracer().set_enabled(true);
      sim.initialize();
      sim.step();
      sim.record_step_ledger();
      const TimerRegistry t = sim.timers();
      // "tree-build" times the leaf partition: the RCB build, or P3M's cell
      // binning.
      for (const char* phase : {"poisson", "sr-kernel", "tree-build", "stream",
                                "refresh", "cic", "lr-kick"}) {
        EXPECT_GT(t.count(phase), 0u) << phase;
      }
      // The trace holds one sr-kernel span per timed kernel phase, so a
      // trace summed by name reports the kernel's time and calls once.
      const auto events = sim.tracer().snapshot();
      EXPECT_EQ(static_cast<std::size_t>(std::count_if(
                    events.begin(), events.end(),
                    [&](const obs::Tracer::Event& e) {
                      return e.name == sr_kernel;
                    })),
                t.count("sr-kernel"));
      // The cold solve that rebuilds the acceleration of the initialized
      // state, plus the step's one solve at its closing boundary.
      EXPECT_EQ(t.count("poisson"), 2u);
      EXPECT_GT(sim.last_stats().interactions, 0u);

      // The ledger, timers() and /metrics are views of one sink: on one rank
      // (the first record also carries "init") they agree to the nanosecond.
      ASSERT_EQ(sim.ledger().records().size(), 1u);
      const obs::StepRecord& rec = sim.ledger().records().back();
      EXPECT_NEAR(rec.wall.mean, t.total("step"), 1e-9);
      EXPECT_GT(rec.phases.count("poisson.fft"), 0u);
      const obs::MetricsSource src{0, &sim.counters(), nullptr, ""};
      const std::string text =
          obs::export_prometheus(std::span<const obs::MetricsSource>(&src, 1));
      auto exported_ns = [&](const std::string& phase) {
        const std::string key =
            "hacc_phase_ns_total{phase=\"" + phase + "\",rank=\"0\"} ";
        const std::size_t at = text.find(key);
        return at == std::string::npos
                   ? -1.0
                   : std::stod(text.substr(at + key.size()));
      };
      EXPECT_NEAR(exported_ns("step"), t.total("step") * 1e9, 1.0);
      for (const auto& [phase, stat] : rec.phases) {
        EXPECT_NEAR(stat.mean, t.total(phase), 1e-9) << phase;
        EXPECT_NEAR(exported_ns(phase), t.total(phase) * 1e9, 1.0) << phase;
      }
      for (const auto& [name, stat] : rec.counters)
        EXPECT_NE(name.rfind("phase.", 0), 0u) << name;
    });
  }
}

TEST(Simulation, PowerSpectrumReusesTheSolverTransform) {
  // Between steps the P(k) bins the Poisson solver's kept delta(k) of the
  // step's own density: a call under the rank's sinks runs no transform,
  // moves no transpose bytes and times nothing into a poisson.* phase.
  SimulationConfig cfg;
  cfg.grid = 16;
  cfg.particles_per_dim = 12;
  cfg.steps = 1;
  cfg.overload = 2.0;
  cosmology::Cosmology cosmo;
  const NameId transforms = obs::counter_id("fft.transforms");
  const NameId transpose_bytes = obs::counter_id("fft.transpose.bytes");
  comm::Machine::run(2, [&](comm::Comm& c) {
    Simulation sim(c, cosmo, cfg);
    sim.initialize();
    sim.step();
    EXPECT_EQ(&sim.density_contrast(), &sim.density_contrast());

    obs::Binding binding(&sim.tracer(), &sim.counters());
    const std::vector<obs::Counters::Sample> before =
        sim.counters().snapshot();
    const std::uint64_t transforms0 = sim.counters().value(transforms);
    const std::uint64_t bytes0 = sim.counters().value(transpose_bytes);
    const auto bins = sim.power_spectrum(8);
    EXPECT_FALSE(bins.empty());
    EXPECT_EQ(sim.counters().value(transforms) - transforms0, 0u);
    EXPECT_EQ(sim.counters().value(transpose_bytes) - bytes0, 0u);
    for (const obs::Counters::Sample& s : before) {
      if (name_of(s.id).rfind("phase.poisson", 0) != 0) continue;
      EXPECT_EQ(sim.counters().value(s.id), s.value) << name_of(s.id);
    }
    for (const obs::Counters::Sample& s : sim.counters().snapshot()) {
      if (name_of(s.id).rfind("phase.poisson", 0) == 0) {
        EXPECT_GT(s.value, 0u) << name_of(s.id) << " (timed by the step)";
      }
    }
  });
}

TEST(Simulation, PowerSpectrumAfterStepsIsTheStepsDensity) {
  // An in-situ step's P(k) adds no deposit and no transform to its step:
  // k steps run k + 1 deposits and solves (the first step's rebuild
  // included), each solve one forward and three inverse transforms. After
  // them power_spectrum() deposits and transforms nothing, and its rows are
  // bit-equal to a P(k) computed here from a fresh deposit of the actives,
  // in the order they lead particles().
  SimulationConfig cfg;
  cfg.grid = 16;
  cfg.particles_per_dim = 12;
  cfg.box_mpch = 32.0;
  cfg.z_initial = 30.0;
  cfg.z_final = 10.0;
  cfg.steps = 2;
  cfg.subcycles = 2;
  cfg.overload = 3.0;
  cfg.insitu.cadence = 1;
  cfg.insitu.halos = false;
  cfg.insitu.slice = false;
  cfg.insitu.output_dir =
      (std::filesystem::temp_directory_path() / "hacc_pk_insitu").string();
  cosmology::Cosmology cosmo;
  const NameId transforms = obs::counter_id("fft.transforms");
  const NameId transpose_bytes = obs::counter_id("fft.transpose.bytes");
  for (const int ranks : {1, 2, 4}) {
    comm::Machine::run(ranks, [&](comm::Comm& c) {
      SCOPED_TRACE(std::to_string(ranks) + " ranks");
      Simulation sim(c, cosmo, cfg);
      sim.initialize();
      const std::uint64_t ic_transforms = sim.counters().value(transforms);
      sim.run();
      const std::size_t solves = static_cast<std::size_t>(cfg.steps) + 1;
      EXPECT_EQ(sim.timers().count("insitu"), solves - 1);
      EXPECT_EQ(sim.timers().count("poisson"), solves);
      EXPECT_EQ(sim.timers().count("cic"), solves);
      EXPECT_EQ(sim.counters().value(transforms) - ic_transforms, 4 * solves);
      const std::uint64_t transforms0 = sim.counters().value(transforms);
      const std::uint64_t bytes0 = sim.counters().value(transpose_bytes);
      const std::uint64_t cic0 = sim.timers().count("cic");
      std::vector<cosmology::PowerBin> bins;
      {
        obs::Binding binding(&sim.tracer(), &sim.counters());
        bins = sim.power_spectrum(10);
      }
      EXPECT_EQ(sim.counters().value(transforms), transforms0);
      EXPECT_EQ(sim.counters().value(transpose_bytes), bytes0);
      EXPECT_EQ(sim.timers().count("cic"), cic0);

      const ParticleArray& p = sim.particles();
      std::size_t actives = 0;
      while (actives < p.size() && p.role[actives] == Role::kActive)
        ++actives;
      mesh::DistGrid rho(sim.domain().decomp(), c.rank(), 1);
      rho.fill(0.0);
      mesh::cic_deposit(rho, std::span(p.x).first(actives),
                        std::span(p.y).first(actives),
                        std::span(p.z).first(actives), 1.0f);
      rho.fold_ghosts(c);
      mesh::to_density_contrast(rho, c);
      mesh::BlockFft fft(c, sim.domain().decomp());
      std::vector<fft::Complex> spectrum;
      fft.forward(c, rho, spectrum);
      const auto fresh = cosmology::measure_power_spectrum(
          c, fft, spectrum, cfg.box_mpch, 10);
      ASSERT_EQ(bins.size(), fresh.size());
      for (std::size_t b = 0; b < bins.size(); ++b) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(bins[b].k),
                  std::bit_cast<std::uint64_t>(fresh[b].k)) << "bin " << b;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(bins[b].power),
                  std::bit_cast<std::uint64_t>(fresh[b].power))
            << "bin " << b;
        EXPECT_EQ(bins[b].modes, fresh[b].modes) << "bin " << b;
      }
    });
  }
  std::filesystem::remove_all(cfg.insitu.output_dir);
}

TEST(Simulation, PowerSpectrumOnFreshStateIsTheFirstStepsRebuild) {
  // A density product on stale state runs the rebuild the next step()
  // would have run, so that step skips it: two solves either way, the same
  // state bits, and the SDC window re-opened over the rebuilt state.
  SimulationConfig cfg;
  cfg.grid = 16;
  cfg.particles_per_dim = 12;
  cfg.box_mpch = 32.0;
  cfg.z_initial = 30.0;
  cfg.z_final = 10.0;
  cfg.steps = 2;
  cfg.subcycles = 2;
  cfg.overload = 3.0;
  cfg.audit.cadence = 1;
  cosmology::Cosmology cosmo;
  // Flip a bit of one active's vx on rank 0 (every rank takes the
  // collective stale mark).
  const auto corrupt = [](Simulation& sim, comm::Comm& c) {
    ParticleArray& p = sim.mutable_particles();
    if (c.rank() == 0)
      p.vx[0] = std::bit_cast<float>(std::bit_cast<std::uint32_t>(p.vx[0]) ^
                                     (std::uint32_t{1} << 20));
  };
  comm::Machine::run(2, [&](comm::Comm& c) {
    Simulation plain(c, cosmo, cfg);
    plain.initialize();
    plain.step();
    EXPECT_EQ(plain.timers().count("poisson"), 2u);

    Simulation sim(c, cosmo, cfg);
    sim.initialize();
    (void)sim.power_spectrum(8);
    EXPECT_EQ(sim.timers().count("poisson"), 1u);
    sim.step();
    EXPECT_EQ(sim.timers().count("poisson"), 2u);
    const Simulation::HealthReport h = sim.health_check();
    EXPECT_TRUE(h.audited);
    EXPECT_EQ(h.checksum_mismatches, 0u);
    EXPECT_TRUE(h.sdc_clean(cfg.audit)) << h.describe_sdc(cfg.audit);
    const ParticleArray& a = plain.particles();
    const ParticleArray& b = sim.particles();
    ASSERT_EQ(a.size(), b.size());
    const auto same = [](const auto& u, const auto& v) {
      return std::memcmp(u.data(), v.data(), u.size() * sizeof(u[0])) == 0;
    };
    EXPECT_TRUE(same(a.x, b.x) && same(a.y, b.y) && same(a.z, b.z));
    EXPECT_TRUE(same(a.vx, b.vx) && same(a.vy, b.vy) && same(a.vz, b.vz));
    EXPECT_TRUE(same(a.ax, b.ax) && same(a.ay, b.ay) && same(a.az, b.az));
    EXPECT_TRUE(same(a.mass, b.mass) && same(a.id, b.id) &&
                same(a.role, b.role));

    // The window covers the state on both sides of the rebuild: a flip
    // before the P(k) call or after it is caught at the next gate.
    for (const bool before : {true, false}) {
      Simulation hit(c, cosmo, cfg);
      hit.initialize();
      if (before) corrupt(hit, c);
      (void)hit.power_spectrum(8);
      if (!before) corrupt(hit, c);
      hit.step();
      EXPECT_EQ(hit.health_check().checksum_mismatches, 1u)
          << (before ? "flip before" : "flip after") << " the P(k) call";
    }
  });
}

TEST(Simulation, HealthCheckPassesOnHealthyStateAndFlagsDamage) {
  SimulationConfig cfg;
  cfg.grid = 16;
  cfg.particles_per_dim = 12;
  cfg.box_mpch = 32.0;
  cfg.z_initial = 30.0;
  cfg.z_final = 10.0;
  cfg.steps = 2;
  cfg.subcycles = 2;
  cfg.overload = 3.0;
  cosmology::Cosmology cosmo;
  comm::Machine::run(2, [&](comm::Comm& c) {
    Simulation sim(c, cosmo, cfg);
    sim.initialize();
    sim.step();

    Simulation::HealthReport h = sim.health_check();
    EXPECT_TRUE(h.ok());
    EXPECT_TRUE(h.finite);
    EXPECT_EQ(h.active, 12u * 12u * 12u);
    EXPECT_TRUE(h.counts_ok());
    EXPECT_EQ(h.describe(), "");
    // First call records the momentum baseline; an immediate re-check has
    // zero drift, so even a tight budget passes.
    h = sim.health_check();
    EXPECT_EQ(h.momentum_drift, 0.0);
    EXPECT_TRUE(h.ok(1e-12));

    // Damage one rank's state: every rank must see the identical diagnosis
    // (the check is one collective allreduce).
    auto& p = sim.mutable_particles();
    std::size_t hit = p.size();
    if (c.rank() == 1) {
      for (std::size_t i = 0; i < p.size(); ++i)
        if (p.role[i] == tree::Role::kActive) {
          hit = i;
          p.vx[i] = std::numeric_limits<float>::quiet_NaN();
          break;
        }
    }
    h = sim.health_check();
    EXPECT_FALSE(h.finite);
    EXPECT_FALSE(h.ok());
    EXPECT_NE(h.describe().find("non-finite"), std::string::npos);
    if (hit < p.size()) p.vx[hit] = 0.0f;  // heal for the count test

    // Lose an active on rank 0: the global count invariant trips.
    if (c.rank() == 0) {
      for (std::size_t i = 0; i < p.size(); ++i)
        if (p.role[i] == tree::Role::kActive) {
          p.role[i] = tree::Role::kPassive;
          break;
        }
    }
    h = sim.health_check();
    EXPECT_FALSE(h.counts_ok());
    EXPECT_EQ(h.active, 12u * 12u * 12u - 1);
    EXPECT_NE(h.describe().find("count"), std::string::npos);
  });
}

TEST(CheckpointSet, RotationAndLatestPointer) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "hacc_ckpt_set").string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  CheckpointSet set(dir, /*keep=*/2);

  EXPECT_EQ(set.latest(), -1);  // no pointer yet
  EXPECT_TRUE(set.existing().empty());

  const auto touch = [&](int step) {
    std::ofstream(set.path_for_step(step)) << "x";
  };
  touch(2);
  set.publish(2);
  EXPECT_EQ(set.latest(), 2);
  touch(4);
  set.publish(4);
  touch(6);
  set.publish(6);

  // Rotation keeps only the newest `keep` files; the pointer tracks the
  // newest; existing() lists newest first from the directory itself.
  EXPECT_EQ(set.latest(), 6);
  EXPECT_EQ(set.existing(), (std::vector<int>{6, 4}));
  EXPECT_FALSE(std::filesystem::exists(set.path_for_step(2)));
  EXPECT_TRUE(std::filesystem::exists(set.path_for_step(4)));

  // Foreign files in the directory are ignored by the scan.
  std::ofstream(dir + "/ckpt_junk.gio") << "x";
  std::ofstream(dir + "/notes.txt") << "x";
  EXPECT_EQ(set.existing(), (std::vector<int>{6, 4}));
  std::filesystem::remove_all(dir);
}

TEST(CheckpointSet, RecoversFromMissingLatestPointer) {
  // A power-loss-style crash can lose the `latest` pointer entirely (the
  // rename not yet durable in the directory — publish() fsyncs the
  // directory to close exactly that window, but an already-written tree
  // may predate it). Recovery must not depend on the pointer: existing()
  // scans the directory itself, so the checkpoint chain is still found and
  // ordered newest first.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "hacc_ckpt_nolatest").string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  CheckpointSet set(dir, /*keep=*/3);

  const auto touch = [&](int step) {
    std::ofstream(set.path_for_step(step)) << "x";
  };
  touch(2);
  set.publish(2);
  touch(5);
  set.publish(5);
  ASSERT_EQ(set.latest(), 5);

  // The crash: `latest` is gone; the checkpoint files survived.
  ASSERT_TRUE(std::filesystem::remove(set.latest_path()));
  EXPECT_EQ(set.latest(), -1);
  EXPECT_EQ(set.existing(), (std::vector<int>{5, 2}));

  // The next publish re-creates the pointer and keeps rotating.
  touch(7);
  set.publish(7);
  EXPECT_EQ(set.latest(), 7);
  EXPECT_EQ(set.existing(), (std::vector<int>{7, 5, 2}));
  std::filesystem::remove_all(dir);
}

TEST(CheckpointSet, AuditVerdictSidecars) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "hacc_ckpt_verdict").string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  CheckpointSet set(dir, /*keep=*/1);

  const auto touch = [&](int step) {
    std::ofstream(set.path_for_step(step)) << "x";
  };
  touch(2);
  set.publish(2);

  // No sidecar yet: the verdict is the empty string (read as "unaudited").
  EXPECT_EQ(set.verdict(2), "");

  // Record, read back, and overwrite in place — a checkpoint written clean
  // can later be implicated in a detected corruption window.
  set.record_verdict(2, "clean");
  EXPECT_EQ(set.verdict(2), "clean");
  set.record_verdict(2, "poisoned");
  EXPECT_EQ(set.verdict(2), "poisoned");
  EXPECT_TRUE(std::filesystem::exists(set.verdict_path_for_step(2)));

  // Sidecars never pollute the checkpoint scan.
  EXPECT_EQ(set.existing(), (std::vector<int>{2}));

  // Rotation prunes the sidecar together with its checkpoint (keep=1).
  touch(4);
  set.publish(4);
  set.record_verdict(4, "clean");
  EXPECT_FALSE(std::filesystem::exists(set.path_for_step(2)));
  EXPECT_FALSE(std::filesystem::exists(set.verdict_path_for_step(2)));
  EXPECT_EQ(set.verdict(2), "");
  EXPECT_EQ(set.verdict(4), "clean");
  std::filesystem::remove_all(dir);
}

TEST(CheckpointSet, NewestRestorableSkipsPoisonedAndDamaged) {
  // The scan both recovery paths share: from the newest down, a file with
  // no gio header, a poisoned verdict over CRC-clean bytes, and a damaged
  // sub-block are each skipped with their reason; the clean step 2 wins.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "hacc_ckpt_restorable")
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  CheckpointSet set(dir, /*keep=*/4);
  comm::Machine::run(1, [&](comm::Comm& c) {
    const std::array<float, 3> x{1.0f, 2.0f, 3.0f};
    const std::vector<gio::WriteVar> vars{
        {"x", gio::VarType::kFloat32, x.data()}};
    for (const int step : {2, 4, 6})
      gio::write(c, set.path_for_step(step), gio::GlobalMeta{}, x.size(),
                 vars);
  });
  std::ofstream(set.path_for_step(8)) << "not a gio file";
  set.record_verdict(6, "poisoned");
  gio::flip_byte_in_variable(set.path_for_step(4), /*block=*/0, "x");

  std::vector<std::pair<int, std::string>> rejected;
  EXPECT_EQ(set.newest_restorable([&](int step, const std::string& why) {
              rejected.emplace_back(step, why);
            }),
            2);
  const std::vector<std::pair<int, std::string>> want{
      {8, set.path_for_step(8) + ": header unreadable"},
      {6, set.path_for_step(6) + ": audit verdict poisoned"},
      {4, set.path_for_step(4) + ": sub-block CRC mismatch"}};
  EXPECT_EQ(rejected, want);

  // Nothing restorable: -1, every step reported.
  set.record_verdict(2, "poisoned");
  rejected.clear();
  EXPECT_EQ(set.newest_restorable([&](int step, const std::string& why) {
              rejected.emplace_back(step, why);
            }),
            -1);
  EXPECT_EQ(rejected.size(), 4u);
  std::filesystem::remove_all(dir);
}

TEST(Supervisor, CompletesCleanRunWithRotatedCheckpoints) {
  SupervisorConfig scfg;
  scfg.sim.grid = 16;
  scfg.sim.particles_per_dim = 12;
  scfg.sim.box_mpch = 32.0;
  scfg.sim.z_initial = 30.0;
  scfg.sim.z_final = 10.0;
  scfg.sim.steps = 3;
  scfg.sim.subcycles = 2;
  scfg.sim.overload = 3.0;
  scfg.nranks = 2;
  scfg.checkpoint_every = 1;
  scfg.keep = 2;
  scfg.checkpoint_dir =
      (std::filesystem::temp_directory_path() / "hacc_sup_clean").string();
  std::filesystem::remove_all(scfg.checkpoint_dir);
  cosmology::Cosmology cosmo;

  Supervisor sup(cosmo, scfg);
  int finished_step = -1;
  sup.on_finished = [&](Simulation& sim, comm::Comm& c) {
    if (c.rank() == 0) finished_step = sim.steps_taken();
  };
  const SupervisorReport report = sup.run();
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.attempts, 1);
  EXPECT_EQ(report.restores, 0);
  EXPECT_EQ(report.final_step, 3);
  EXPECT_EQ(report.last_error, "");
  EXPECT_EQ(finished_step, 3);
  EXPECT_EQ(sup.checkpoints().latest(), 3);
  EXPECT_EQ(sup.checkpoints().existing(), (std::vector<int>{3, 2}));
  std::filesystem::remove_all(scfg.checkpoint_dir);
}

}  // namespace
}  // namespace hacc::core
