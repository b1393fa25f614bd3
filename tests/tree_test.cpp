// Tests for the short-range sector: SoA particles, the force kernel, the RCB
// tree (invariants + force correctness vs direct summation), the numerical
// force matcher, and the short-range steady-state allocation gate (this
// binary replaces the global allocator to count, see alloc_hook.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <numbers>
#include <numeric>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "alloc_hook.h"
#include "p3m/chaining_mesh.h"
#include "tree/direct.h"
#include "tree/force_kernel.h"
#include "tree/interaction_batch.h"
#include "tree/force_matcher.h"
#include "tree/particles.h"
#include "tree/rcb_tree.h"
#include "util/rng.h"
#include "util/stats.h"

namespace hacc::tree {
namespace {

ParticleArray random_particles(std::size_t n, float box, std::uint64_t seed,
                               bool clustered = false) {
  ParticleArray p;
  p.reserve(n);
  Philox rng(seed);
  Philox::Stream s(rng);
  for (std::size_t i = 0; i < n; ++i) {
    float x, y, z;
    if (clustered && i % 2 == 0) {
      // Half the particles in a tight Gaussian blob (mimics a halo).
      x = 0.5f * box + 0.05f * box * static_cast<float>(s.gaussian());
      y = 0.5f * box + 0.05f * box * static_cast<float>(s.gaussian());
      z = 0.5f * box + 0.05f * box * static_cast<float>(s.gaussian());
      x = std::clamp(x, 0.0f, box - 1e-3f);
      y = std::clamp(y, 0.0f, box - 1e-3f);
      z = std::clamp(z, 0.0f, box - 1e-3f);
    } else {
      x = static_cast<float>(s.uniform(0, box));
      y = static_cast<float>(s.uniform(0, box));
      z = static_cast<float>(s.uniform(0, box));
    }
    p.push_back(x, y, z, static_cast<float>(s.gaussian()),
                static_cast<float>(s.gaussian()),
                static_cast<float>(s.gaussian()), 1.0f, i);
  }
  return p;
}

// ---- ParticleArray -----------------------------------------------------------

TEST(ParticleArray, RetainIfKeepsOrderAndMovesEveryField) {
  ParticleArray p;
  for (int i = 0; i < 5; ++i) {
    const auto f = static_cast<float>(i);
    p.push_back(f, f + 0.1f, f + 0.2f, f + 0.3f, f + 0.4f, f + 0.5f,
                f + 0.6f, static_cast<std::uint64_t>(100 + i),
                i % 2 == 0 ? Role::kActive : Role::kPassive, f + 0.7f,
                f + 0.8f, f + 0.9f);
  }
  // Drop particles 0 and 3: the survivors close up in their old order, and
  // every field moves with its particle.
  p.retain_if([&](std::size_t i) { return i != 0 && i != 3; });
  ASSERT_EQ(p.size(), 3u);
  EXPECT_TRUE(p.consistent());
  const int kept[3] = {1, 2, 4};
  for (std::size_t j = 0; j < 3; ++j) {
    const auto f = static_cast<float>(kept[j]);
    EXPECT_EQ(p.x[j], f);
    EXPECT_EQ(p.y[j], f + 0.1f);
    EXPECT_EQ(p.z[j], f + 0.2f);
    EXPECT_EQ(p.vx[j], f + 0.3f);
    EXPECT_EQ(p.vy[j], f + 0.4f);
    EXPECT_EQ(p.vz[j], f + 0.5f);
    EXPECT_EQ(p.mass[j], f + 0.6f);
    EXPECT_EQ(p.ax[j], f + 0.7f);
    EXPECT_EQ(p.ay[j], f + 0.8f);
    EXPECT_EQ(p.az[j], f + 0.9f);
    EXPECT_EQ(p.id[j], static_cast<std::uint64_t>(100 + kept[j]));
    EXPECT_EQ(p.role[j], kept[j] % 2 == 0 ? Role::kActive : Role::kPassive);
  }
  // The predicate reads the original particle's fields.
  p.retain_if([&](std::size_t i) { return p.role[i] == Role::kActive; });
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p.id[0], 102u);
  EXPECT_EQ(p.id[1], 104u);
}

TEST(ParticleArray, StorageIsAligned) {
  ParticleArray p = random_particles(100, 10.0f, 1);
  EXPECT_TRUE(is_aligned(p.x.data()));
  EXPECT_TRUE(is_aligned(p.mass.data()));
}

// ---- force kernel --------------------------------------------------------------

TEST(ForceKernel, Poly5HornerMatchesDirect) {
  Poly5 poly{{1.0f, -2.0f, 0.5f, 0.25f, -0.125f, 0.0625f}};
  for (float s : {0.0f, 0.5f, 1.0f, 3.0f, 8.9f}) {
    double expect = 0;
    double pw = 1;
    for (int i = 0; i < 6; ++i) {
      expect += static_cast<double>(poly.c[static_cast<std::size_t>(i)]) * pw;
      pw *= s;
    }
    EXPECT_NEAR(poly(s), expect, 1e-4 * (std::abs(expect) + 1));
  }
}

TEST(ForceKernel, CutoffAndSelfFiltering) {
  ShortRangeKernel k;
  k.softening = 0.0f;
  EXPECT_EQ(k.fsr(0.0f), 0.0f);               // self interaction
  EXPECT_EQ(k.fsr(k.rmax2()), 0.0f);          // at cutoff
  EXPECT_EQ(k.fsr(k.rmax2() + 1.0f), 0.0f);   // beyond
  EXPECT_GT(k.fsr(1.0f), 0.0f);               // inside: attractive
}

TEST(ForceKernel, MatchesNewtonWithZeroPoly) {
  ShortRangeKernel k;
  k.softening = 0.01f;
  for (float s : {0.3f, 1.0f, 4.0f, 8.0f}) {
    EXPECT_FLOAT_EQ(k.fsr(s), newtonian_fscalar(s, 0.01f));
  }
}

TEST(ForceKernel, NeighborListMatchesScalarSum) {
  ShortRangeKernel k;
  k.softening = 0.05f;
  k.fgrid = Poly5{{0.1f, -0.01f, 0.001f, 0, 0, 0}};
  ParticleArray p = random_particles(64, 5.0f, 3);
  const float xi = 2.5f, yi = 2.5f, zi = 2.5f;
  const Force3 f =
      evaluate_neighbor_list(k, xi, yi, zi, p.x.data(), p.y.data(),
                             p.z.data(), p.mass.data(), p.size());
  double ex = 0, ey = 0, ez = 0;
  for (std::size_t j = 0; j < p.size(); ++j) {
    const float dx = p.x[j] - xi, dy = p.y[j] - yi, dz = p.z[j] - zi;
    const float s = dx * dx + dy * dy + dz * dz;
    const float fs = k.fsr(s) * p.mass[j];
    ex += fs * dx;
    ey += fs * dy;
    ez += fs * dz;
  }
  EXPECT_NEAR(f.x, ex, 1e-3 * (std::abs(ex) + 1));
  EXPECT_NEAR(f.y, ey, 1e-3 * (std::abs(ey) + 1));
  EXPECT_NEAR(f.z, ez, 1e-3 * (std::abs(ez) + 1));
}

TEST(ForceKernel, TargetInListIsIgnored) {
  // A particle evaluating its own leaf's list must not feel itself.
  ShortRangeKernel k;
  ParticleArray p;
  p.push_back(1, 1, 1, 0, 0, 0, 5.0f, 0);
  const Force3 f = evaluate_neighbor_list(k, 1, 1, 1, p.x.data(), p.y.data(),
                                          p.z.data(), p.mass.data(), 1);
  EXPECT_EQ(f.x, 0.0f);
  EXPECT_EQ(f.y, 0.0f);
  EXPECT_EQ(f.z, 0.0f);
}

// ---- RCB tree invariants --------------------------------------------------------

class RcbLeafSizes : public ::testing::TestWithParam<std::size_t> {};
INSTANTIATE_TEST_SUITE_P(LeafSizes, RcbLeafSizes,
                         ::testing::Values(1, 4, 16, 64, 128));

TEST_P(RcbLeafSizes, LeavesPartitionParticles) {
  ParticleArray p = random_particles(500, 16.0f, 7);
  RcbTree tree(p, RcbConfig{GetParam()});
  // Every particle index covered exactly once by the leaves.
  std::vector<int> covered(p.size(), 0);
  for (auto leaf : tree.leaves()) {
    const Node& n = tree.nodes()[leaf];
    EXPECT_TRUE(n.is_leaf());
    for (std::uint32_t i = n.first; i < n.first + n.count; ++i)
      ++covered[i];
  }
  for (int c : covered) EXPECT_EQ(c, 1);
}

TEST_P(RcbLeafSizes, BoxesContainTheirParticles) {
  ParticleArray p = random_particles(500, 16.0f, 8, /*clustered=*/true);
  RcbTree tree(p, RcbConfig{GetParam()});
  for (const auto& n : tree.nodes()) {
    for (std::uint32_t i = n.first; i < n.first + n.count; ++i) {
      EXPECT_GE(p.x[i], n.lo[0]);
      EXPECT_LE(p.x[i], n.hi[0]);
      EXPECT_GE(p.y[i], n.lo[1]);
      EXPECT_LE(p.y[i], n.hi[1]);
      EXPECT_GE(p.z[i], n.lo[2]);
      EXPECT_LE(p.z[i], n.hi[2]);
    }
  }
}

TEST_P(RcbLeafSizes, PermutationPreservesParticles) {
  ParticleArray p = random_particles(300, 8.0f, 9);
  // Record (id -> position) before the build.
  std::vector<std::array<float, 3>> before(p.size());
  for (std::size_t i = 0; i < p.size(); ++i)
    before[p.id[i]] = {p.x[i], p.y[i], p.z[i]};
  RcbTree tree(p, RcbConfig{GetParam()});
  ASSERT_TRUE(p.consistent());
  std::set<std::uint64_t> ids(p.id.begin(), p.id.end());
  EXPECT_EQ(ids.size(), p.size());
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_EQ(p.x[i], before[p.id[i]][0]);
    EXPECT_EQ(p.y[i], before[p.id[i]][1]);
    EXPECT_EQ(p.z[i], before[p.id[i]][2]);
  }
}

TEST(RcbTree, ChildrenSpatiallyDisjointAlongSplit) {
  ParticleArray p = random_particles(1000, 32.0f, 10);
  RcbTree tree(p, RcbConfig{32});
  for (const auto& n : tree.nodes()) {
    if (n.is_leaf()) continue;
    const Node& l = tree.nodes()[static_cast<std::size_t>(n.left)];
    const Node& r = tree.nodes()[static_cast<std::size_t>(n.right)];
    EXPECT_EQ(l.count + r.count, n.count);
    EXPECT_EQ(l.first, n.first);
    EXPECT_EQ(r.first, n.first + l.count);
    // Along at least one axis the boxes must not interleave: the split
    // axis has l's max <= r's min.
    bool disjoint = false;
    for (int d = 0; d < 3; ++d) {
      const auto sd = static_cast<std::size_t>(d);
      if (l.hi[sd] <= r.lo[sd] || r.hi[sd] <= l.lo[sd]) disjoint = true;
    }
    EXPECT_TRUE(disjoint);
  }
}

TEST(RcbTree, SpatialLocalityAfterBuild) {
  // The point of the RCB build: particles adjacent in memory are close in
  // space. Check that the mean distance between memory-neighbors is much
  // smaller than between random pairs.
  ParticleArray p = random_particles(2000, 64.0f, 11, /*clustered=*/true);
  auto mean_adjacent_distance = [](const ParticleArray& q) {
    double adj = 0;
    for (std::size_t i = 0; i + 1 < q.size(); ++i) {
      const double dx = q.x[i + 1] - q.x[i];
      const double dy = q.y[i + 1] - q.y[i];
      const double dz = q.z[i + 1] - q.z[i];
      adj += std::sqrt(dx * dx + dy * dy + dz * dz);
    }
    return adj / static_cast<double>(q.size() - 1);
  };
  const double before = mean_adjacent_distance(p);
  RcbTree tree(p, RcbConfig{64});
  const double after = mean_adjacent_distance(p);
  EXPECT_LT(after, 0.5 * before);
}

TEST(RcbTree, CoincidentParticlesTerminate) {
  ParticleArray p;
  for (int i = 0; i < 100; ++i)
    p.push_back(1.0f, 2.0f, 3.0f, 0, 0, 0, 1.0f,
                static_cast<std::uint64_t>(i));
  RcbTree tree(p, RcbConfig{8});  // must not loop forever
  EXPECT_GE(tree.leaves().size(), 1u);
}

TEST(RcbTree, EmptyParticlesGiveEmptyTree) {
  ParticleArray p;
  RcbTree tree(p);
  EXPECT_TRUE(tree.nodes().empty());
  EXPECT_TRUE(tree.leaves().empty());
}

TEST(ThreePhasePartition, SplitsByCoordinate) {
  ParticleArray p = random_particles(200, 8.0f, 3);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> swaps;
  const std::uint32_t below =
      three_phase_partition(p, 0, 200, /*dim=*/1, 4.0f, swaps);
  for (std::uint32_t i = 0; i < below; ++i) EXPECT_LT(p.y[i], 4.0f);
  for (std::uint32_t i = below; i < 200; ++i) EXPECT_GE(p.y[i], 4.0f);
  EXPECT_TRUE(p.consistent());
}

TEST(RcbTree, GatherNeighborsFindsExactlyTheBallPlusLeaf) {
  ParticleArray p = random_particles(800, 20.0f, 13);
  RcbTree tree(p, RcbConfig{16});
  const float rcut = 3.0f;
  NeighborList list;
  for (auto leaf_id : tree.leaves()) {
    const Node& leaf = tree.nodes()[leaf_id];
    tree.gather_neighbors(leaf_id, rcut, list);
    // Everything within rcut of the leaf box must be present...
    std::size_t required = 0;
    for (std::size_t j = 0; j < p.size(); ++j) {
      float d2 = 0;
      const std::array<float, 3> q{p.x[j], p.y[j], p.z[j]};
      for (int d = 0; d < 3; ++d) {
        const auto sd = static_cast<std::size_t>(d);
        const float gap =
            std::max({0.0f, leaf.lo[sd] - q[sd], q[sd] - leaf.hi[sd]});
        d2 += gap * gap;
      }
      if (d2 <= rcut * rcut) ++required;
    }
    EXPECT_GE(list.size(), required);
    EXPECT_LE(list.size(), p.size());
  }
}

// ---- tree force vs direct summation ----------------------------------------------

class TreeForceCase
    : public ::testing::TestWithParam<std::tuple<std::size_t, bool>> {};
INSTANTIATE_TEST_SUITE_P(
    LeafAndClustering, TreeForceCase,
    ::testing::Combine(::testing::Values<std::size_t>(1, 8, 32, 128),
                       ::testing::Bool()));

TEST_P(TreeForceCase, MatchesDirectShortRange) {
  const auto [leaf_size, clustered] = GetParam();
  ParticleArray p = random_particles(400, 12.0f, 17, clustered);
  ShortRangeKernel kernel;
  kernel.softening = 0.05f;
  kernel.fgrid = default_fgrid_poly5();
  RcbTree tree(p, RcbConfig{leaf_size});
  std::vector<float> ax(p.size()), ay(p.size()), az(p.size());
  const auto stats = compute_short_range(tree, kernel, ax, ay, az);
  EXPECT_EQ(stats.particles, p.size());
  EXPECT_GT(stats.interactions, 0u);
  std::vector<float> dx(p.size()), dy(p.size()), dz(p.size());
  direct_short_range(p, kernel, dx, dy, dz);
  // The tree gathers every particle within rcut, so agreement is to float
  // round-off (summation order differs).
  double max_err = 0, max_force = 0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    max_err = std::max({max_err, std::abs(static_cast<double>(ax[i] - dx[i])),
                        std::abs(static_cast<double>(ay[i] - dy[i])),
                        std::abs(static_cast<double>(az[i] - dz[i]))});
    max_force = std::max({max_force, std::abs(static_cast<double>(dx[i])),
                          std::abs(static_cast<double>(dy[i])),
                          std::abs(static_cast<double>(dz[i]))});
  }
  EXPECT_LT(max_err, 2e-4 * (max_force + 1.0));
}

TEST(TreeForce, NewtonThirdLawMomentumConservation) {
  ParticleArray p = random_particles(500, 10.0f, 23, /*clustered=*/true);
  ShortRangeKernel kernel;
  kernel.softening = 0.1f;
  kernel.fgrid = default_fgrid_poly5();
  RcbTree tree(p, RcbConfig{32});
  std::vector<float> ax(p.size()), ay(p.size()), az(p.size());
  compute_short_range(tree, kernel, ax, ay, az);
  // Equal masses: sum of accelerations ~ 0 (pairwise antisymmetric kernel).
  double sx = 0, sy = 0, sz = 0, scale = 0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    sx += ax[i];
    sy += ay[i];
    sz += az[i];
    scale += std::abs(ax[i]) + std::abs(ay[i]) + std::abs(az[i]);
  }
  EXPECT_LT(std::abs(sx), 1e-5 * scale + 1e-6);
  EXPECT_LT(std::abs(sy), 1e-5 * scale + 1e-6);
  EXPECT_LT(std::abs(sz), 1e-5 * scale + 1e-6);
}

TEST(TreeForce, MassScaleScalesLinearly) {
  ParticleArray p = random_particles(100, 6.0f, 29);
  ShortRangeKernel kernel;
  RcbTree tree(p, RcbConfig{16});
  std::vector<float> a1(p.size()), a2(p.size()), tmp(p.size()), t2(p.size()),
      t3(p.size());
  compute_short_range(tree, kernel, a1, tmp, t2, 1.0f);
  compute_short_range(tree, kernel, a2, t3, tmp, 2.5f);
  for (std::size_t i = 0; i < p.size(); ++i)
    EXPECT_NEAR(a2[i], 2.5f * a1[i], 1e-4f * (std::abs(a1[i]) + 1e-3f));
}

TEST(TreeForce, FatterLeavesMoreInteractionsFewerWalkVisits) {
  // The walk-minimization tradeoff (paper Sec. III): growing the leaf size
  // shifts work from the walk into the kernel.
  ParticleArray p1 = random_particles(2000, 16.0f, 31);
  ParticleArray p2 = p1;
  ShortRangeKernel kernel;
  RcbTree small_leaves(p1, RcbConfig{8});
  RcbTree fat_leaves(p2, RcbConfig{128});
  std::vector<float> ax(p1.size()), ay(p1.size()), az(p1.size());
  const auto s_small = compute_short_range(small_leaves, kernel, ax, ay, az);
  const auto s_fat = compute_short_range(fat_leaves, kernel, ax, ay, az);
  EXPECT_GT(s_fat.interactions, s_small.interactions);
  EXPECT_LT(s_fat.walk_visits, s_small.walk_visits);
}

/// One of the two leaf partitions over `p` that compute_short_range runs:
/// the RCB tree with `leaf_size` leaves, or the chaining mesh with cells
/// of `rmax`.
std::unique_ptr<LeafPartition> build_partition(bool chaining_mesh,
                                               ParticleArray& p,
                                               std::size_t leaf_size,
                                               float rmax) {
  if (chaining_mesh) return std::make_unique<p3m::ChainingMesh>(p, rmax);
  return std::make_unique<RcbTree>(p, RcbConfig{leaf_size});
}

TEST(TreeForce, VariantsAgreeAndStatsAreIdentical) {
  // Batched and scalar dispatch must feed the kernel the exact same
  // interaction set (identical InteractionStats — padding is invisible)
  // and agree on forces to float-summation-order rounding, on both leaf
  // partitions.
  ShortRangeKernel kernel;
  kernel.fgrid = default_fgrid_poly5();
  for (const bool chaining_mesh : {false, true}) {
    SCOPED_TRACE(chaining_mesh ? "ChainingMesh" : "RcbTree");
    ParticleArray p = random_particles(3000, 12.0f, 21);
    const auto part = build_partition(chaining_mesh, p, 64, kernel.rmax);
    std::vector<float> sx(p.size()), sy(p.size()), sz(p.size());
    std::vector<float> bx(p.size()), by(p.size()), bz(p.size());
    const auto stats_s = compute_short_range(*part, kernel, sx, sy, sz,
                                             0.73f, KernelVariant::kScalar);
    const auto stats_b = compute_short_range(*part, kernel, bx, by, bz,
                                             0.73f, KernelVariant::kBatched);
    EXPECT_EQ(stats_s.leaves, stats_b.leaves);
    EXPECT_EQ(stats_s.particles, stats_b.particles);
    EXPECT_EQ(stats_s.interactions, stats_b.interactions);
    EXPECT_EQ(stats_s.listed, stats_b.listed);
    EXPECT_EQ(stats_s.walk_visits, stats_b.walk_visits);
    // The cull feeds the kernel a strict subset of the gathered pairs.
    EXPECT_LT(stats_b.interactions, stats_b.listed);
    double max_rel = 0;
    for (std::size_t i = 0; i < p.size(); ++i) {
      const double mag =
          std::sqrt(static_cast<double>(sx[i]) * sx[i] +
                    static_cast<double>(sy[i]) * sy[i] +
                    static_cast<double>(sz[i]) * sz[i]);
      const double dx = static_cast<double>(bx[i]) - sx[i];
      const double dy = static_cast<double>(by[i]) - sy[i];
      const double dz = static_cast<double>(bz[i]) - sz[i];
      const double diff = std::sqrt(dx * dx + dy * dy + dz * dz);
      if (mag > 1e-20) max_rel = std::max(max_rel, diff / mag);
    }
    EXPECT_LE(max_rel, 1e-5);
  }
}

TEST(TreeForce, SubLeavesTileEachLeaf) {
  // Every leaf of either partition is cut into sub-leaves that cover its
  // index range contiguously and in order. Each holds at most kSubLeafSize
  // particles unless its RCB split is degenerate, and each box is the
  // tight box of its particles. The clustered set adds a clump of
  // coincident particles, whose sub-leaf cannot be split.
  ShortRangeKernel kernel;
  for (const bool chaining_mesh : {false, true}) {
    SCOPED_TRACE(chaining_mesh ? "ChainingMesh" : "RcbTree");
    ParticleArray p = random_particles(3000, 14.0f, 27, /*clustered=*/true);
    for (std::uint64_t i = 0; i < 40; ++i)
      p.push_back(4.25f, 9.5f, 2.75f, 0, 0, 0, 1.0f, 3000 + i);
    const auto part = build_partition(chaining_mesh, p, 64, kernel.rmax);
    std::size_t unsplittable = 0;
    for (std::size_t li = 0; li < part->leaves().size(); ++li) {
      const Node& leaf = part->nodes()[part->leaves()[li]];
      const auto subs = part->sub_leaves(li);
      ASSERT_FALSE(subs.empty());
      std::uint32_t next = leaf.first;
      for (const Node& sub : subs) {
        EXPECT_TRUE(sub.is_leaf());
        EXPECT_EQ(sub.first, next);
        EXPECT_GT(sub.count, 0u);
        next = sub.first + sub.count;
        if (sub.count > kSubLeafSize) {
          // Only a degenerate split may leave a fat sub-leaf: splitting a
          // copy moves nothing and is refused.
          ParticleArray copy = p;
          Node below, above;
          SwapList swaps;
          EXPECT_FALSE(rcb_split(copy, sub, below, above, swaps));
          ++unsplittable;
        }
        std::array<float, 3> lo{p.x[sub.first], p.y[sub.first],
                                p.z[sub.first]};
        std::array<float, 3> hi = lo;
        for (std::uint32_t i = sub.first; i < sub.first + sub.count; ++i) {
          const std::array<float, 3> q{p.x[i], p.y[i], p.z[i]};
          for (std::size_t d = 0; d < 3; ++d) {
            lo[d] = std::min(lo[d], q[d]);
            hi[d] = std::max(hi[d], q[d]);
          }
        }
        EXPECT_EQ(sub.lo, lo);
        EXPECT_EQ(sub.hi, hi);
      }
      EXPECT_EQ(next, leaf.first + leaf.count);
    }
    EXPECT_GE(unsplittable, 1u) << "the coincident clump is one sub-leaf";
  }
}

TEST(TreeForce, SteadyStateShortRangeIsAllocationFree) {
  // With a persistent workspace, the short-range phase allocates nothing
  // after one warm-up call, at any OpenMP thread count: every per-thread
  // neighbor list and walk stack is reserved to the high-water marks,
  // including those of threads that got no leaf during warm-up. The
  // clustered set gives leaves very different neighbor counts, so dynamic
  // scheduling moves fat lists between threads from call to call. Both
  // leaf partitions run through the same compute_short_range and workspace.
  ShortRangeKernel kernel;
  kernel.fgrid = default_fgrid_poly5();
  for (const bool chaining_mesh : {false, true}) {
    SCOPED_TRACE(chaining_mesh ? "ChainingMesh" : "RcbTree");
    ParticleArray p = random_particles(4000, 14.0f, 22, /*clustered=*/true);
    const auto part = build_partition(chaining_mesh, p, 48, kernel.rmax);
    std::vector<float> ax(p.size()), ay(p.size()), az(p.size());
    ShortRangeWorkspace ws;
    for (const auto variant :
         {KernelVariant::kBatched, KernelVariant::kScalar}) {
      // Warm-up populates the workspace (and the OpenMP team, first time).
      compute_short_range(*part, kernel, ax, ay, az, 1.0f, variant, &ws);
      alloc_hook::count.store(0);
      alloc_hook::armed.store(true);
      compute_short_range(*part, kernel, ax, ay, az, 1.0f, variant, &ws);
      alloc_hook::armed.store(false);
      EXPECT_EQ(alloc_hook::count.load(), 0u)
          << "steady-state allocation in variant "
          << kernel_variant_name(variant);
    }
  }
}

// ---- force matcher -----------------------------------------------------------------

TEST(ForceMatcher, GridForceApproachesNewtonAtHandOver) {
  // Near r = rmax the filtered grid force must approach the continuum
  // 1/r^2, i.e. fscalar(s) ~ s^{-3/2}: that is what makes the hand-over at
  // 3 grid spacings possible.
  ForceMatchConfig cfg;
  cfg.sources = 2;
  cfg.samples = 24;
  cfg.radii = 12;
  auto samples = measure_grid_force(cfg);
  ASSERT_FALSE(samples.empty());
  RunningStats ratio;
  for (const auto& smp : samples) {
    if (smp.s > 7.0) ratio.add(smp.fscalar * std::pow(smp.s, 1.5));
  }
  ASSERT_GT(ratio.count(), 10u);
  EXPECT_NEAR(ratio.mean(), 1.0, 0.08);
}

TEST(ForceMatcher, GridForceVanishesAtOrigin) {
  // Small-r samples: the filtered grid force is finite (no 1/r^2
  // divergence), so fscalar stays bounded.
  ForceMatchConfig cfg;
  cfg.sources = 2;
  cfg.samples = 16;
  cfg.radii = 16;
  auto samples = measure_grid_force(cfg);
  for (const auto& smp : samples) {
    EXPECT_LT(std::abs(smp.fscalar), 1.0) << "s=" << smp.s;
  }
}

TEST(ForceMatcher, FitResidualsAreSmall) {
  ForceMatchConfig cfg;
  cfg.sources = 4;
  cfg.samples = 32;
  cfg.radii = 24;
  auto samples = measure_grid_force(cfg);
  const Poly5 poly = fit_poly5(samples);
  RunningStats resid;
  for (const auto& smp : samples)
    resid.add(poly(static_cast<float>(smp.s)) - smp.fscalar);
  EXPECT_LT(std::abs(resid.mean()), 2e-3);
  EXPECT_LT(resid.stddev(), 2e-2);
}

TEST(ForceMatcher, DefaultPolyMatchesFreshFit) {
  // Guards the shipped coefficients against drift: refit with the default
  // configuration and compare on the fit interval.
  const Poly5 fresh = match_grid_force(ForceMatchConfig{});
  const Poly5 shipped = default_fgrid_poly5();
  for (float s = 0.25f; s < 9.0f; s += 0.25f) {
    EXPECT_NEAR(fresh(s), shipped(s), 5e-3) << "s=" << s;
  }
}

TEST(ForceMatcher, ShortRangeVanishesBeyondHandOverByConstruction) {
  // f_SR(s) = newton - poly must be small near the hand-over scale.
  ShortRangeKernel kernel;
  kernel.softening = 0.0f;
  kernel.fgrid = default_fgrid_poly5();
  const float near_cut = 8.7f;
  EXPECT_LT(std::abs(newtonian_fscalar(near_cut, 0.0f) -
                     kernel.fgrid(near_cut)),
            0.15f * newtonian_fscalar(near_cut, 0.0f));
}

// ---- Tile-batched kernel (interaction_batch.h) -------------------------------

using LeafForces = std::array<std::vector<float>, 3>;

// Run one leaf through evaluate_leaf with the given variant or tile
// instance. The batched path pads the list in place, so each call gets a
// private copy.
template <class Kernel>
LeafForces leaf_forces(const Kernel& variant_or_tile,
                       const ShortRangeKernel& kernel, const ParticleArray& p,
                       const NeighborList& list_in, float mass_scale) {
  NeighborList list;
  list.x = list_in.x;
  list.y = list_in.y;
  list.z = list_in.z;
  list.m = list_in.m;
  LeafForces f;
  for (auto& v : f) v.assign(p.size(), 0.0f);
  evaluate_leaf(variant_or_tile, kernel, p, 0,
                static_cast<std::uint32_t>(p.size()), list, mass_scale, f[0],
                f[1], f[2]);
  return f;
}

// Every tile instance this host runs: the dispatched (widest) one and the
// narrower ones, which would otherwise never run on a wide host.
std::span<const TileKernel> all_tiles() {
  const auto tiles = tile_kernels();
#if defined(__GNUC__) || defined(__clang__)
  EXPECT_FALSE(tiles.empty()) << "GNU builds compile the tile path";
#endif
  return tiles;
}

TEST(InteractionBatch, BatchedMatchesScalarOnRandomLeaves) {
  // Property test over random leaves: every combination of ragged target
  // blocks (nt % 4 != 0) and ragged neighbor tiles (nn not a multiple of
  // 2W), with a non-unit mass scale, at every tile instance. Positions in
  // [0, 6)^3 put pair separations on both sides of the rmax = 3 cutoff.
  // KernelVariant::kBatched must run the widest instance.
  ShortRangeKernel kernel;
  kernel.fgrid = default_fgrid_poly5();
  Philox rng(91);
  Philox::Stream s(rng);
  const auto tiles = all_tiles();
  for (const std::size_t nt : {1u, 3u, 4u, 5u, 17u, 64u}) {
    for (const std::size_t nn : {1u, 7u, 8u, 9u, 33u, 256u}) {
      ParticleArray p;
      NeighborList list;
      for (std::size_t i = 0; i < nt; ++i)
        p.push_back(static_cast<float>(s.uniform(0, 6)),
                    static_cast<float>(s.uniform(0, 6)),
                    static_cast<float>(s.uniform(0, 6)), 0, 0, 0, 1.0f, i);
      for (std::size_t j = 0; j < nn; ++j) {
        list.x.push_back(static_cast<float>(s.uniform(0, 6)));
        list.y.push_back(static_cast<float>(s.uniform(0, 6)));
        list.z.push_back(static_cast<float>(s.uniform(0, 6)));
        list.m.push_back(0.5f + static_cast<float>(s.uniform(0, 1)));
      }
      const auto fs = leaf_forces(KernelVariant::kScalar, kernel, p, list,
                                  0.37f);
      for (const TileKernel& tile : tiles) {
        const auto fb = leaf_forces(tile, kernel, p, list, 0.37f);
        for (std::size_t i = 0; i < nt; ++i) {
          const double mag = std::sqrt(
              static_cast<double>(fs[0][i]) * fs[0][i] +
              static_cast<double>(fs[1][i]) * fs[1][i] +
              static_cast<double>(fs[2][i]) * fs[2][i]);
          for (int d = 0; d < 3; ++d) {
            const double diff = std::abs(static_cast<double>(fb[d][i]) -
                                         static_cast<double>(fs[d][i]));
            EXPECT_LE(diff, 1e-5 * std::max(mag, 1e-20))
                << tile.isa << " nt=" << nt << " nn=" << nn << " i=" << i
                << " d=" << d;
          }
        }
      }
      if (!tiles.empty()) {
        EXPECT_EQ(leaf_forces(KernelVariant::kBatched, kernel, p, list,
                              0.37f),
                  leaf_forces(tiles.back(), kernel, p, list, 0.37f))
            << "nt=" << nt << " nn=" << nn;
      }
    }
  }
}

TEST(InteractionBatch, SelfInteractionAndCutoffEdges) {
  // The two branchless-cutoff edges: s = 0 (a neighbor exactly on the
  // target — the gathered leaf always contains the target itself) must be
  // suppressed, and neighbors at s >= rmax^2 contribute nothing, in the
  // scalar loop and every tile instance identically.
  ShortRangeKernel kernel;
  kernel.fgrid = default_fgrid_poly5();
  ParticleArray p;
  p.push_back(3.0f, 3.0f, 3.0f, 0, 0, 0, 1.0f, 0);
  NeighborList list;
  auto add = [&](float x, float y, float z) {
    list.x.push_back(x);
    list.y.push_back(y);
    list.z.push_back(z);
    list.m.push_back(1.0f);
  };
  add(3.0f, 3.0f, 3.0f);             // s = 0: the target itself
  add(3.0f, 3.0f, 3.0f);             // a true coincident pair, also s = 0
  add(6.0f, 3.0f, 3.0f);             // s = 9 = rmax^2 exactly: outside
  add(3.0f + 2.9999f, 3.0f, 3.0f);   // just inside the cutoff
  add(3.0f + 3.0001f, 3.0f, 3.0f);   // just outside
  const auto fs = leaf_forces(KernelVariant::kScalar, kernel, p, list, 1.0f);
  // Only the "just inside" neighbor may contribute. It acts along x alone
  // (the sign is the poly-fit residual's near the hand-over, not Newton's).
  EXPECT_NE(fs[0][0], 0.0f);
  EXPECT_EQ(fs[1][0], 0.0f);
  EXPECT_EQ(fs[2][0], 0.0f);
  // With ONLY edge neighbors (s = 0 and s >= rmax^2) every path gives an
  // exact zero — the mask must kill the padded/marginal lanes bit-for-bit.
  NeighborList edges;
  edges.x = {3.0f, 6.0f};
  edges.y = {3.0f, 3.0f};
  edges.z = {3.0f, 3.0f};
  edges.m = {1.0f, 1.0f};
  const auto zs = leaf_forces(KernelVariant::kScalar, kernel, p, edges, 1.0f);
  for (int d = 0; d < 3; ++d) EXPECT_EQ(zs[d][0], 0.0f);
  for (const TileKernel& tile : all_tiles()) {
    const auto fb = leaf_forces(tile, kernel, p, list, 1.0f);
    for (int d = 0; d < 3; ++d)
      EXPECT_NEAR(fb[d][0], fs[d][0], 1e-5 * std::abs(fs[0][0]))
          << tile.isa << " d=" << d;
    const auto zb = leaf_forces(tile, kernel, p, edges, 1.0f);
    for (int d = 0; d < 3; ++d) EXPECT_EQ(zb[d][0], 0.0f) << tile.isa;
  }
}

TEST(InteractionBatch, PerPairArithmeticMatchesScalarOracleBitForBit) {
  // A tile instance evaluates each pair exactly as evaluate_neighbor_list
  // does (sqrt then divide, unfused multiply-add in the same association),
  // so only the summation order may differ. With one in-range neighbor
  // beside an s = 0 self entry and an out-of-range entry, there is nothing
  // to reorder: batched must equal scalar bit for bit. Separations are
  // drawn from the whole range and from just inside the cutoff, where
  // poly5 nearly cancels Newton and any rounding difference shows.
  Philox rng(2024);
  Philox::Stream s(rng);
  const auto tiles = all_tiles();
  std::size_t components = 0;
  for (const float softening : {0.1f, 0.0f}) {
    ShortRangeKernel kernel;
    kernel.fgrid = default_fgrid_poly5();
    kernel.softening = softening;
    for (const auto& [r_lo, r_hi] : {std::pair{0.05, 3.0}, std::pair{2.9, 3.0}}) {
      for (int k = 0; k < 2000; ++k) {
        ParticleArray p;
        const float x = static_cast<float>(s.uniform(2, 4));
        const float y = static_cast<float>(s.uniform(2, 4));
        const float z = static_cast<float>(s.uniform(2, 4));
        p.push_back(x, y, z, 0, 0, 0, 1.0f, 0);
        // An isotropic direction at separation r.
        const double r = s.uniform(r_lo, r_hi);
        const double mu = s.uniform(-1, 1), phi = s.uniform(0, 2 * std::numbers::pi);
        const double rho = std::sqrt(1 - mu * mu);
        NeighborList list;
        list.x = {x, x + static_cast<float>(r * rho * std::cos(phi)), x + 3.5f};
        list.y = {y, y + static_cast<float>(r * rho * std::sin(phi)), y};
        list.z = {z, z + static_cast<float>(r * mu), z};
        list.m = {1.0f, 0.5f + static_cast<float>(s.uniform(0, 1)), 1.0f};
        const auto fs = leaf_forces(KernelVariant::kScalar, kernel, p, list,
                                    0.37f);
        for (const TileKernel& tile : tiles) {
          const auto fb = leaf_forces(tile, kernel, p, list, 0.37f);
          for (int d = 0; d < 3; ++d)
            EXPECT_EQ(fb[d][0], fs[d][0])
                << tile.isa << " eps=" << softening << " r=" << r
                << " d=" << d;
        }
        components += 3;
      }
    }
  }
  EXPECT_EQ(components, 24000u);
}

TEST(InteractionBatch, ScalarVariantBitIdenticalToDirectLoop) {
  // KernelVariant::kScalar must stay bit-for-bit the historical kernel:
  // evaluate_leaf dispatching to the scalar loop gives exactly
  // evaluate_neighbor_list per target, including the mass_scale fold
  // ((m * scale) * f associates identically to the old list-rewrite pass).
  ShortRangeKernel kernel;
  kernel.fgrid = default_fgrid_poly5();
  Philox rng(17);
  Philox::Stream s(rng);
  ParticleArray p;
  NeighborList list;
  for (std::size_t i = 0; i < 13; ++i)
    p.push_back(static_cast<float>(s.uniform(0, 6)),
                static_cast<float>(s.uniform(0, 6)),
                static_cast<float>(s.uniform(0, 6)), 0, 0, 0, 1.0f, i);
  for (std::size_t j = 0; j < 67; ++j) {
    list.x.push_back(static_cast<float>(s.uniform(0, 6)));
    list.y.push_back(static_cast<float>(s.uniform(0, 6)));
    list.z.push_back(static_cast<float>(s.uniform(0, 6)));
    list.m.push_back(0.5f + static_cast<float>(s.uniform(0, 1)));
  }
  const float scale = 1.618f;
  const auto f = leaf_forces(KernelVariant::kScalar, kernel, p, list, scale);
  for (std::size_t i = 0; i < p.size(); ++i) {
    const Force3 ref = evaluate_neighbor_list(
        kernel, p.x[i], p.y[i], p.z[i], list.x.data(), list.y.data(),
        list.z.data(), list.m.data(), list.x.size(), scale);
    EXPECT_EQ(f[0][i], ref.x) << i;
    EXPECT_EQ(f[1][i], ref.y) << i;
    EXPECT_EQ(f[2][i], ref.z) << i;
  }
}

TEST(InteractionBatch, BatchedLeavesTrueInteractionsVisible) {
  // The batched path may pad the list in place; callers capture the true
  // size before the call (InteractionStats exactness depends on it). At
  // every tile instance the pad is zero-mass, a multiple of that
  // instance's 2W-neighbor tile, and appended — never reordering the real
  // entries.
  ShortRangeKernel kernel;
  kernel.fgrid = default_fgrid_poly5();
  ParticleArray p;
  p.push_back(1.0f, 1.0f, 1.0f, 0, 0, 0, 1.0f, 0);
  for (const TileKernel& tile : all_tiles()) {
    NeighborList list;
    for (int j = 0; j < 5; ++j) {
      list.x.push_back(1.5f + 0.1f * static_cast<float>(j));
      list.y.push_back(1.0f);
      list.z.push_back(1.0f);
      list.m.push_back(1.0f);
    }
    std::vector<float> ax(1, 0.0f), ay(1, 0.0f), az(1, 0.0f);
    const std::size_t true_n = list.size();
    evaluate_leaf(tile, kernel, p, 0, 1, list, 1.0f, ax, ay, az);
    EXPECT_EQ(true_n, 5u);
    EXPECT_EQ(tile.tile_neighbors(), 2 * tile.lanes) << tile.isa;
    EXPECT_EQ(list.size(), tile.tile_neighbors()) << tile.isa;
    for (std::size_t j = true_n; j < list.size(); ++j)
      EXPECT_EQ(list.m[j], 0.0f) << tile.isa << ": padding must be massless";
    for (std::size_t j = 0; j < true_n; ++j)
      EXPECT_EQ(list.x[j], 1.5f + 0.1f * static_cast<float>(j)) << tile.isa;
  }
}

/// s for a target at t and a neighbor at q, exactly as
/// evaluate_neighbor_list computes it.
float pair_s(const std::array<float, 3>& t, const std::array<float, 3>& q) {
  const float dx = q[0] - t[0];
  const float dy = q[1] - t[1];
  const float dz = q[2] - t[2];
  return dx * dx + dy * dy + dz * dz;
}

TEST(InteractionBatch, CullKeepsEveryPairInsideTheCutoff) {
  // The cull may drop a neighbor only if the kernel would mask it for every
  // target in the box. Neighbors sit at random, and within a few ulps of
  // rmax from the box's faces, edges and corners, where rounding decides.
  // For each neighbor the nearest point of the box is a possible target,
  // and every target's s is at least that point's; so the kept set must be
  // exactly the neighbors whose nearest-point s is below rmax^2 (then no
  // target sees a dropped pair in range), in input order. The corners and
  // random interior targets are checked directly too. Every instance must
  // keep the identical list.
  const float rmax = ShortRangeKernel{}.rmax;
  const float rmax2 = ShortRangeKernel{}.rmax2();
  Philox rng(4242);
  Philox::Stream s(rng);
  const auto tiles = all_tiles();
  // [close_lo, close_hi): within 8 ulps of rmax^2 on either side.
  float close_lo = rmax2, close_hi = rmax2;
  for (int i = 0; i < 8; ++i) {
    close_lo = std::nextafter(close_lo, 0.0f);
    close_hi = std::nextafter(close_hi, 1e30f);
  }
  std::size_t kept_total = 0, dropped_total = 0, close_in = 0, close_out = 0;
  for (int trial = 0; trial < 40; ++trial) {
    Node box;
    for (std::size_t d = 0; d < 3; ++d) {
      box.lo[d] = static_cast<float>(s.uniform(-5, 5));
      // Some boxes are flat along an axis (a sub-leaf of coplanar points).
      const float extent = trial % 5 == 0 && d == 1
                               ? 0.0f
                               : static_cast<float>(s.uniform(0, 2.5));
      box.hi[d] = box.lo[d] + extent;
    }
    const auto nudge = [&](float v) {  // a few ulps either way
      const int k = static_cast<int>(s.index(9)) - 4;
      for (int i = 0; i < std::abs(k); ++i)
        v = std::nextafter(v, k > 0 ? 1e30f : -1e30f);
      return v;
    };
    NeighborList in;
    const std::size_t n = 1 + s.index(400);  // ragged against every width
    for (std::size_t j = 0; j < n; ++j) {
      std::array<float, 3> q;
      const std::size_t kind = s.index(4);  // random, face, edge, corner
      // The point of the box to start from: random on the box, with `kind`
      // axes pushed to a face.
      for (std::size_t d = 0; d < 3; ++d)
        q[d] = static_cast<float>(s.uniform(box.lo[d], box.hi[d]));
      if (kind == 0) {
        for (std::size_t d = 0; d < 3; ++d)
          q[d] = static_cast<float>(
              s.uniform(box.lo[d] - 1.5 * rmax, box.hi[d] + 1.5 * rmax));
      } else {
        // Step out of `kind` faces by rmax / sqrt(kind), nudged by ulps.
        const float step =
            rmax / std::sqrt(static_cast<float>(kind));
        const std::size_t skip = s.index(3);  // the axis left on the box
        std::size_t pushed = 0;
        for (std::size_t d = 0; d < 3 && pushed < kind; ++d) {
          if (kind < 3 && d == skip) continue;
          const bool up = s.index(2) == 1;
          q[d] = nudge(up ? box.hi[d] + step : box.lo[d] - step);
          ++pushed;
        }
      }
      in.x.push_back(q[0]);
      in.y.push_back(q[1]);
      in.z.push_back(q[2]);
      in.m.push_back(static_cast<float>(j) + 0.5f);  // tags the entry
    }
    // The reference: every entry whose nearest box point sees it in range.
    std::vector<std::size_t> expect;
    for (std::size_t j = 0; j < n; ++j) {
      const std::array<float, 3> q{in.x[j], in.y[j], in.z[j]};
      std::array<float, 3> nearest;
      for (std::size_t d = 0; d < 3; ++d)
        nearest[d] = std::clamp(q[d], box.lo[d], box.hi[d]);
      const float s_near = pair_s(nearest, q);
      if (s_near < rmax2) expect.push_back(j);
      close_in += s_near >= close_lo && s_near < rmax2 ? 1 : 0;
      close_out += s_near >= rmax2 && s_near < close_hi ? 1 : 0;
    }
    std::vector<std::array<float, 3>> targets;
    for (int c = 0; c < 8; ++c)
      targets.push_back({(c & 1) ? box.hi[0] : box.lo[0],
                         (c & 2) ? box.hi[1] : box.lo[1],
                         (c & 4) ? box.hi[2] : box.lo[2]});
    for (int t = 0; t < 8; ++t) {
      std::array<float, 3> r;
      for (std::size_t d = 0; d < 3; ++d)
        r[d] = static_cast<float>(s.uniform(box.lo[d], box.hi[d]));
      targets.push_back(r);
    }
    NeighborList first;
    for (const TileKernel& tile : tiles) {
      SCOPED_TRACE(tile.isa);
      NeighborList out;
      cull_neighbors(tile, in, box, rmax2, out);
      ASSERT_EQ(out.size(), expect.size()) << "trial " << trial;
      std::vector<bool> kept(n, false);
      for (std::size_t k = 0; k < out.size(); ++k) {
        const auto j = static_cast<std::size_t>(out.m[k]);
        ASSERT_EQ(j, expect[k]) << "trial " << trial;
        EXPECT_EQ(out.x[k], in.x[j]);
        EXPECT_EQ(out.y[k], in.y[j]);
        EXPECT_EQ(out.z[k], in.z[j]);
        kept[j] = true;
      }
      for (std::size_t j = 0; j < n; ++j) {
        if (kept[j]) continue;
        for (const auto& t : targets)
          EXPECT_GE(pair_s(t, {in.x[j], in.y[j], in.z[j]}), rmax2)
              << "trial " << trial << " dropped j=" << j;
      }
      if (&tile == &tiles.front()) {
        first = out;
      } else {
        EXPECT_EQ(out.x, first.x);
        EXPECT_EQ(out.y, first.y);
        EXPECT_EQ(out.z, first.z);
        EXPECT_EQ(out.m, first.m);
      }
    }
    kept_total += expect.size();
    dropped_total += n - expect.size();
  }
  // Both sides of the cutoff were exercised, down to the last few ulps.
  EXPECT_GT(kept_total, 1000u);
  EXPECT_GT(dropped_total, 1000u);
  EXPECT_GT(close_in, 20u);
  EXPECT_GT(close_out, 20u);
}

TEST(KernelVariantDispatch, ParseAndEnvOverride) {
  EXPECT_EQ(parse_kernel_variant("scalar", KernelVariant::kBatched),
            KernelVariant::kScalar);
  EXPECT_EQ(parse_kernel_variant("batched", KernelVariant::kScalar),
            KernelVariant::kBatched);
  EXPECT_EQ(parse_kernel_variant("nonsense", KernelVariant::kScalar),
            KernelVariant::kScalar);
  EXPECT_EQ(parse_kernel_variant(nullptr, KernelVariant::kBatched),
            KernelVariant::kBatched);
  EXPECT_STREQ(kernel_variant_name(KernelVariant::kScalar), "scalar");
  EXPECT_STREQ(kernel_variant_name(KernelVariant::kBatched), "batched");
  // HACC_KERNEL is read afresh on every call.
  ::setenv("HACC_KERNEL", "scalar", 1);
  EXPECT_EQ(kernel_variant_from_env(KernelVariant::kBatched),
            KernelVariant::kScalar);
  ::setenv("HACC_KERNEL", "batched", 1);
  EXPECT_EQ(kernel_variant_from_env(KernelVariant::kScalar),
            KernelVariant::kBatched);
  ::unsetenv("HACC_KERNEL");
  EXPECT_EQ(kernel_variant_from_env(KernelVariant::kScalar),
            KernelVariant::kScalar);
}

}  // namespace
}  // namespace hacc::tree
