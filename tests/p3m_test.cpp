// Tests for the P3M chaining-mesh short-range solver: the mesh as a leaf
// partition, correctness vs direct summation through compute_short_range,
// agreement with the RCB tree solver (the paper's cross-algorithm
// validation, Sec. II), and the cell-side guard.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "p3m/chaining_mesh.h"
#include "tree/direct.h"
#include "tree/force_matcher.h"
#include "tree/rcb_tree.h"
#include "util/rng.h"

namespace hacc::p3m {
namespace {

using tree::compute_short_range;
using tree::ParticleArray;
using tree::ShortRangeKernel;

ParticleArray random_particles(std::size_t n, float box, std::uint64_t seed) {
  ParticleArray p;
  p.reserve(n);
  Philox rng(seed);
  Philox::Stream s(rng);
  for (std::size_t i = 0; i < n; ++i) {
    p.push_back(static_cast<float>(s.uniform(0, box)),
                static_cast<float>(s.uniform(0, box)),
                static_cast<float>(s.uniform(0, box)), 0, 0, 0, 1.0f, i);
  }
  return p;
}

ShortRangeKernel default_kernel() {
  ShortRangeKernel k;
  k.softening = 0.05f;
  k.fgrid = tree::default_fgrid_poly5();
  return k;
}

class P3mSizes : public ::testing::TestWithParam<std::size_t> {};
INSTANTIATE_TEST_SUITE_P(Counts, P3mSizes,
                         ::testing::Values(1, 10, 100, 500, 2000));

TEST_P(P3mSizes, MatchesDirectSummation) {
  const std::size_t n = GetParam();
  ParticleArray p = random_particles(n, 15.0f, 7 + n);
  const auto kernel = default_kernel();
  std::vector<float> ax(n), ay(n), az(n), dx(n), dy(n), dz(n);
  const ChainingMesh mesh(p, kernel.rmax);
  const auto stats = compute_short_range(mesh, kernel, ax, ay, az);
  EXPECT_EQ(stats.particles, n);
  EXPECT_EQ(stats.leaves, mesh.leaves().size());
  tree::direct_short_range(p, kernel, dx, dy, dz);
  double max_err = 0, scale = 0;
  for (std::size_t i = 0; i < n; ++i) {
    max_err = std::max({max_err, std::abs(static_cast<double>(ax[i] - dx[i])),
                        std::abs(static_cast<double>(ay[i] - dy[i])),
                        std::abs(static_cast<double>(az[i] - dz[i]))});
    scale = std::max({scale, std::abs(static_cast<double>(dx[i])),
                      std::abs(static_cast<double>(dy[i])),
                      std::abs(static_cast<double>(dz[i]))});
  }
  EXPECT_LT(max_err, 2e-4 * (scale + 1.0));
}

TEST(P3m, AgreesWithRcbTreeSolver) {
  // The paper validates P3M against PPTreePM; at the force level the two
  // must agree to round-off, since both sum the identical kernel over all
  // pairs within the hand-over radius.
  const std::size_t n = 1500;
  ParticleArray p1 = random_particles(n, 20.0f, 42);
  ParticleArray p2 = p1;
  const auto kernel = default_kernel();
  std::vector<float> ax1(n), ay1(n), az1(n), ax2(n), ay2(n), az2(n);
  const ChainingMesh mesh(p1, kernel.rmax);
  compute_short_range(mesh, kernel, ax1, ay1, az1);
  const tree::RcbTree tr(p2, tree::RcbConfig{64});
  compute_short_range(tr, kernel, ax2, ay2, az2);
  // Both builds permuted their copy: compare by particle id.
  std::vector<std::size_t> slot(n);
  for (std::size_t i = 0; i < n; ++i) slot[p2.id[i]] = i;
  double max_err = 0, scale = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = slot[p1.id[i]];
    max_err =
        std::max({max_err, std::abs(static_cast<double>(ax1[i] - ax2[j])),
                  std::abs(static_cast<double>(ay1[i] - ay2[j])),
                  std::abs(static_cast<double>(az1[i] - az2[j]))});
    scale = std::max(scale, std::abs(static_cast<double>(ax1[i])));
  }
  EXPECT_LT(max_err, 5e-4 * (scale + 1.0));
}

TEST(P3m, LargerCellsAllowed) {
  // Any cell side >= rmax gathers a superset of the pairs in range; the
  // forces agree to summation-order rounding.
  const std::size_t n = 400;
  ParticleArray p1 = random_particles(n, 12.0f, 3);
  ParticleArray p2 = p1;
  const auto kernel = default_kernel();
  std::vector<float> a1(n), a2(n), tmp(n), tmp2(n), tmp3(n), tmp4(n);
  compute_short_range(ChainingMesh(p1, 3.0f), kernel, a1, tmp, tmp2);
  compute_short_range(ChainingMesh(p2, 5.5f), kernel, a2, tmp3, tmp4);
  std::vector<std::size_t> slot(n);
  for (std::size_t i = 0; i < n; ++i) slot[p2.id[i]] = i;
  for (std::size_t i = 0; i < n; ++i) {
    const float b = a2[slot[p1.id[i]]];
    EXPECT_NEAR(a1[i], b, 1e-4f * (std::abs(a1[i]) + 1e-3f));
  }
}

TEST(P3m, RejectsCellSmallerThanCutoff) {
  // A 27-cell gather covers the hand-over radius only when the cell is at
  // least that wide; compute_short_range refuses before any leaf runs.
  ParticleArray p = random_particles(10, 5.0f, 1);
  const auto kernel = default_kernel();
  std::vector<float> a(10), b(10), c(10);
  const ChainingMesh mesh(p, 2.0f);
  EXPECT_THROW(compute_short_range(mesh, kernel, a, b, c), Error);
}

TEST(P3m, LeavesAreTheNonEmptyCellsInCellOrder) {
  // The build permutes the array into cell order: each non-empty cell is
  // one leaf over a contiguous range, the ranges tile the array in cell
  // order, and every particle lies in its leaf's cell box.
  const std::size_t n = 700;
  ParticleArray p = random_particles(n, 10.0f, 9);
  const std::vector<std::uint64_t> ids(p.id.begin(), p.id.end());
  const ChainingMesh mesh(p, 3.0f);
  EXPECT_EQ(std::multiset<std::uint64_t>(p.id.begin(), p.id.end()),
            std::multiset<std::uint64_t>(ids.begin(), ids.end()));
  const auto& leaves = mesh.leaves();
  EXPECT_TRUE(std::is_sorted(leaves.begin(), leaves.end()));
  EXPECT_EQ(leaves.size(),
            static_cast<std::size_t>(std::count_if(
                mesh.nodes().begin(), mesh.nodes().end(),
                [](const tree::Node& c) { return c.count > 0; })));
  std::uint32_t next = 0;
  for (const std::uint32_t leaf : leaves) {
    const tree::Node& cell = mesh.nodes()[leaf];
    EXPECT_TRUE(cell.is_leaf());
    EXPECT_EQ(cell.first, next);
    for (std::uint32_t i = cell.first; i < cell.first + cell.count; ++i) {
      const float v[3] = {p.x[i], p.y[i], p.z[i]};
      for (std::size_t d = 0; d < 3; ++d) {
        EXPECT_GE(v[d], cell.lo[d] - 1e-4f);
        EXPECT_LE(v[d], cell.hi[d] + 1e-4f);
      }
    }
    next = cell.first + cell.count;
  }
  EXPECT_EQ(next, n);
}

TEST(P3m, EmptyInputIsFine) {
  ParticleArray p;
  const auto kernel = default_kernel();
  std::vector<float> a, b, c;
  const ChainingMesh mesh(p, kernel.rmax);
  EXPECT_TRUE(mesh.leaves().empty());
  const auto stats = compute_short_range(mesh, kernel, a, b, c);
  EXPECT_EQ(stats.interactions, 0u);
}

TEST(P3m, MomentumConserved) {
  const std::size_t n = 800;
  ParticleArray p = random_particles(n, 10.0f, 55);
  const auto kernel = default_kernel();
  std::vector<float> ax(n), ay(n), az(n);
  compute_short_range(ChainingMesh(p, kernel.rmax), kernel, ax, ay, az);
  double sx = 0, sy = 0, sz = 0, scale = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sx += ax[i];
    sy += ay[i];
    sz += az[i];
    scale += std::abs(ax[i]) + std::abs(ay[i]) + std::abs(az[i]);
  }
  EXPECT_LT(std::abs(sx), 1e-5 * scale + 1e-6);
  EXPECT_LT(std::abs(sy), 1e-5 * scale + 1e-6);
  EXPECT_LT(std::abs(sz), 1e-5 * scale + 1e-6);
}

}  // namespace
}  // namespace hacc::p3m
