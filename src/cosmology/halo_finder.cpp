#include "cosmology/halo_finder.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <span>

#include "util/error.h"

namespace hacc::cosmology {

namespace {

/// Union-find with path halving. Uniting keeps the smaller root, so every
/// set's root is its smallest node.
class DisjointSets {
 public:
  explicit DisjointSets(std::size_t n) : parent_(n) {
    for (std::size_t i = 0; i < n; ++i) parent_[i] = static_cast<std::uint32_t>(i);
  }
  std::uint32_t find(std::uint32_t v) noexcept {
    while (parent_[v] != v) {
      parent_[v] = parent_[parent_[v]];
      v = parent_[v];
    }
    return v;
  }
  void unite(std::uint32_t a, std::uint32_t b) noexcept {
    a = find(a);
    b = find(b);
    if (a != b) parent_[std::max(a, b)] = std::min(a, b);
  }

 private:
  std::vector<std::uint32_t> parent_;
};

double periodic_delta(double d, double box) noexcept {
  if (d > 0.5 * box) return d - box;
  if (d < -0.5 * box) return d + box;
  return d;
}

/// The particles one FOF pass links, as nodes 0..count-1: node k is
/// particle subset[k], or particle k when the pass runs over all of them.
struct Nodes {
  std::span<const std::uint32_t> subset;
  std::size_t count = 0;
  std::uint32_t particle(std::size_t k) const noexcept {
    return subset.empty() ? static_cast<std::uint32_t>(k) : subset[k];
  }
};

/// Most cells per axis: the packed key (x·n + y)·n + z of every cell then
/// fits in 32 bits (1625³ < 2³² < 1626³).
constexpr double kMaxCellsPerAxis = 1625;

/// Unite, in `sets`, every pair of nodes whose particles lie within
/// `radius` of each other, periodic on `box`.
///
/// Candidate pairs come from a periodic chaining mesh of n³ cells: the
/// pairs inside a cell and between neighboring cells. n = floor(box /
/// radius) keeps cells no smaller than the radius; n is at least 3, so a
/// cell's 26 neighbors are distinct (at 3 every cell neighbors every
/// other), and at most kMaxCellsPerAxis, where larger cells still link
/// every pair within the radius. Only the occupied cells are indexed: one
/// sort by packed cell key puts every cell's nodes in one run, so memory
/// is O(nodes) whatever n is. Each cell
/// visits its forward half-shell — (x, y, z+1), then z-1..z+1 in the rows
/// (x, y+1), (x+1, y-1), (x+1, y), (x+1, y+1) — so every unordered pair of
/// neighboring cells is visited exactly once. Keys ascend along each row,
/// so one cursor per row offset finds the neighbors; it only moves back,
/// by a binary search, where the row wraps around the box.
void link_pairs(const tree::ParticleArray& p, const Nodes& nodes,
                double radius, double box, DisjointSets& sets) {
  const std::size_t count = nodes.count;
  if (count == 0) return;
  const double r2 = radius * radius;
  const auto n = static_cast<std::uint32_t>(
      std::clamp(std::floor(box / radius), 3.0, kMaxCellsPerAxis));
  const double cell = box / n;
  auto axis_cell = [&](float v) {
    int i = static_cast<int>(static_cast<double>(v) / cell);
    if (i >= static_cast<int>(n)) i = static_cast<int>(n) - 1;
    if (i < 0) i = 0;
    return static_cast<std::uint32_t>(i);
  };

  // One sort of (cell key << 32 | node): each occupied cell's nodes form
  // one run. Positions are copied into that order so a cell's particles
  // (and its neighbors') sit together in memory.
  std::vector<std::uint64_t> order(count);
  for (std::size_t k = 0; k < count; ++k) {
    const std::uint32_t i = nodes.particle(k);
    const std::uint32_t key =
        (axis_cell(p.x[i]) * n + axis_cell(p.y[i])) * n + axis_cell(p.z[i]);
    order[k] = static_cast<std::uint64_t>(key) << 32 | k;
  }
  std::sort(order.begin(), order.end());
  auto key_at = [&](std::size_t s) {
    return static_cast<std::uint32_t>(order[s] >> 32);
  };
  auto node_at = [&](std::size_t s) {
    return static_cast<std::uint32_t>(order[s]);
  };
  std::vector<std::array<float, 3>> pos(count);
  for (std::size_t s = 0; s < count; ++s) {
    const std::uint32_t i = nodes.particle(node_at(s));
    pos[s] = {p.x[i], p.y[i], p.z[i]};
  }

  // Occupied cell c holds sorted slots [run[c], run[c + 1]).
  std::size_t cells = 1;
  for (std::size_t s = 1; s < count; ++s) cells += key_at(s) != key_at(s - 1);
  std::vector<std::uint32_t> cell_key(cells), run(cells + 1);
  for (std::size_t s = 0, c = 0; s < count; ++s) {
    if (s > 0 && key_at(s) == key_at(s - 1)) continue;
    cell_key[c] = key_at(s);
    run[c++] = static_cast<std::uint32_t>(s);
  }
  run[cells] = static_cast<std::uint32_t>(count);

  auto link = [&](std::size_t s, std::size_t t) {
    const double dx = periodic_delta(pos[s][0] - pos[t][0], box);
    const double dy = periodic_delta(pos[s][1] - pos[t][1], box);
    const double dz = periodic_delta(pos[s][2] - pos[t][2], box);
    if (dx * dx + dy * dy + dz * dz <= r2) sets.unite(node_at(s), node_at(t));
  };
  auto link_cells = [&](std::size_t a, std::size_t b) {
    for (std::size_t s = run[a]; s < run[a + 1]; ++s)
      for (std::size_t t = run[b]; t < run[b + 1]; ++t) link(s, t);
  };
  auto find_cell = [&](std::size_t lo, std::size_t hi, std::uint32_t key) {
    const auto* it = std::lower_bound(cell_key.data() + lo,
                                      cell_key.data() + hi, key);
    return it != cell_key.data() + hi && *it == key
               ? static_cast<std::size_t>(it - cell_key.data())
               : cells;
  };

  constexpr int kRows[5][2] = {{0, 0}, {0, 1}, {1, -1}, {1, 0}, {1, 1}};
  std::size_t cursor[5] = {};  // first cell with key >= the row's window
  auto wrap = [n](std::uint32_t v, int d) {
    const std::int64_t w = static_cast<std::int64_t>(v) + d;
    return static_cast<std::uint32_t>(w < 0 ? w + n : w >= n ? w - n : w);
  };
  for (std::size_t c = 0; c < cells; ++c) {
    for (std::size_t s = run[c]; s < run[c + 1]; ++s)
      for (std::size_t t = s + 1; t < run[c + 1]; ++t) link(s, t);
    const std::uint32_t z = cell_key[c] % n;
    const std::uint32_t y = cell_key[c] / n % n;
    const std::uint32_t x = cell_key[c] / n / n;
    for (int r = 0; r < 5; ++r) {
      const std::uint32_t row =
          (wrap(x, kRows[r][0]) * n + wrap(y, kRows[r][1])) * n;
      // The window of z in this row that needs no wrap; the home row
      // (r = 0) only looks forward.
      const std::uint32_t lo = row + (r == 0 ? z + 1 : z == 0 ? 0 : z - 1);
      const std::uint32_t hi = row + std::min(z + 1, n - 1);
      std::size_t& at = cursor[r];
      if (at > 0 && cell_key[at - 1] >= lo)
        at = static_cast<std::size_t>(
            std::lower_bound(cell_key.data(), cell_key.data() + at, lo) -
            cell_key.data());
      while (at < cells && cell_key[at] < lo) ++at;
      for (std::size_t d = at; d < cells && cell_key[d] <= hi; ++d)
        link_cells(c, d);
      // The neighbor across the periodic z face.
      std::size_t d = cells;
      if (z == 0 && r != 0)
        d = find_cell(at, cells, row + n - 1);
      else if (z == n - 1)
        d = find_cell(0, at, row);
      if (d != cells) link_cells(c, d);
    }
  }
}

/// Periodic center of mass: average unit-circle phases per axis.
std::array<double, 3> periodic_center(const tree::ParticleArray& p,
                                      const std::vector<std::uint32_t>& m,
                                      double box) {
  std::array<double, 3> center{};
  for (int axis = 0; axis < 3; ++axis) {
    double cs = 0, sn = 0, msum = 0;
    for (auto i : m) {
      const double v =
          axis == 0 ? p.x[i] : axis == 1 ? p.y[i] : p.z[i];
      const double th = 2.0 * std::numbers::pi * v / box;
      cs += p.mass[i] * std::cos(th);
      sn += p.mass[i] * std::sin(th);
      msum += p.mass[i];
    }
    double th = std::atan2(sn / msum, cs / msum);
    if (th < 0) th += 2.0 * std::numbers::pi;
    center[static_cast<std::size_t>(axis)] =
        th * box / (2.0 * std::numbers::pi);
  }
  return center;
}

/// FOF groups of `nodes` at linking `radius` with at least `min_members`,
/// sorted by descending mass.
std::vector<Halo> find_groups(const tree::ParticleArray& p, const Nodes& nodes,
                              double radius, std::size_t min_members,
                              double box) {
  HACC_CHECK(nodes.count <= std::numeric_limits<std::uint32_t>::max());
  DisjointSets sets(nodes.count);
  link_pairs(p, nodes, radius, box, sets);

  // Component sizes first, kept at each root (the node where its group
  // first appears); member lists are allocated only for groups that
  // become halos. Afterwards a root holds its halo's slot, or kNoHalo.
  constexpr std::uint32_t kNoHalo = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> slot(nodes.count, 0);
  for (std::uint32_t k = 0; k < nodes.count; ++k) ++slot[sets.find(k)];
  std::size_t kept = 0;
  for (const std::uint32_t size : slot) kept += size > 0 && size >= min_members;
  std::vector<Halo> halos;
  halos.reserve(kept);
  for (std::uint32_t& s : slot) {
    if (s == 0) continue;  // not a root
    if (s < min_members) {
      s = kNoHalo;
      continue;
    }
    halos.emplace_back().members.reserve(s);
    s = static_cast<std::uint32_t>(halos.size() - 1);
  }
  for (std::uint32_t k = 0; k < nodes.count; ++k) {
    const std::uint32_t s = slot[sets.find(k)];
    if (s != kNoHalo) halos[s].members.push_back(nodes.particle(k));
  }

  for (Halo& h : halos) {
    // Canonical member order (ascending particle id): the center/velocity
    // float sums below — and therefore the catalog bytes — are identical no
    // matter how the particle array was permuted by decomposition or
    // gathering order.
    std::sort(h.members.begin(), h.members.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return p.id[a] != p.id[b] ? p.id[a] < p.id[b] : a < b;
              });
    h.id = p.id[h.members.front()];
    h.center = periodic_center(p, h.members, box);
    for (auto i : h.members) {
      h.mass += p.mass[i];
      h.velocity[0] += p.vx[i];
      h.velocity[1] += p.vy[i];
      h.velocity[2] += p.vz[i];
    }
    const double inv = 1.0 / static_cast<double>(h.members.size());
    for (auto& v : h.velocity) v *= inv;
  }
  // Mass order for science consumers, halo id as the total tie-break so the
  // list order (and any file written from it) is deterministic.
  std::sort(halos.begin(), halos.end(), [](const Halo& a, const Halo& b) {
    return a.mass != b.mass ? a.mass > b.mass : a.id < b.id;
  });
  return halos;
}

}  // namespace

std::vector<Halo> find_halos(const tree::ParticleArray& p,
                             const FofConfig& config) {
  HACC_CHECK_MSG(config.box > 0, "FofConfig.box must be set");
  HACC_CHECK_MSG(config.mean_spacing > 0,
                 "FofConfig.mean_spacing must be set");
  const double radius = config.linking_length * config.mean_spacing;
  return find_groups(p, Nodes{{}, p.size()}, radius, config.min_members,
                     config.box);
}

std::vector<Halo> find_subhalos(const tree::ParticleArray& p, const Halo& halo,
                                const FofConfig& config,
                                double sub_linking_fraction,
                                std::size_t min_members) {
  HACC_CHECK(sub_linking_fraction > 0 && sub_linking_fraction <= 1.0);
  const double radius = config.linking_length * config.mean_spacing *
                        sub_linking_fraction;
  return find_groups(p, Nodes{halo.members, halo.members.size()}, radius,
                     min_members, config.box);
}

std::vector<std::size_t> mass_function(const std::vector<Halo>& halos,
                                       const std::vector<double>& edges) {
  std::vector<std::size_t> counts(edges.size(), 0);
  for (const auto& h : halos) {
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if (h.mass >= edges[i]) ++counts[i];
    }
  }
  return counts;
}

}  // namespace hacc::cosmology
