#include "tree/rcb_tree.h"

#include <algorithm>
#include <limits>
#include <stack>

namespace hacc::tree {

RcbTree::RcbTree(ParticleArray& particles, RcbConfig config)
    : LeafPartition(particles, std::numeric_limits<float>::infinity()) {
  HACC_CHECK(particles.consistent());
  HACC_CHECK_MSG(config.leaf_size >= 1, "leaf_size must be >= 1");
  build(config);
}

namespace {

/// Tight bounding box of an index range.
void compute_box(const ParticleArray& p, std::uint32_t first,
                 std::uint32_t count, std::array<float, 3>& lo,
                 std::array<float, 3>& hi) {
  lo = {std::numeric_limits<float>::max(), std::numeric_limits<float>::max(),
        std::numeric_limits<float>::max()};
  hi = {std::numeric_limits<float>::lowest(),
        std::numeric_limits<float>::lowest(),
        std::numeric_limits<float>::lowest()};
  for (std::uint32_t i = first; i < first + count; ++i) {
    lo[0] = std::min(lo[0], p.x[i]);
    hi[0] = std::max(hi[0], p.x[i]);
    lo[1] = std::min(lo[1], p.y[i]);
    hi[1] = std::max(hi[1], p.y[i]);
    lo[2] = std::min(lo[2], p.z[i]);
    hi[2] = std::max(hi[2], p.z[i]);
  }
}

const float* coord_array(const ParticleArray& p, int dim) {
  return dim == 0 ? p.x.data() : dim == 1 ? p.y.data() : p.z.data();
}

/// Squared distance between two nodes' boxes (0 when they overlap).
float box_distance2(const Node& a, const Node& b) noexcept {
  float d2 = 0;
  for (std::size_t d = 0; d < 3; ++d) {
    const float gap = std::max({0.0f, a.lo[d] - b.hi[d], b.lo[d] - a.hi[d]});
    d2 += gap * gap;
  }
  return d2;
}

}  // namespace

std::uint32_t three_phase_partition(
    ParticleArray& p, std::uint32_t first, std::uint32_t count, int dim,
    float split, std::vector<std::pair<std::uint32_t, std::uint32_t>>& swaps) {
  const float* coord = coord_array(p, dim);

  // Phase 1: scan the split coordinate only, recording the swaps (two-pointer
  // sweep; nothing is moved yet).
  swaps.clear();
  std::uint32_t i = first;
  std::uint32_t j = first + count;  // one past the end
  for (;;) {
    // Note: a recorded swap means coord[i] and coord[j] conceptually change
    // places, but since i only moves right and j only moves left, the scan
    // never revisits a swapped slot and needs no actual data movement here.
    while (i < j && coord[i] < split) ++i;
    while (i < j && coord[j - 1] >= split) --j;
    if (i + 1 >= j) break;
    swaps.emplace_back(i, j - 1);
    ++i;
    --j;
  }
  const std::uint32_t below = i - first;

  // Phase 2: apply the recorded swaps to the six position/velocity arrays.
  for (auto [a, b] : swaps) {
    std::swap(p.x[a], p.x[b]);
    std::swap(p.y[a], p.y[b]);
    std::swap(p.z[a], p.z[b]);
    std::swap(p.vx[a], p.vx[b]);
    std::swap(p.vy[a], p.vy[b]);
    std::swap(p.vz[a], p.vz[b]);
  }
  // Phase 3: the remaining arrays.
  for (auto [a, b] : swaps) {
    std::swap(p.mass[a], p.mass[b]);
    std::swap(p.ax[a], p.ax[b]);
    std::swap(p.ay[a], p.ay[b]);
    std::swap(p.az[a], p.az[b]);
    std::swap(p.id[a], p.id[b]);
    std::swap(p.role[a], p.role[b]);
  }
  return below;
}

void RcbTree::build(RcbConfig config) {
  const auto count = static_cast<std::uint32_t>(particles_->size());
  if (count == 0) return;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> swaps;

  struct Work {
    std::int32_t node;
    std::size_t depth;
  };
  nodes_.push_back(Node{{}, {}, 0, count, -1, -1});
  compute_box(*particles_, 0, count, nodes_[0].lo, nodes_[0].hi);
  std::stack<Work> work;
  work.push({0, 1});

  while (!work.empty()) {
    const Work w = work.top();
    work.pop();
    depth_ = std::max(depth_, w.depth);
    Node node = nodes_[static_cast<std::size_t>(w.node)];
    // Depth cap guards against adversarial distributions where center-of-
    // mass splits shave off O(1) particles per level.
    if (node.count <= config.leaf_size || w.depth > 96) {
      leaves_.push_back(static_cast<std::uint32_t>(w.node));
      continue;
    }
    // Split perpendicular to the longest side, at the center of mass.
    int dim = 0;
    for (int d = 1; d < 3; ++d) {
      if (node.hi[static_cast<std::size_t>(d)] -
              node.lo[static_cast<std::size_t>(d)] >
          node.hi[static_cast<std::size_t>(dim)] -
              node.lo[static_cast<std::size_t>(dim)])
        dim = d;
    }
    const float* coord = coord_array(*particles_, dim);
    double msum = 0.0, mxsum = 0.0;
    for (std::uint32_t i = node.first; i < node.first + node.count; ++i) {
      msum += particles_->mass[i];
      mxsum += static_cast<double>(particles_->mass[i]) * coord[i];
    }
    const float split =
        msum > 0 ? static_cast<float>(mxsum / msum)
                 : 0.5f * (node.lo[static_cast<std::size_t>(dim)] +
                           node.hi[static_cast<std::size_t>(dim)]);
    const std::uint32_t below = three_phase_partition(
        *particles_, node.first, node.count, dim, split, swaps);
    if (below == 0 || below == node.count) {
      // Degenerate split (e.g. coincident particles): stop here.
      leaves_.push_back(static_cast<std::uint32_t>(w.node));
      continue;
    }
    Node lchild{{}, {}, node.first, below, -1, -1};
    Node rchild{{}, {}, node.first + below, node.count - below, -1, -1};
    compute_box(*particles_, lchild.first, lchild.count, lchild.lo, lchild.hi);
    compute_box(*particles_, rchild.first, rchild.count, rchild.lo, rchild.hi);
    const auto li = static_cast<std::int32_t>(nodes_.size());
    nodes_.push_back(lchild);
    const auto ri = static_cast<std::int32_t>(nodes_.size());
    nodes_.push_back(rchild);
    nodes_[static_cast<std::size_t>(w.node)].left = li;
    nodes_[static_cast<std::size_t>(w.node)].right = ri;
    work.push({li, w.depth + 1});
    work.push({ri, w.depth + 1});
  }
}

void RcbTree::gather_neighbors(std::uint32_t leaf_node, float rcut,
                               NeighborList& out,
                               std::size_t* visits) const {
  out.clear();
  if (nodes_.empty()) return;
  const Node& leaf = nodes_[leaf_node];
  const float rcut2 = rcut * rcut;
  std::size_t visited = 0;

  // The traversal stack is part of the (per-thread) list scratch: its
  // capacity persists across leaves and steps, so the walk is
  // allocation-free in steady state.
  std::vector<std::int32_t>& stack = out.walk_stack;
  stack.clear();
  if (stack.capacity() < 64) stack.reserve(64);
  stack.push_back(0);
  while (!stack.empty()) {
    const Node& node = nodes_[static_cast<std::size_t>(stack.back())];
    stack.pop_back();
    ++visited;
    if (box_distance2(node, leaf) > rcut2) continue;
    if (node.is_leaf()) {
      out.append(*particles_, node.first, node.count);
    } else {
      stack.push_back(node.left);
      stack.push_back(node.right);
    }
  }
  if (visits != nullptr) *visits += visited;
}

}  // namespace hacc::tree
