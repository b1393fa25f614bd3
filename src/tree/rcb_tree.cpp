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
  build_sub_leaves();
}

namespace {

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

void RcbTree::build(RcbConfig config) {
  const auto count = static_cast<std::uint32_t>(particles_->size());
  if (count == 0) return;
  SwapList swaps;

  struct Work {
    std::int32_t node;
    std::size_t depth;
  };
  nodes_.push_back(Node{{}, {}, 0, count, -1, -1});
  fit_box(*particles_, nodes_[0]);
  std::stack<Work> work;
  work.push({0, 1});

  while (!work.empty()) {
    const Work w = work.top();
    work.pop();
    depth_ = std::max(depth_, w.depth);
    const Node node = nodes_[static_cast<std::size_t>(w.node)];
    // Depth cap guards against adversarial distributions where center-of-
    // mass splits shave off O(1) particles per level. A degenerate split
    // (e.g. coincident particles) also ends the branch.
    Node lchild, rchild;
    if (node.count <= config.leaf_size || w.depth > 96 ||
        !rcb_split(*particles_, node, lchild, rchild, swaps)) {
      leaves_.push_back(static_cast<std::uint32_t>(w.node));
      continue;
    }
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
