#include "p3m/chaining_mesh.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace hacc::p3m {

using tree::NeighborList;
using tree::Node;
using tree::ParticleArray;

namespace {

/// Grid coordinates of cell `c` of an x-major mesh of `n` cells.
std::array<int, 3> cell_coords(const std::array<int, 3>& n, std::size_t c) {
  const int i = static_cast<int>(c);
  return {i / (n[1] * n[2]), (i / n[2]) % n[1], i % n[2]};
}

}  // namespace

ChainingMesh::ChainingMesh(ParticleArray& p, float cell)
    : LeafPartition(p, cell) {
  HACC_CHECK(p.consistent());
  HACC_CHECK_MSG(cell > 0, "chaining-mesh cell side must be positive");
  const std::size_t n = p.size();
  if (n == 0) return;

  // Mesh over the particle bounding box.
  const float* coord[3] = {p.x.data(), p.y.data(), p.z.data()};
  std::array<float, 3> lo{};
  for (std::size_t d = 0; d < 3; ++d) {
    const auto [mn, mx] = std::minmax_element(coord[d], coord[d] + n);
    lo[d] = *mn;
    ncells_[d] =
        std::max(1, static_cast<int>(std::floor((*mx - *mn) / cell)) + 1);
  }
  const auto cell_of = [&](std::size_t i) {
    int c[3];
    for (std::size_t d = 0; d < 3; ++d)
      c[d] = std::clamp(static_cast<int>((coord[d][i] - lo[d]) / cell), 0,
                        ncells_[d] - 1);
    return static_cast<std::size_t>((c[0] * ncells_[1] + c[1]) * ncells_[2] +
                                    c[2]);
  };

  // Stable counting sort into cell order; every cell becomes a node over
  // its contiguous range, with the cell box.
  const std::size_t total = static_cast<std::size_t>(ncells_[0]) *
                            static_cast<std::size_t>(ncells_[1]) *
                            static_cast<std::size_t>(ncells_[2]);
  std::vector<std::size_t> cell_index(n);
  std::vector<std::uint32_t> start(total + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    cell_index[i] = cell_of(i);
    ++start[cell_index[i] + 1];
  }
  for (std::size_t c = 0; c < total; ++c) start[c + 1] += start[c];
  std::vector<std::size_t> order(n);
  std::vector<std::uint32_t> cursor(start.begin(), start.end() - 1);
  for (std::size_t i = 0; i < n; ++i) order[cursor[cell_index[i]]++] = i;
  p.permute(order);

  nodes_.resize(total);
  for (std::size_t c = 0; c < total; ++c) {
    const std::array<int, 3> at = cell_coords(ncells_, c);
    Node& node = nodes_[c];
    for (std::size_t d = 0; d < 3; ++d) {
      node.lo[d] = lo[d] + static_cast<float>(at[d]) * cell;
      node.hi[d] = node.lo[d] + cell;
    }
    node.first = start[c];
    node.count = start[c + 1] - start[c];
    if (node.count > 0) leaves_.push_back(static_cast<std::uint32_t>(c));
  }
  build_sub_leaves();
}

void ChainingMesh::gather_neighbors(std::uint32_t leaf_node, float /*rcut*/,
                                    NeighborList& out,
                                    std::size_t* visits) const {
  out.clear();
  const std::array<int, 3> at = cell_coords(ncells_, leaf_node);
  std::size_t visited = 0;
  for (int x = std::max(at[0] - 1, 0); x <= std::min(at[0] + 1, ncells_[0] - 1);
       ++x)
    for (int y = std::max(at[1] - 1, 0);
         y <= std::min(at[1] + 1, ncells_[1] - 1); ++y)
      for (int z = std::max(at[2] - 1, 0);
           z <= std::min(at[2] + 1, ncells_[2] - 1); ++z) {
        const Node& nb = nodes_[static_cast<std::size_t>(
            (x * ncells_[1] + y) * ncells_[2] + z)];
        out.append(*particles_, nb.first, nb.count);
        ++visited;
      }
  if (visits != nullptr) *visits += visited;
}

}  // namespace hacc::p3m
