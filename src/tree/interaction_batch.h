// Tile-batched short-range kernel (paper Sec. III, the QPX inner loop).
//
// evaluate_neighbor_list() is scalar-shaped: one target per pass, so the
// whole neighbor list is re-streamed from cache for every particle of a fat
// leaf. The BG/Q kernel instead blocks *targets* into small SoA tiles and
// evaluates one neighbor tile against every target in the block before
// moving on — each neighbor tile is loaded from L1 once and reused by
// kTileTargets targets, cutting the inner-loop load traffic by the tile
// height while keeping the exact same interaction set.
//
// Layout of one interaction tile (kTileTargets x 2W per pass, W lanes):
//
//        neighbors j ->   [ x y z m | x y z m | ... ]   2W per pass
//   targets i  t0  ---->  two W-wide vectors per pass (2-fold unroll)
//       (4)    t1  ---->  same neighbor vectors, re-used from registers
//              t2  ---->
//              t3  ---->
//
// One width-generic tile body is compiled once per vector ISA: W = 4 at the
// build's baseline ISA (SSE2 on x86-64), and on x86 also W = 8 (AVX2) and
// W = 16 (AVX-512). The widest instance the host runs is picked once, at
// first use; there is no knob. KernelVariant::kBatched runs it.
//
// The arithmetic per (i, j) pair is exactly the scalar loop's: Horner for
// poly5 with separate multiply and add, (s+eps)^{-3/2} via sqrt and divide,
// branchless cutoff by masking (the vector-select idiom), mass_scale folded
// into the neighbor mass. Each pair's force term is therefore bit-identical
// to evaluate_neighbor_list's; only the float summation order differs, so
// batched and scalar forces agree to rounding (property-tested at 1e-5
// relative), and the scalar variant remains bit-for-bit the historical
// kernel.
//
// The neighbor cull (cull_neighbors) runs at the same widths, through the
// same instance table, before the kernel: compute_short_range culls each
// fat leaf's list to every sub-leaf's tight box + r_cut. It keeps entry j
// iff d2 < rmax^2, where d2 = (gx^2 + gy^2) + gz^2 with per-axis gap
// g = max(lo - x, x - hi, 0) to the box, in float with contraction off.
// For any target in the box each |dx| >= g, and float subtraction,
// multiplication and addition are monotone, so d2 <= the kernel's own s for
// every target in the box: every dropped pair would have been masked to
// exactly 0. The kept set is bit-identical at every width, so both variants
// get the same list.
//
// Compilers without GNU vector extensions run the scalar loop for both
// variants, and a scalar cull.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "tree/force_kernel.h"
#include "tree/leaf_partition.h"
#include "tree/particles.h"

namespace hacc::tree {

/// Targets per interaction tile (rows sharing one neighbor tile).
inline constexpr std::size_t kTileTargets = 4;
static_assert(kSubLeafSize % kTileTargets == 0,
              "a full sub-leaf fills whole target tiles");

/// One tile's operands (interaction_batch.cpp).
struct TileArgs;
/// One cull's operands (interaction_batch.cpp).
struct CullArgs;

/// One compiled width of the tile kernel.
struct TileKernel {
  const char* isa;    ///< "baseline", "avx2" or "avx512"
  std::size_t lanes;  ///< W, the vector width in floats
  /// Forces of kTileTargets targets against a neighbor list padded to a
  /// tile_neighbors() multiple.
  void (*fn)(TileArgs& tile) noexcept;
  /// The neighbor cull at this width; returns the entries kept.
  std::size_t (*cull)(const CullArgs& args) noexcept;

  /// Neighbors per tile pass (two W-wide vectors): the list pads to this.
  std::size_t tile_neighbors() const noexcept { return 2 * lanes; }
};

/// The tile kernel's instances this host can run, widest last. The batched
/// variant runs the last; tests and benchmarks run each of them. Empty when
/// the tile path is not compiled in (no GNU vector extensions): then
/// KernelVariant::kBatched runs the scalar loop.
std::span<const TileKernel> tile_kernels() noexcept;

/// The tile instance `variant` runs: the widest for kBatched; null for
/// kScalar, or when there is no tile path, where the scalar loop runs.
const TileKernel* tile_kernel_for(KernelVariant variant) noexcept;

/// Keep the entries of `in` whose squared distance to `box` (its lo/hi) is
/// below `rmax2`, in order, in `out`: a superset of the pairs inside the
/// cutoff for every target in the box (see the header comment). Runs at
/// the widest tile instance, or the scalar loop when there is none.
void cull_neighbors(const NeighborList& in, const Node& box, float rmax2,
                    NeighborList& out);

/// cull_neighbors at the given tile instance's width.
void cull_neighbors(const TileKernel& tile, const NeighborList& in,
                    const Node& box, float rmax2, NeighborList& out);

/// Evaluate short-range forces of the contiguous target range
/// [first, first+count) of `p` against the shared neighbor list, writing
/// accelerations at the targets' absolute indices of ax/ay/az. Neighbor
/// masses are scaled by `mass_scale` inside the kernel. The batched path
/// may append zero-mass padding to `list` (to a tile_neighbors() multiple);
/// callers needing the true list size must capture it before the call.
void evaluate_leaf(KernelVariant variant, const ShortRangeKernel& kernel,
                   const ParticleArray& p, std::uint32_t first,
                   std::uint32_t count, NeighborList& list, float mass_scale,
                   std::span<float> ax, std::span<float> ay,
                   std::span<float> az);

/// evaluate_leaf's batched path run by the given tile instance.
void evaluate_leaf(const TileKernel& tile, const ShortRangeKernel& kernel,
                   const ParticleArray& p, std::uint32_t first,
                   std::uint32_t count, NeighborList& list, float mass_scale,
                   std::span<float> ax, std::span<float> ay,
                   std::span<float> az);

}  // namespace hacc::tree
