#include "tree/interaction_batch.h"

#include <algorithm>
#include <cmath>
#include <cstring>

// Explicit-vector tile kernel: GNU vector extensions (GCC and Clang). On
// other compilers the batched variant degrades to the scalar loop.
#if defined(__GNUC__) || defined(__clang__)
#define HACC_HAVE_VECTOR_EXT 1
#else
#define HACC_HAVE_VECTOR_EXT 0
#endif

// The AVX2 and AVX-512 instances, compiled through target attributes.
#if HACC_HAVE_VECTOR_EXT && defined(__x86_64__)
#define HACC_HAVE_WIDE_TILES 1
#else
#define HACC_HAVE_WIDE_TILES 0
#endif

#if HACC_HAVE_VECTOR_EXT && (HACC_HAVE_WIDE_TILES || defined(__SSE2__))
#include <immintrin.h>
#endif

// Each pair's arithmetic must match evaluate_neighbor_list's bit for bit:
// GCC fuses a * b + c into one FMA wherever the target has one (AVX-512F
// does), which rounds once where the scalar oracle rounds twice.
#if defined(__clang__)
#pragma clang fp contract(off)
#elif defined(__GNUC__)
#pragma GCC optimize("fp-contract=off")
#endif

namespace hacc::tree {

/// One tile's operands: kTileTargets targets against the first n_pad
/// entries of the padded neighbor list.
struct TileArgs {
  const ShortRangeKernel* kernel = nullptr;
  float mass_scale = 1.0f;
  const float *xn = nullptr, *yn = nullptr, *zn = nullptr, *mn = nullptr;
  std::size_t n_pad = 0;  ///< list length, a multiple of the tile width
  float tx[kTileTargets] = {}, ty[kTileTargets] = {}, tz[kTileTargets] = {};
  float fx[kTileTargets] = {}, fy[kTileTargets] = {}, fz[kTileTargets] = {};
};

/// One cull's operands: the n entries of `in` against the box [lo, hi].
struct CullArgs {
  const float* in[4] = {};  ///< x, y, z, m of the list to cull
  std::size_t n = 0;
  float lo[3] = {}, hi[3] = {};
  float rmax2 = 0.0f;
  float* out[4] = {};  ///< x, y, z, m, with room for n + 2W entries
};

namespace {

/// maxps's max: a > b ? a : b (b when either is NaN), at every width.
inline float max_ps(float a, float b) noexcept { return a > b ? a : b; }

/// The cull one entry at a time, for builds without the tile path. Same
/// arithmetic as cull_list, and the same branchless compaction: every
/// entry is written at k, and k advances past the kept ones.
std::size_t cull_scalar(const CullArgs& a) noexcept {
  std::size_t k = 0;
  for (std::size_t j = 0; j < a.n; ++j) {
    float g[3];
    for (std::size_t d = 0; d < 3; ++d)
      g[d] = max_ps(max_ps(a.lo[d] - a.in[d][j], a.in[d][j] - a.hi[d]), 0.0f);
    const float d2 = g[0] * g[0] + g[1] * g[1] + g[2] * g[2];
    for (std::size_t c = 0; c < 4; ++c) a.out[c][k] = a.in[c][j];
    k += d2 < a.rmax2 ? 1 : 0;
  }
  return k;
}

/// Zero-pad the gathered list to a `tile` multiple so tile passes need no
/// remainder handling. Zero mass => zero contribution; the branchless
/// filters keep even a coincident zero pad point finite.
std::size_t pad_list(NeighborList& list, std::size_t tile) {
  const std::size_t n = list.size();
  const std::size_t n_pad = (n + tile - 1) / tile * tile;
  for (std::size_t j = n; j < n_pad; ++j) {
    list.x.push_back(0.0f);
    list.y.push_back(0.0f);
    list.z.push_back(0.0f);
    list.m.push_back(0.0f);
  }
  return n_pad;
}

#if HACC_HAVE_VECTOR_EXT

// Per-ISA primitives: the vector type, sqrt, and the cutoff select. They
// are plain `inline` (not always_inline, which cannot cross the target
// boundary from the default-target template); each instance's flatten
// wrapper inlines them. The compare stays in here because a vector-
// extension compare written in the default-target template is scalarised
// at widths the baseline ISA lacks. Vectors pass by reference, updated in
// place: a wide vector passed or returned by value between the template
// and a primitive would change the ABI (-Wpsabi).

/// Store the lanes of v[0..4) set in `bits` at out[c] + k, in order, and
/// return k + their count: the narrow widths' compaction. Branchless: every
/// lane is written at k and k advances past the kept ones, so up to W
/// entries past the last kept one are written.
template <class V, std::size_t W>
inline std::size_t store_lanes(unsigned bits, const V (&v)[4],
                               float* const (&out)[4], std::size_t k) noexcept {
  float lane[4][W];
  std::memcpy(lane, v, sizeof(lane));
  for (std::size_t l = 0; l < W; ++l) {
    for (std::size_t c = 0; c < 4; ++c) out[c][k] = lane[c][l];
    k += (bits >> l) & 1u;
  }
  return k;
}

/// The build's baseline ISA, 4 lanes (SSE2 on x86-64).
struct Lanes4 {
  static constexpr std::size_t kLanes = 4;
  using V = float __attribute__((vector_size(16)));
  using M = std::int32_t __attribute__((vector_size(16)));

  /// v = sqrt(v).
  static inline void sqrt(V& v) noexcept {
#if defined(__SSE2__)
    v = (V)_mm_sqrt_ps((__m128)v);
#else
    for (std::size_t l = 0; l < kLanes; ++l) v[l] = std::sqrt(v[l]);
#endif
  }
  /// Keep f where 0 < s < rmax2, else +0.
  static inline void in_range(V& f, const V& s, const V& rmax2) noexcept {
    const M in = (s < rmax2) & (s > V{});
    f = (V)((M)f & in);
  }
  /// a = max(a, b) per lane, as maxps: a > b ? a : b.
  static inline void max(V& a, const V& b) noexcept {
#if defined(__SSE2__)
    a = (V)_mm_max_ps((__m128)a, (__m128)b);
#else
    for (std::size_t l = 0; l < kLanes; ++l) a[l] = a[l] > b[l] ? a[l] : b[l];
#endif
  }
  /// Bit l set where v[l] < bound[l].
  static inline unsigned below(const V& v, const V& bound) noexcept {
#if defined(__SSE2__)
    return static_cast<unsigned>(
        _mm_movemask_ps(_mm_cmplt_ps((__m128)v, (__m128)bound)));
#else
    unsigned bits = 0;
    for (std::size_t l = 0; l < kLanes; ++l)
      bits |= (v[l] < bound[l] ? 1u : 0u) << l;
    return bits;
#endif
  }
  static inline std::size_t store_kept(unsigned bits, const V (&v)[4],
                                       float* const (&out)[4],
                                       std::size_t k) noexcept {
    return store_lanes<V, kLanes>(bits, v, out, k);
  }
};

#if HACC_HAVE_WIDE_TILES
#define HACC_TARGET_AVX2 "avx2"
#define HACC_TARGET_AVX512 "avx512f,avx512dq,avx512bw,avx512vl"

struct Lanes8 {
  static constexpr std::size_t kLanes = 8;
  using V = float __attribute__((vector_size(32)));

  [[gnu::target(HACC_TARGET_AVX2)]] static inline void sqrt(V& v) noexcept {
    v = (V)_mm256_sqrt_ps((__m256)v);
  }
  [[gnu::target(HACC_TARGET_AVX2)]] static inline void in_range(
      V& f, const V& s, const V& rmax2) noexcept {
    const __m256 in =
        _mm256_and_ps(_mm256_cmp_ps((__m256)s, (__m256)rmax2, _CMP_LT_OQ),
                      _mm256_cmp_ps((__m256)s, _mm256_setzero_ps(),
                                    _CMP_GT_OQ));
    f = (V)_mm256_and_ps(in, (__m256)f);
  }
  [[gnu::target(HACC_TARGET_AVX2)]] static inline void max(
      V& a, const V& b) noexcept {
    a = (V)_mm256_max_ps((__m256)a, (__m256)b);
  }
  [[gnu::target(HACC_TARGET_AVX2)]] static inline unsigned below(
      const V& v, const V& bound) noexcept {
    return static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_cmp_ps((__m256)v, (__m256)bound, _CMP_LT_OQ)));
  }
  static inline std::size_t store_kept(unsigned bits, const V (&v)[4],
                                       float* const (&out)[4],
                                       std::size_t k) noexcept {
    return store_lanes<V, kLanes>(bits, v, out, k);
  }
};

struct Lanes16 {
  static constexpr std::size_t kLanes = 16;
  using V = float __attribute__((vector_size(64)));

  [[gnu::target(HACC_TARGET_AVX512)]] static inline void sqrt(V& v) noexcept {
    // maskz with every lane set is vsqrtps; _mm512_sqrt_ps's undefined
    // pass-through operand trips GCC 12's -Wmaybe-uninitialized.
    v = (V)_mm512_maskz_sqrt_ps(__mmask16(0xFFFF), (__m512)v);
  }
  [[gnu::target(HACC_TARGET_AVX512)]] static inline void in_range(
      V& f, const V& s, const V& rmax2) noexcept {
    const __mmask16 in =
        _mm512_cmp_ps_mask((__m512)s, (__m512)rmax2, _CMP_LT_OQ) &
        _mm512_cmp_ps_mask((__m512)s, _mm512_setzero_ps(), _CMP_GT_OQ);
    f = (V)_mm512_maskz_mov_ps(in, (__m512)f);
  }
  [[gnu::target(HACC_TARGET_AVX512)]] static inline void max(
      V& a, const V& b) noexcept {
    a = (V)_mm512_maskz_max_ps(__mmask16(0xFFFF), (__m512)a, (__m512)b);
  }
  [[gnu::target(HACC_TARGET_AVX512)]] static inline unsigned below(
      const V& v, const V& bound) noexcept {
    return _mm512_cmp_ps_mask((__m512)v, (__m512)bound, _CMP_LT_OQ);
  }
  /// vcompressps: the kept lanes packed low, stored as one full vector.
  [[gnu::target(HACC_TARGET_AVX512)]] static inline std::size_t store_kept(
      unsigned bits, const V (&v)[4], float* const (&out)[4],
      std::size_t k) noexcept {
    const auto keep = static_cast<__mmask16>(bits);
    for (std::size_t c = 0; c < 4; ++c)
      _mm512_storeu_ps(out[c] + k, _mm512_maskz_compress_ps(keep, (__m512)v[c]));
    return k + static_cast<std::size_t>(__builtin_popcount(bits));
  }
};
#endif  // HACC_HAVE_WIDE_TILES

/// v = p[0..W), unaligned.
template <class V>
inline void vload(V& v, const float* p) noexcept {
  std::memcpy(&v, p, sizeof(v));
}

/// Every lane of v = x.
template <class V, std::size_t W>
inline void vsplat(V& v, float x) noexcept {
  for (std::size_t l = 0; l < W; ++l) v[l] = x;
}

/// Deterministic horizontal sum of adjacent pairs, ((v0+v1)+(v2+v3)) at
/// W = 4 and the same tree at wider W (fixed association, run-to-run
/// stable).
template <class V, std::size_t W>
inline float hsum(const V& v) noexcept {
  float lane[W];
  std::memcpy(lane, &v, sizeof(lane));
  for (std::size_t w = W; w > 1; w /= 2)
    for (std::size_t k = 0; k < w / 2; ++k)
      lane[k] = lane[2 * k] + lane[2 * k + 1];
  return lane[0];
}

/// One interaction tile: forces of kTileTargets broadcast targets against
/// the whole padded neighbor list. Each pass loads one 2W-wide neighbor
/// tile (two W-wide vectors, the 2-fold unroll) and applies it to all four
/// targets from registers. Each pair's terms are evaluated exactly as in
/// evaluate_neighbor_list.
template <class Isa>
inline void evaluate_tile(TileArgs& a) noexcept {
  using V = typename Isa::V;
  constexpr std::size_t W = Isa::kLanes;
  const ShortRangeKernel& kernel = *a.kernel;
  const float *xn = a.xn, *yn = a.yn, *zn = a.zn, *mn = a.mn;
  V eps, rmax2, ms, one, c[6];
  vsplat<V, W>(eps, kernel.softening);
  vsplat<V, W>(rmax2, kernel.rmax2());
  vsplat<V, W>(ms, a.mass_scale);
  vsplat<V, W>(one, 1.0f);
  for (std::size_t k = 0; k < 6; ++k) vsplat<V, W>(c[k], kernel.fgrid.c[k]);

  V xi[kTileTargets], yi[kTileTargets], zi[kTileTargets];
  V accx[kTileTargets], accy[kTileTargets], accz[kTileTargets];
  for (std::size_t t = 0; t < kTileTargets; ++t) {
    vsplat<V, W>(xi[t], a.tx[t]);
    vsplat<V, W>(yi[t], a.ty[t]);
    vsplat<V, W>(zi[t], a.tz[t]);
    accx[t] = accy[t] = accz[t] = V{};
  }

  V nxA, nxB, nyA, nyB, nzA, nzB, nmA, nmB;
  for (std::size_t j = 0; j < a.n_pad; j += 2 * W) {
    // The neighbor tile: loaded once, reused by every target below.
    vload(nxA, xn + j);
    vload(nxB, xn + j + W);
    vload(nyA, yn + j);
    vload(nyB, yn + j + W);
    vload(nzA, zn + j);
    vload(nzB, zn + j + W);
    vload(nmA, mn + j);
    vload(nmB, mn + j + W);
    nmA *= ms;
    nmB *= ms;

#pragma GCC unroll 4
    for (std::size_t t = 0; t < kTileTargets; ++t) {
      const V dxA = nxA - xi[t], dxB = nxB - xi[t];
      const V dyA = nyA - yi[t], dyB = nyB - yi[t];
      const V dzA = nzA - zi[t], dzB = nzB - zi[t];
      const V sA = dxA * dxA + dyA * dyA + dzA * dzA;
      const V sB = dxB * dxB + dyB * dyB + dzB * dzB;
      V rootA = sA + eps, rootB = sB + eps;
      Isa::sqrt(rootA);
      Isa::sqrt(rootB);
      const V invA = one / rootA, invB = one / rootB;
      const V newtA = invA * invA * invA, newtB = invB * invB * invB;
      // Horner, both unroll halves interleaved.
      V pA = c[5], pB = c[5];
      pA = pA * sA + c[4];
      pB = pB * sB + c[4];
      pA = pA * sA + c[3];
      pB = pB * sB + c[3];
      pA = pA * sA + c[2];
      pB = pB * sB + c[2];
      pA = pA * sA + c[1];
      pB = pB * sB + c[1];
      pA = pA * sA + c[0];
      pB = pB * sB + c[0];
      // Branchless cutoff: zero the lanes outside (0, rmax^2) — the
      // vector-select (QPX fsel) idiom. Masking also squashes the inf at
      // s == 0 with zero softening before it can reach the accumulator.
      V fA = newtA - pA, fB = newtB - pB;
      Isa::in_range(fA, sA, rmax2);
      Isa::in_range(fB, sB, rmax2);
      const V wA = nmA * fA, wB = nmB * fB;
      accx[t] += wA * dxA + wB * dxB;
      accy[t] += wA * dyA + wB * dyB;
      accz[t] += wA * dzA + wB * dzB;
    }
  }
  for (std::size_t t = 0; t < kTileTargets; ++t) {
    a.fx[t] = hsum<V, W>(accx[t]);
    a.fy[t] = hsum<V, W>(accy[t]);
    a.fz[t] = hsum<V, W>(accz[t]);
  }
}

/// The cull at width W (see the header): keep entry j iff its squared
/// distance to the box is below rmax2, with cull_scalar's arithmetic. A
/// ragged last pass loads a zero-padded copy and masks its dead lanes, so
/// nothing past the input's end is read.
template <class Isa>
inline std::size_t cull_list(const CullArgs& a) noexcept {
  using V = typename Isa::V;
  constexpr std::size_t W = Isa::kLanes;
  V lo[3], hi[3], rmax2, zero{};
  for (std::size_t d = 0; d < 3; ++d) {
    vsplat<V, W>(lo[d], a.lo[d]);
    vsplat<V, W>(hi[d], a.hi[d]);
  }
  vsplat<V, W>(rmax2, a.rmax2);
  std::size_t k = 0;
  for (std::size_t j = 0; j < a.n; j += W) {
    const std::size_t live = std::min(W, a.n - j);
    V v[4];
    if (live == W) {
      for (std::size_t c = 0; c < 4; ++c) vload(v[c], a.in[c] + j);
    } else {
      float tail[4][W] = {};
      for (std::size_t c = 0; c < 4; ++c) {
        std::copy_n(a.in[c] + j, live, tail[c]);
        vload(v[c], tail[c]);
      }
    }
    V g[3];
    for (std::size_t d = 0; d < 3; ++d) {
      g[d] = lo[d] - v[d];
      const V past = v[d] - hi[d];
      Isa::max(g[d], past);
      Isa::max(g[d], zero);
    }
    const V d2 = g[0] * g[0] + g[1] * g[1] + g[2] * g[2];
    unsigned bits = Isa::below(d2, rmax2);
    if (live < W) bits &= (1u << live) - 1u;
    k = Isa::store_kept(bits, v, a.out, k);
  }
  return k;
}

// One instance per ISA: flatten inlines the template and its primitives
// into a function compiled for that ISA.
[[gnu::flatten]] void tile_baseline(TileArgs& a) noexcept {
  evaluate_tile<Lanes4>(a);
}
[[gnu::flatten]] std::size_t cull_baseline(const CullArgs& a) noexcept {
  return cull_list<Lanes4>(a);
}

#if HACC_HAVE_WIDE_TILES
[[gnu::target(HACC_TARGET_AVX2), gnu::flatten]] void tile_avx2(
    TileArgs& a) noexcept {
  evaluate_tile<Lanes8>(a);
}
[[gnu::target(HACC_TARGET_AVX2), gnu::flatten]] std::size_t cull_avx2(
    const CullArgs& a) noexcept {
  return cull_list<Lanes8>(a);
}

[[gnu::target(HACC_TARGET_AVX512), gnu::flatten]] void tile_avx512(
    TileArgs& a) noexcept {
  evaluate_tile<Lanes16>(a);
}
[[gnu::target(HACC_TARGET_AVX512), gnu::flatten]] std::size_t cull_avx512(
    const CullArgs& a) noexcept {
  return cull_list<Lanes16>(a);
}
#endif

/// Every compiled instance, narrowest first. Each needs the ISA of the one
/// before it, so the instances a host runs are a prefix.
constexpr TileKernel kTileKernels[] = {
    {"baseline", Lanes4::kLanes, &tile_baseline, &cull_baseline},
#if HACC_HAVE_WIDE_TILES
    {"avx2", Lanes8::kLanes, &tile_avx2, &cull_avx2},
    {"avx512", Lanes16::kLanes, &tile_avx512, &cull_avx512},
#endif
};

std::size_t runnable_tile_kernels() noexcept {
  std::size_t n = 1;
#if HACC_HAVE_WIDE_TILES
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) {
    n = 2;
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512dq") &&
        __builtin_cpu_supports("avx512bw") &&
        __builtin_cpu_supports("avx512vl"))
      n = 3;
  }
#endif
  return n;
}

#endif  // HACC_HAVE_VECTOR_EXT

}  // namespace

std::span<const TileKernel> tile_kernels() noexcept {
#if HACC_HAVE_VECTOR_EXT
  static const std::size_t n = runnable_tile_kernels();
  return {kTileKernels, n};
#else
  return {};
#endif
}

const TileKernel* tile_kernel_for(KernelVariant variant) noexcept {
  const auto tiles = tile_kernels();
  return variant == KernelVariant::kBatched && !tiles.empty() ? &tiles.back()
                                                              : nullptr;
}

namespace {

/// Run `cull` from `in` into `out`. `out` is first sized for the input plus
/// `overhang`, the entries a cull may write past its last kept one (and
/// the tile kernel's padding after them), then cut to the kept count, so
/// nothing is written past its size().
void run_cull(std::size_t (*cull)(const CullArgs&) noexcept,
              std::size_t overhang, const NeighborList& in, const Node& box,
              float rmax2, NeighborList& out) {
  const std::size_t n = in.size();
  for (auto* v : {&out.x, &out.y, &out.z, &out.m}) v->resize(n + overhang);
  CullArgs args{.in = {in.x.data(), in.y.data(), in.z.data(), in.m.data()},
                .n = n,
                .lo = {box.lo[0], box.lo[1], box.lo[2]},
                .hi = {box.hi[0], box.hi[1], box.hi[2]},
                .rmax2 = rmax2,
                .out = {out.x.data(), out.y.data(), out.z.data(),
                        out.m.data()}};
  const std::size_t kept = cull(args);
  for (auto* v : {&out.x, &out.y, &out.z, &out.m}) v->resize(kept);
}

}  // namespace

void cull_neighbors(const TileKernel& tile, const NeighborList& in,
                    const Node& box, float rmax2, NeighborList& out) {
  run_cull(tile.cull, tile.tile_neighbors(), in, box, rmax2, out);
}

void cull_neighbors(const NeighborList& in, const Node& box, float rmax2,
                    NeighborList& out) {
  if (const TileKernel* tile = tile_kernel_for(KernelVariant::kBatched)) {
    cull_neighbors(*tile, in, box, rmax2, out);
    return;
  }
  run_cull(&cull_scalar, 0, in, box, rmax2, out);
}

// Targets are blocked into tiles of kTileTargets. Padding lanes of a ragged
// final tile replicate the last target and their results are discarded.
void evaluate_leaf(const TileKernel& tile, const ShortRangeKernel& kernel,
                   const ParticleArray& p, std::uint32_t first,
                   std::uint32_t count, NeighborList& list, float mass_scale,
                   std::span<float> ax, std::span<float> ay,
                   std::span<float> az) {
  const std::size_t n_pad = pad_list(list, tile.tile_neighbors());
  TileArgs args{.kernel = &kernel,
                .mass_scale = mass_scale,
                .xn = list.x.data(),
                .yn = list.y.data(),
                .zn = list.z.data(),
                .mn = list.m.data(),
                .n_pad = n_pad};
  const std::size_t end = std::size_t{first} + count;
  for (std::size_t t0 = first; t0 < end; t0 += kTileTargets) {
    const std::size_t nt = std::min(kTileTargets, end - t0);
    for (std::size_t k = 0; k < kTileTargets; ++k) {
      const std::size_t i = t0 + std::min(k, nt - 1);
      args.tx[k] = p.x[i];
      args.ty[k] = p.y[i];
      args.tz[k] = p.z[i];
    }
    tile.fn(args);
    for (std::size_t k = 0; k < nt; ++k) {
      ax[t0 + k] = args.fx[k];
      ay[t0 + k] = args.fy[k];
      az[t0 + k] = args.fz[k];
    }
  }
}

void evaluate_leaf(KernelVariant variant, const ShortRangeKernel& kernel,
                   const ParticleArray& p, std::uint32_t first,
                   std::uint32_t count, NeighborList& list, float mass_scale,
                   std::span<float> ax, std::span<float> ay,
                   std::span<float> az) {
  if (const TileKernel* tile = tile_kernel_for(variant)) {
    evaluate_leaf(*tile, kernel, p, first, count, list, mass_scale, ax, ay,
                  az);
    return;
  }
  for (std::size_t i = first; i < std::size_t{first} + count; ++i) {
    const Force3 f = evaluate_neighbor_list(
        kernel, p.x[i], p.y[i], p.z[i], list.x.data(), list.y.data(),
        list.z.data(), list.m.data(), list.size(), mass_scale);
    ax[i] = f.x;
    ay[i] = f.y;
    az[i] = f.z;
  }
}

}  // namespace hacc::tree
