// The tuned short-range force kernel (paper Sec. III).
//
// The short-range interaction between a target particle and one neighbor at
// squared separation s = r.r is
//
//     f_SR(s) = (s + eps)^(-3/2) - poly5(s),        0 < s < rmax^2,
//
// where poly5 is a degree-5 polynomial fit of the *filtered grid force*
// f_grid (the long-range solver's two-particle response), so that the total
// force (PM + short-range) reproduces the exact Newtonian force. Beyond the
// hand-over scale rmax = 3 grid spacings the two contributions cancel by
// construction and the kernel returns zero.
//
// The kernel is engineered the way the paper describes:
//  * neighbors are pre-gathered into contiguous, aligned arrays so the loop
//    needs only unit-stride vector loads;
//  * the cutoff conditions are evaluated branchlessly inside the loop
//    (ternary operators -> vector selects, the QPX `fsel` idiom);
//  * everything is single precision;
//  * the per-interaction operation count mirrors the paper's 26-instruction
//    /168-flop accounting (see src/perfmodel/kernel_model.h).
#pragma once

#include <array>
#include <cstddef>
#include <span>

namespace hacc::tree {

/// Degree-5 polynomial in s (lowest-order coefficient first), single
/// precision evaluation by Horner.
struct Poly5 {
  std::array<float, 6> c{};

  float operator()(float s) const noexcept {
    float v = c[5];
    v = v * s + c[4];
    v = v * s + c[3];
    v = v * s + c[2];
    v = v * s + c[1];
    v = v * s + c[0];
    return v;
  }
};

/// Parameters of the short-range interaction.
struct ShortRangeKernel {
  Poly5 fgrid;          ///< fitted filtered-grid-force polynomial in s
  float softening = 0.1f;  ///< eps: short-distance Plummer-like cutoff (s+eps)
  float rmax = 3.0f;       ///< hand-over radius in grid units

  float rmax2() const noexcept { return rmax * rmax; }

  /// Scalar f_SR(s): force magnitude per unit separation vector and unit
  /// masses (force vector = m_i * m_j * f_SR(s) * (x_j - x_i)).
  float fsr(float s) const noexcept;
};

/// Accumulated force (acceleration x mass) on one target particle.
struct Force3 {
  float x = 0, y = 0, z = 0;
};

/// Which implementation of the short-range inner loop to run.
///  kScalar  — one target per pass over the neighbor list, `omp simd`
///             vectorized (the portable reference; bit-for-bit stable).
///  kBatched — tile-batched explicit-vector kernel (interaction_batch.h):
///             4 targets share each 2W-neighbor tile, at the widest vector
///             ISA the host runs (W = 4, 8 or 16 lanes). Each pair's
///             arithmetic is the scalar loop's; only the float-summation
///             order differs.
enum class KernelVariant { kScalar, kBatched };

/// Parse "scalar"/"batched" (else `fallback`).
KernelVariant parse_kernel_variant(const char* name,
                                   KernelVariant fallback) noexcept;
/// The HACC_KERNEL environment override ("scalar"|"batched"), else
/// `fallback`. Read afresh on every call so tests can flip it.
KernelVariant kernel_variant_from_env(
    KernelVariant fallback = KernelVariant::kBatched) noexcept;
/// Default for call sites that take no explicit choice: HACC_KERNEL if set,
/// otherwise the batched kernel.
KernelVariant default_kernel_variant() noexcept;
const char* kernel_variant_name(KernelVariant v) noexcept;

/// THE inner loop: force on the target at (xi, yi, zi) from `n` neighbors
/// given by contiguous arrays xn/yn/zn/mn (64-byte aligned, pre-gathered by
/// the tree walk). Self-interactions are suppressed by the s > 0 filter.
/// Neighbor masses are scaled by `mass_scale` inside the loop (folded into
/// the kernel, not a separate rewrite pass over the list).
/// Returns sum_j (mass_scale m_j) f_SR(s_j) (x_j - x_i).
Force3 evaluate_neighbor_list(const ShortRangeKernel& kernel, float xi,
                              float yi, float zi, const float* xn,
                              const float* yn, const float* zn,
                              const float* mn, std::size_t n,
                              float mass_scale = 1.0f) noexcept;

/// Exact Newtonian pair scalar with the same softening:
/// (s + eps)^(-3/2); the short-range kernel minus this is -poly5.
float newtonian_fscalar(float s, float softening) noexcept;

/// Flop count per particle-neighbor interaction, for performance
/// accounting. The paper's BG/Q kernel iteration is 26 instructions (16 of
/// them FMAs) processing one 4-wide QPX vector = 4 interactions for 168
/// flops, i.e. 42 flops per interaction. Benchmarks and the performance
/// model both use this number.
inline constexpr double kFlopsPerInteraction = 42.0;

}  // namespace hacc::tree
