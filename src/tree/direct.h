// Direct O(N^2) short-range force summation: the correctness oracle for
// the short-range solvers (the RCB tree and the P3M chaining mesh). Both
// gather *every* particle within the hand-over radius, so they must agree
// with it to float round-off.
#pragma once

#include <span>

#include "tree/force_kernel.h"
#include "tree/particles.h"

namespace hacc::tree {

/// Direct evaluation of the short-range kernel over all pairs.
void direct_short_range(const ParticleArray& p, const ShortRangeKernel& kernel,
                        std::span<float> ax, std::span<float> ay,
                        std::span<float> az, float mass_scale = 1.0f);

}  // namespace hacc::tree
