#include "tree/direct.h"

namespace hacc::tree {

void direct_short_range(const ParticleArray& p, const ShortRangeKernel& kernel,
                        std::span<float> ax, std::span<float> ay,
                        std::span<float> az, float mass_scale) {
  const std::size_t n = p.size();
  HACC_CHECK(ax.size() == n && ay.size() == n && az.size() == n);
  for (std::size_t i = 0; i < n; ++i) {
    float fx = 0, fy = 0, fz = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const float dx = p.x[j] - p.x[i];
      const float dy = p.y[j] - p.y[i];
      const float dz = p.z[j] - p.z[i];
      const float s = dx * dx + dy * dy + dz * dz;
      const float f = kernel.fsr(s) * p.mass[j] * mass_scale;
      fx += f * dx;
      fy += f * dy;
      fz += f * dz;
    }
    ax[i] = fx;
    ay[i] = fy;
    az[i] = fz;
  }
}

}  // namespace hacc::tree
