// Tests for density imaging (projection weights, scaling, file formats).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "io/image.h"

namespace hacc::io {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const char* name) {
  return (fs::temp_directory_path() / name).string();
}

// ---- imaging ----------------------------------------------------------------

TEST(Image, ProjectionConservesSlabMass) {
  std::vector<float> x{2.5f, 8.0f, 12.25f}, y{3.5f, 9.0f, 1.75f},
      z{1.0f, 5.0f, 14.0f};
  SliceSpec spec;
  spec.box = 16.0;
  spec.axis = 2;
  spec.slab_lo = 0.0;
  spec.slab_hi = 8.0;  // includes z = 1 and 5, excludes 14
  spec.pixels = 64;
  const Image2D img = project_slice(x, y, z, spec);
  double total = 0;
  for (double v : img.pixels) total += v;
  EXPECT_NEAR(total, 2.0, 1e-9);
}

TEST(Image, WindowZoomSelectsParticles) {
  std::vector<float> x{2.0f, 12.0f}, y{2.0f, 12.0f}, z{1.0f, 1.0f};
  SliceSpec spec;
  spec.box = 16.0;
  spec.slab_lo = 0.0;
  spec.slab_hi = 2.0;
  spec.win_lo0 = 0.0;
  spec.win_hi0 = 8.0;
  spec.win_lo1 = 0.0;
  spec.win_hi1 = 8.0;
  spec.pixels = 32;
  const Image2D img = project_slice(x, y, z, spec);
  double total = 0;
  for (double v : img.pixels) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);  // only the (2,2) particle is in view
}

TEST(Image, LogScaleNormalizesToUnit) {
  Image2D img;
  img.width = img.height = 4;
  img.pixels.assign(16, 0.0);
  img.at(1, 1) = 100.0;
  img.at(2, 2) = 10.0;
  const Image2D out = log_scale(img);
  double vmax = 0;
  for (double v : out.pixels) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
    vmax = std::max(vmax, v);
  }
  EXPECT_DOUBLE_EQ(vmax, 1.0);
  EXPECT_GT(out.at(1, 1), out.at(2, 2));
}

TEST(Image, LogScaleOfEmptyImageIsZero) {
  Image2D img;
  img.width = img.height = 2;
  img.pixels.assign(4, 0.0);
  const Image2D out = log_scale(img);
  for (double v : out.pixels) EXPECT_EQ(v, 0.0);
}

TEST(Image, WritesValidPgmAndPpm) {
  Image2D img;
  img.width = 3;
  img.height = 2;
  img.pixels = {0.0, 0.5, 1.0, 0.25, 0.75, 0.1};
  const std::string pgm = temp_path("hacc_img.pgm");
  const std::string ppm = temp_path("hacc_img.ppm");
  write_pgm(pgm, img);
  write_ppm(ppm, img);
  // Header + exact payload sizes.
  EXPECT_EQ(fs::file_size(pgm), std::string("P5\n3 2\n255\n").size() + 6);
  EXPECT_EQ(fs::file_size(ppm), std::string("P6\n3 2\n255\n").size() + 18);
  fs::remove(pgm);
  fs::remove(ppm);
}

}  // namespace
}  // namespace hacc::io
