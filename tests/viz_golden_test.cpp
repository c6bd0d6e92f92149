// Golden outputs of the visualization kernels that the monitor loop runs
// every frame and the cost-model calibration times at start-up: isosurface
// extraction (positions, normals, indices and the per-class histograms),
// mesh rendering and ray casting. Each case folds its output into one
// CRC-32, chained over its runs. The values were recorded before the
// kernels' sampler, normal cache and rasterizer set-up were made faster,
// so a speed-up that moves one bit of a mesh or an image fails here.
// Pooled runs must give the serial bits. The jet, rage and sphere volumes
// and every camera go through libm's float exp, sin, cos and tan; the
// values were recorded with GCC 12 on glibc 2.36. The noise volumes use
// only the seeded generator.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "data/generators.hpp"
#include "data/octree.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"
#include "viz/image.hpp"
#include "viz/isosurface.hpp"
#include "viz/rasterizer.hpp"
#include "viz/raycast.hpp"

namespace d = ricsa::data;
namespace v = ricsa::viz;

namespace {

template <typename T>
std::uint32_t crc_of(const T* data, std::size_t n, std::uint32_t crc) {
  return v::crc32(reinterpret_cast<const std::uint8_t*>(data), n * sizeof(T),
                  crc);
}

template <typename T>
std::uint32_t crc_of(const std::vector<T>& values, std::uint32_t crc) {
  return crc_of(values.data(), values.size(), crc);
}

std::uint32_t crc_of(const v::IsosurfaceResult& r, std::uint32_t crc) {
  crc = crc_of(r.mesh.positions(), crc);
  crc = crc_of(r.mesh.normals(), crc);
  crc = crc_of(r.mesh.indices(), crc);
  crc = crc_of(r.stats.class_cells.data(), r.stats.class_cells.size(), crc);
  crc = crc_of(r.stats.class_triangles.data(), r.stats.class_triangles.size(),
               crc);
  const std::array<std::uint64_t, 4> counts = {
      r.stats.blocks_total, r.stats.blocks_active, r.stats.cells_scanned,
      r.stats.triangles};
  return crc_of(counts.data(), counts.size(), crc);
}

std::uint32_t crc_of(const v::Image& image, std::size_t a, std::size_t b,
                     std::uint32_t crc) {
  crc = crc_of(image.pixels(), crc);
  const std::array<std::uint64_t, 2> counts = {a, b};
  return crc_of(counts.data(), counts.size(), crc);
}

/// Uniform noise in [0, 1), or its rounding to {0, 1} when `binary`. A
/// binary field has isosurface vertices where the central-difference
/// gradient is exactly zero, so its meshes carry flat fallback normals.
d::ScalarVolume noise_volume(int nx, int ny, int nz, std::uint64_t seed,
                             bool binary) {
  d::ScalarVolume vol(nx, ny, nz);
  ricsa::util::Xoshiro256 rng(seed);
  for (float& value : vol.raw()) {
    value = static_cast<float>(rng.uniform());
    if (binary) value = value < 0.5f ? 0.0f : 1.0f;
  }
  return vol;
}

struct VolumeCase {
  const char* name;
  d::ScalarVolume volume;
  std::vector<float> isovalues;
};

/// Jet and rage at the start-up calibration's size and isovalues (the
/// middles of three equal bands of the value range), a sphere, seeded
/// noise on a non-cubic grid, and binary noise.
std::vector<VolumeCase> volume_cases() {
  std::vector<VolumeCase> cases;
  for (auto [name, vol] :
       {std::pair{"jet", d::make_jet(24, 24, 24)},
        std::pair{"rage", d::make_rage(24, 24, 24)}}) {
    const auto [lo, hi] = vol.min_max();
    std::vector<float> isos;
    for (int s = 0; s < 3; ++s) {
      isos.push_back(lo + (hi - lo) * (static_cast<float>(s) + 0.5f) / 3.0f);
    }
    cases.push_back({name, std::move(vol), isos});
  }
  cases.push_back({"sphere", d::make_sphere(33, 12.5f), {-2.0f, 0.0f, 3.3f}});
  cases.push_back(
      {"noise", noise_volume(19, 13, 23, 21, false), {0.3f, 0.5f, 0.71f}});
  cases.push_back({"binary", noise_volume(17, 16, 15, 22, true), {0.5f}});
  return cases;
}

}  // namespace

TEST(KernelGolden, IsosurfaceOutputIsPinned) {
  struct Expected {
    std::uint32_t gradient_crc;  // gradient normals
    std::uint32_t flat_crc;      // flat face normals
    std::size_t triangles;       // per block size, over the isovalues
  };
  static const Expected kExpected[] = {
      {0x25a2b184u, 0x3c3e98f1u, 20994},  // jet
      {0x893f2581u, 0x296475c8u, 36216},  // rage
      {0x07c49987u, 0xe58ffc2cu, 50832},  // sphere
      {0x87e1571bu, 0xe8b074aau, 92566},  // noise
      {0x57eedb2eu, 0x09c1e15cu, 25032},  // binary
  };
  const std::vector<VolumeCase> cases = volume_cases();
  ASSERT_EQ(cases.size(), std::size(kExpected));
  ricsa::util::ThreadPool pool(3);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const VolumeCase& c = cases[i];
    for (const bool gradient : {true, false}) {
      std::uint32_t crc = 0;
      std::size_t triangles = 0;
      for (const int block_size : {16, 7}) {
        const d::BlockDecomposition blocks(c.volume, block_size);
        for (const float iso : c.isovalues) {
          SCOPED_TRACE(std::string(c.name) + " block " +
                       std::to_string(block_size) + " iso " +
                       std::to_string(iso));
          v::IsosurfaceOptions opt;
          opt.block_size = block_size;
          opt.gradient_normals = gradient;
          const auto serial = v::extract_isosurface(c.volume, blocks, iso, opt);
          opt.pool = &pool;
          const auto pooled = v::extract_isosurface(c.volume, iso, opt);
          EXPECT_EQ(crc_of(pooled, 0), crc_of(serial, 0));
          crc = crc_of(serial, crc);
          if (block_size == 16) triangles += serial.mesh.triangle_count();
        }
      }
      const Expected& e = kExpected[i];
      EXPECT_EQ(crc, gradient ? e.gradient_crc : e.flat_crc)
          << c.name << (gradient ? " gradient" : " flat") << " crc 0x"
          << std::hex << crc << std::dec << ", " << triangles << " triangles";
      EXPECT_EQ(triangles, e.triangles) << c.name;
    }
  }
}

TEST(KernelGolden, RenderMeshImagesArePinned) {
  struct Expected {
    std::uint32_t crc;
    std::size_t pixels_shaded;
  };
  // Per volume: the 128x128 renders the calibration times (default
  // camera), then 97x61 renders from another camera.
  static const Expected kExpected[] = {
      {0x78a8c0cdu, 15341},  // jet
      {0xa48fb9afu, 31482},  // rage
      {0xb93672e7u, 22081},  // sphere
      {0xfea7f7a3u, 64396},  // noise
      {0x94210875u, 25876},  // binary
  };
  const std::vector<VolumeCase> cases = volume_cases();
  ASSERT_EQ(cases.size(), std::size(kExpected));
  ricsa::util::ThreadPool pool(3);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const VolumeCase& c = cases[i];
    std::uint32_t crc = 0;
    std::size_t shaded = 0;
    for (const float iso : c.isovalues) {
      const v::TriangleMesh mesh = v::extract_isosurface(c.volume, iso).mesh;
      v::RenderOptions square;
      square.width = 128;
      square.height = 128;
      v::RenderOptions odd;
      odd.width = 97;
      odd.height = 61;
      odd.azimuth = 2.2f;
      odd.elevation = -0.5f;
      odd.distance = 1.9f;
      for (v::RenderOptions opt : {square, odd}) {
        SCOPED_TRACE(std::string(c.name) + " " + std::to_string(opt.width) +
                     "x" + std::to_string(opt.height) + " iso " +
                     std::to_string(iso));
        const auto serial = v::render_mesh(mesh, opt);
        opt.pool = &pool;
        const auto pooled = v::render_mesh(mesh, opt);
        EXPECT_EQ(pooled.image.pixels(), serial.image.pixels());
        EXPECT_EQ(pooled.triangles_drawn, serial.triangles_drawn);
        EXPECT_EQ(pooled.pixels_shaded, serial.pixels_shaded);
        crc = crc_of(serial.image, serial.triangles_drawn,
                     serial.pixels_shaded, crc);
        shaded += serial.pixels_shaded;
      }
    }
    EXPECT_EQ(crc, kExpected[i].crc) << c.name << " crc 0x" << std::hex << crc
                                     << std::dec << ", " << shaded << " pixels";
    EXPECT_EQ(shaded, kExpected[i].pixels_shaded) << c.name;
  }
}

TEST(KernelGolden, RayCastImagesArePinned) {
  struct Expected {
    std::uint32_t crc;
    std::size_t samples;
  };
  // Per volume: the calibration's 32x32 cast (default camera, value-range
  // preset), then a 45x37 cast from another camera with early
  // termination.
  static const Expected kExpected[] = {
      {0x4d12076eu, 23220},  // jet
      {0xa81905ccu, 24298},  // rage
      {0xf90f1871u, 31705},  // sphere
      {0x6b98a8c4u, 16011},  // noise
      {0x65b43cc9u, 16018},  // binary
  };
  const std::vector<VolumeCase> cases = volume_cases();
  ASSERT_EQ(cases.size(), std::size(kExpected));
  ricsa::util::ThreadPool pool(3);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const VolumeCase& c = cases[i];
    const auto [lo, hi] = c.volume.min_max();
    const v::TransferFunction tf = v::TransferFunction::preset(lo, hi);
    v::RayCastOptions square;
    square.width = 32;
    square.height = 32;
    v::RayCastOptions odd;
    odd.width = 45;
    odd.height = 37;
    odd.azimuth = -1.3f;
    odd.elevation = 0.9f;
    odd.step = 0.7f;
    odd.early_termination = true;
    std::uint32_t crc = 0;
    std::size_t samples = 0;
    for (v::RayCastOptions opt : {square, odd}) {
      SCOPED_TRACE(std::string(c.name) + " " + std::to_string(opt.width) +
                   "x" + std::to_string(opt.height));
      const auto serial = v::raycast(c.volume, tf, opt);
      opt.pool = &pool;
      const auto pooled = v::raycast(c.volume, tf, opt);
      EXPECT_EQ(pooled.image.pixels(), serial.image.pixels());
      EXPECT_EQ(pooled.samples, serial.samples);
      crc = crc_of(serial.image, serial.rays, serial.samples, crc);
      samples += serial.samples;
    }
    EXPECT_EQ(crc, kExpected[i].crc) << c.name << " crc 0x" << std::hex << crc
                                     << std::dec << ", " << samples << " samples";
    EXPECT_EQ(samples, kExpected[i].samples) << c.name;
  }
}
