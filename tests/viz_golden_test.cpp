// Golden outputs of the visualization kernels that the monitor loop runs
// every frame and the cost-model calibration times at start-up: isosurface
// extraction (positions, normals, indices and the per-class histograms),
// mesh rendering and ray casting. Each case folds its output into one
// CRC-32, chained over its runs. The values were recorded before the
// kernels' sampler, normal cache and rasterizer set-up were made faster,
// and before the extractor shared vertices (meshes are hashed as the
// triangle soup they index), so a speed-up that moves one bit of a mesh
// or an image fails here.
// Pooled runs must give the serial bits. The jet, rage and sphere volumes
// and every camera go through libm's float exp, sin, cos and tan; the
// values were recorded with GCC 12 on glibc 2.36. The noise volumes use
// only the seeded generator.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
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

/// The vertex layout of a mesh: its positions, normals and indices as
/// stored.
std::uint32_t crc_of(const v::TriangleMesh& mesh, std::uint32_t crc) {
  crc = crc_of(mesh.positions(), crc);
  crc = crc_of(mesh.normals(), crc);
  return crc_of(mesh.indices(), crc);
}

/// An extraction, its mesh hashed as the triangle soup it indexes: each
/// index's position, each index's normal, then the indices 0..n-1. The
/// values were recorded when the extractor emitted that soup, so they hold
/// whichever vertices it shares.
std::uint32_t crc_of(const v::IsosurfaceResult& r, std::uint32_t crc) {
  const std::vector<std::uint32_t>& indices = r.mesh.indices();
  std::vector<d::Vec3> positions, normals;
  std::vector<std::uint32_t> order(indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    positions.push_back(r.mesh.positions()[indices[i]]);
    normals.push_back(r.mesh.normals()[indices[i]]);
    order[i] = static_cast<std::uint32_t>(i);
  }
  crc = crc_of(positions, crc);
  crc = crc_of(normals, crc);
  crc = crc_of(order, crc);
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
    // Vertices with gradient normals, over the same meshes: one per
    // (z-slab, lattice segment), and one per corner whose gradient
    // vanishes. With flat normals every corner has its own.
    std::size_t gradient_vertices;
  };
  static const Expected kExpected[] = {
      {0x25a2b184u, 0x3c3e98f1u, 20994, 15824},  // jet
      {0x893f2581u, 0x296475c8u, 36216, 26204},  // rage
      {0x07c49987u, 0xe58ffc2cu, 50832, 36382},  // sphere
      {0x87e1571bu, 0xe8b074aau, 92566, 67846},  // noise
      {0x57eedb2eu, 0x09c1e15cu, 25032, 18572},  // binary
  };
  const std::vector<VolumeCase> cases = volume_cases();
  ASSERT_EQ(cases.size(), std::size(kExpected));
  ricsa::util::ThreadPool pool(3);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const VolumeCase& c = cases[i];
    for (const bool gradient : {true, false}) {
      std::uint32_t crc = 0;
      std::size_t triangles = 0;
      std::size_t vertices = 0;
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
          EXPECT_EQ(crc_of(pooled.mesh, 0), crc_of(serial.mesh, 0));
          EXPECT_EQ(crc_of(pooled, 0), crc_of(serial, 0));
          crc = crc_of(serial, crc);
          if (block_size == 16) {
            triangles += serial.mesh.triangle_count();
            vertices += serial.mesh.vertex_count();
          }
        }
      }
      const Expected& e = kExpected[i];
      EXPECT_EQ(crc, gradient ? e.gradient_crc : e.flat_crc)
          << c.name << (gradient ? " gradient" : " flat") << " crc 0x"
          << std::hex << crc << std::dec << ", " << triangles << " triangles, "
          << vertices << " vertices";
      EXPECT_EQ(triangles, e.triangles) << c.name;
      EXPECT_EQ(vertices, gradient ? e.gradient_vertices : 3 * e.triangles)
          << c.name << (gradient ? " gradient" : " flat");
      if (gradient) {
        EXPECT_LT(vertices, triangles) << c.name;
      }
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

namespace {

/// render_mesh with the triangle set-up it had before its box was cut to
/// the pixel centres the bounds hold: serial, and each triangle tests
/// every pixel of its floor(min)..ceil(max) box, in index order. The
/// camera, vertex stage and per-pixel arithmetic are render_mesh's.
/// `centreless` counts the drawn triangles whose bounds hold no centre.
v::RenderResult render_whole_box(const v::TriangleMesh& mesh,
                                 const v::RenderOptions& opt,
                                 std::size_t* centreless = nullptr) {
  v::RenderResult result;
  result.image = v::Image(opt.width, opt.height, opt.background);
  if (mesh.triangle_count() == 0) return result;

  const auto [lo, hi] = mesh.bounds();
  const d::Vec3 center = (lo + hi) * 0.5f;
  const float radius = std::max(1e-3f, ((hi - lo) * 0.5f).norm());
  const d::Vec3 eye =
      center + d::Vec3{std::cos(opt.elevation) * std::cos(opt.azimuth),
                       std::cos(opt.elevation) * std::sin(opt.azimuth),
                       std::sin(opt.elevation)} *
                   (radius * opt.distance);
  const v::Mat4 mvp =
      v::Mat4::perspective(
          opt.fov_y,
          static_cast<float>(opt.width) / static_cast<float>(opt.height),
          0.1f * radius, 10.0f * radius) *
      v::Mat4::look_at(eye, center, d::Vec3{0, 0, 1});
  const d::Vec3 light = opt.light_dir.normalized();

  const std::size_t nv = mesh.vertex_count();
  std::vector<d::Vec3> screen(nv);
  std::vector<float> shade(nv);
  std::vector<bool> valid(nv);
  const auto width = static_cast<float>(opt.width);
  const auto height = static_cast<float>(opt.height);
  for (std::size_t i = 0; i < nv; ++i) {
    float w = 1;
    const d::Vec3 ndc = mvp.transform(mesh.positions()[i], &w);
    valid[i] = w > 0;
    screen[i] = d::Vec3{(ndc.x * 0.5f + 0.5f) * width,
                        (0.5f - ndc.y * 0.5f) * height, ndc.z};
    const float lambert = std::abs(mesh.normals()[i].dot(light));
    shade[i] = 0.25f + 0.75f * std::clamp(lambert, 0.0f, 1.0f);
  }

  std::vector<float> zbuf(static_cast<std::size_t>(opt.width) *
                              static_cast<std::size_t>(opt.height),
                          std::numeric_limits<float>::max());
  const std::vector<std::uint32_t>& idx = mesh.indices();
  for (std::size_t t = 0; t < mesh.triangle_count(); ++t) {
    const std::uint32_t ia = idx[3 * t], ib = idx[3 * t + 1],
                        ic = idx[3 * t + 2];
    if (!valid[ia] || !valid[ib] || !valid[ic]) continue;
    const d::Vec3 a = screen[ia], b = screen[ib], c = screen[ic];
    const float min_x = std::min({a.x, b.x, c.x});
    const float max_x = std::max({a.x, b.x, c.x});
    const float min_y = std::min({a.y, b.y, c.y});
    const float max_y = std::max({a.y, b.y, c.y});
    if (max_x < 0 || max_y < 0 || min_x >= width || min_y >= height) continue;
    const float area = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x);
    if (std::abs(area) < 1e-9f) continue;
    ++result.triangles_drawn;
    if (centreless != nullptr &&
        (std::ceil(min_x - 0.5f) > std::floor(max_x - 0.5f) ||
         std::ceil(min_y - 0.5f) > std::floor(max_y - 0.5f))) {
      ++*centreless;
    }
    const int x0 = std::max(0, static_cast<int>(std::floor(min_x)));
    const int x1 = std::min(opt.width - 1, static_cast<int>(std::ceil(max_x)));
    const int y0 = std::max(0, static_cast<int>(std::floor(min_y)));
    const int y1 =
        std::min(opt.height - 1, static_cast<int>(std::ceil(max_y)));
    const float inv_area = 1.0f / area;
    const float sa = shade[ia], sb = shade[ib], sc = shade[ic];
    for (int y = y0; y <= y1; ++y) {
      for (int x = x0; x <= x1; ++x) {
        const float px = static_cast<float>(x) + 0.5f;
        const float py = static_cast<float>(y) + 0.5f;
        const float w0 =
            ((b.x - px) * (c.y - py) - (b.y - py) * (c.x - px)) * inv_area;
        const float w1 =
            ((c.x - px) * (a.y - py) - (c.y - py) * (a.x - px)) * inv_area;
        const float w2 = 1.0f - w0 - w1;
        const float z = w0 * a.z + w1 * b.z + w2 * c.z;
        float& zref = zbuf[static_cast<std::size_t>(y) *
                               static_cast<std::size_t>(opt.width) +
                           static_cast<std::size_t>(x)];
        if (w0 < 0 || w1 < 0 || w2 < 0 || z >= zref) continue;
        zref = z;
        const float s = w0 * sa + w1 * sb + w2 * sc;
        const auto to8 = [s](std::uint8_t base) {
          return static_cast<std::uint8_t>(
              std::clamp(s * static_cast<float>(base), 0.0f, 255.0f));
        };
        result.image.at(x, y) = v::Rgba{to8(opt.base_color.r),
                                        to8(opt.base_color.g),
                                        to8(opt.base_color.b), 255};
        ++result.pixels_shaded;
      }
    }
  }
  return result;
}

/// A seeded triangle soup in the unit cube, each triangle wound either
/// way: sub-pixel specks, slivers a few hundredths of a pixel thick, and
/// large triangles that overlap and cross the image edge when the camera
/// comes close. Normals are random.
v::TriangleMesh random_mesh(std::uint64_t seed, std::size_t triangles) {
  ricsa::util::Xoshiro256 rng(seed);
  const auto unit = [&rng] { return static_cast<float>(rng.uniform()); };
  const auto point = [&] { return d::Vec3{unit(), unit(), unit()}; };
  const auto offset = [&](float scale) {
    return d::Vec3{unit() - 0.5f, unit() - 0.5f, unit() - 0.5f} * scale;
  };
  v::TriangleMesh mesh;
  for (std::size_t t = 0; t < triangles; ++t) {
    const d::Vec3 a = point();
    d::Vec3 b, c;
    switch (rng() % 3) {
      case 0:  // speck
        b = a + offset(0.01f);
        c = a + offset(0.01f);
        break;
      case 1:  // sliver
        b = a + offset(1.5f);
        c = a + (b - a) * unit() + offset(2e-4f);
        break;
      default:  // large
        b = point();
        c = point();
        break;
    }
    for (const d::Vec3& p : {a, b, c}) {
      mesh.indices().push_back(
          static_cast<std::uint32_t>(mesh.positions().size()));
      mesh.positions().push_back(p);
      mesh.normals().push_back(offset(2.0f).normalized());
    }
  }
  return mesh;
}

/// Cameras for the box checks: the calibration's square default, an odd
/// size from below, and a close wide view that puts parts of the mesh
/// off the image.
std::vector<v::RenderOptions> box_cameras() {
  v::RenderOptions square;
  square.width = 128;
  square.height = 128;
  v::RenderOptions odd;
  odd.width = 97;
  odd.height = 61;
  odd.azimuth = 2.2f;
  odd.elevation = -0.5f;
  odd.distance = 1.9f;
  v::RenderOptions close;
  close.width = 80;
  close.height = 112;
  close.azimuth = -1.1f;
  close.elevation = 0.9f;
  close.distance = 1.3f;
  close.fov_y = 1.2f;
  return {square, odd, close};
}

/// render_mesh, serial and on `pool`, against render_whole_box: the same
/// image, pixels shaded and triangles drawn.
void expect_whole_box_result(const v::TriangleMesh& mesh,
                             v::RenderOptions opt,
                             ricsa::util::ThreadPool& pool) {
  const v::RenderResult reference = render_whole_box(mesh, opt);
  for (ricsa::util::ThreadPool* p : {
           static_cast<ricsa::util::ThreadPool*>(nullptr), &pool}) {
    opt.pool = p;
    const v::RenderResult result = v::render_mesh(mesh, opt);
    EXPECT_EQ(result.image.pixels(), reference.image.pixels())
        << (p ? "pooled" : "serial");
    EXPECT_EQ(result.pixels_shaded, reference.pixels_shaded)
        << (p ? "pooled" : "serial");
    EXPECT_EQ(result.triangles_drawn, reference.triangles_drawn)
        << (p ? "pooled" : "serial");
  }
}

}  // namespace

// render_mesh tests only the pixels whose centres a triangle's bounds
// hold. The pixels of the wider floor(min)..ceil(max) box it used to test
// must never pass the edge tests, so that nothing it draws or counts
// moves; triangles between pixel centres are still drawn.
TEST(RasterBox, RandomMeshesMatchTheWholeBoxReference) {
  ricsa::util::ThreadPool pool(3);
  std::size_t shaded = 0;
  std::size_t centreless = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const v::TriangleMesh mesh = random_mesh(seed, 60);
    for (const v::RenderOptions& opt : box_cameras()) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " " +
                   std::to_string(opt.width) + "x" +
                   std::to_string(opt.height));
      expect_whole_box_result(mesh, opt, pool);
      shaded += render_whole_box(mesh, opt, &centreless).pixels_shaded;
    }
  }
  EXPECT_GT(shaded, 0u);
  EXPECT_GT(centreless, 0u);
}

TEST(RasterBox, GoldenMeshesMatchTheWholeBoxReference) {
  ricsa::util::ThreadPool pool(3);
  for (const VolumeCase& c : volume_cases()) {
    for (const float iso : c.isovalues) {
      for (const bool gradient : {true, false}) {
        v::IsosurfaceOptions iso_opt;
        iso_opt.gradient_normals = gradient;
        const v::TriangleMesh mesh =
            v::extract_isosurface(c.volume, iso, iso_opt).mesh;
        for (const v::RenderOptions& opt : box_cameras()) {
          SCOPED_TRACE(std::string(c.name) + " iso " + std::to_string(iso) +
                       " " + std::to_string(opt.width) + "x" +
                       std::to_string(opt.height));
          expect_whole_box_result(mesh, opt, pool);
        }
      }
    }
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
