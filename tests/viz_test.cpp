// Visualization module tests: cube tables (topology, 15 classes, winding),
// isosurface extraction correctness (sphere/torus geometry, watertightness,
// block culling, parallel == serial), streamlines against analytic flows,
// ray casting, rasterization, image codecs and filters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/generators.hpp"
#include "data/octree.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"
#include "viz/cube_tables.hpp"
#include "viz/filters.hpp"
#include "viz/image.hpp"
#include "viz/isosurface.hpp"
#include "viz/mesh.hpp"
#include "viz/rasterizer.hpp"
#include "viz/raycast.hpp"
#include "viz/streamline.hpp"
#include "viz/tiles.hpp"

namespace d = ricsa::data;
namespace v = ricsa::viz;

// ----------------------------------------------------------- CubeTables ----

TEST(CubeTables, FifteenMarchingCubesClasses) {
  const auto& t = v::cube_tables();
  // "each of 15 cases including the one with no isosurface" (Section 4.4.1).
  EXPECT_EQ(t.class_count, 15);
  EXPECT_EQ(t.class_representative.size(), 15u);
}

TEST(CubeTables, EmptyAndFullConfigsProduceNothing) {
  const auto& t = v::cube_tables();
  EXPECT_TRUE(t.triangles[0].empty());
  EXPECT_TRUE(t.triangles[255].empty());
  EXPECT_EQ(t.mc_class[0], t.mc_class[255]);  // complement symmetry
}

TEST(CubeTables, ComplementSymmetryOfClasses) {
  const auto& t = v::cube_tables();
  for (int c = 0; c < 256; ++c) {
    EXPECT_EQ(t.mc_class[static_cast<std::size_t>(c)],
              t.mc_class[static_cast<std::size_t>((~c) & 0xFF)]);
  }
}

TEST(CubeTables, EveryNonTrivialConfigHasTriangles) {
  const auto& t = v::cube_tables();
  for (int c = 1; c < 255; ++c) {
    EXPECT_FALSE(t.triangles[static_cast<std::size_t>(c)].empty())
        << "config " << c;
  }
}

TEST(CubeTables, NineteenSegments) {
  const auto& t = v::cube_tables();
  std::set<std::pair<int, int>> unique(t.segments.begin(), t.segments.end());
  EXPECT_EQ(unique.size(), 19u);
  for (const auto& [a, b] : t.segments) {
    EXPECT_GE(a, 0);
    EXPECT_LT(a, 8);
    EXPECT_GE(b, 0);
    EXPECT_LT(b, 8);
    EXPECT_LT(a, b);
  }
}

TEST(CubeTables, TrianglesOnlyUseCutSegments) {
  // Every triangle vertex must sit on a segment whose endpoints straddle the
  // isosurface (one corner in, one out).
  const auto& t = v::cube_tables();
  for (int c = 0; c < 256; ++c) {
    for (const auto& tri : t.triangles[static_cast<std::size_t>(c)]) {
      for (const int s : tri) {
        const auto [a, b] = t.segments[static_cast<std::size_t>(s)];
        const bool a_in = (c >> a) & 1;
        const bool b_in = (c >> b) & 1;
        EXPECT_NE(a_in, b_in) << "config " << c << " uses uncut segment";
      }
    }
  }
}

// ----------------------------------------------------------------- Mesh ----

TEST(Mesh, AddAndAppend) {
  v::TriangleMesh m;
  m.add_triangle({0, 0, 0}, {1, 0, 0}, {0, 1, 0});
  EXPECT_EQ(m.triangle_count(), 1u);
  EXPECT_EQ(m.vertex_count(), 3u);
  EXPECT_NEAR(m.normals()[0].z, 1.0f, 1e-6f);
  v::TriangleMesh m2;
  m2.add_triangle({0, 0, 1}, {1, 0, 1}, {0, 1, 1});
  m.append(m2);
  EXPECT_EQ(m.triangle_count(), 2u);
  EXPECT_EQ(m.indices().back(), 5u);
  EXPECT_NEAR(m.surface_area(), 1.0, 1e-6);
}

TEST(Mesh, WeldMergesSharedVertices) {
  v::TriangleMesh m;
  m.add_triangle({0, 0, 0}, {1, 0, 0}, {0, 1, 0});
  m.add_triangle({1, 0, 0}, {1, 1, 0}, {0, 1, 0});
  const v::TriangleMesh w = m.welded();
  EXPECT_EQ(w.vertex_count(), 4u);  // 6 soup vertices -> 4 unique
  EXPECT_EQ(w.triangle_count(), 2u);
}

TEST(Mesh, BoundsAndEmpty) {
  v::TriangleMesh m;
  const auto [lo0, hi0] = m.bounds();
  EXPECT_FLOAT_EQ(lo0.x, 0);
  m.add_triangle({-1, 2, 0}, {3, 2, 0}, {0, 5, -2});
  const auto [lo, hi] = m.bounds();
  EXPECT_FLOAT_EQ(lo.x, -1);
  EXPECT_FLOAT_EQ(hi.y, 5);
  EXPECT_FLOAT_EQ(lo.z, -2);
}

// ------------------------------------------------------------ Isosurface ----

TEST(Isosurface, SphereVerticesLieOnSphere) {
  const float radius = 10.0f;
  const d::ScalarVolume vol = d::make_sphere(33, radius);
  const auto result = v::extract_isosurface(vol, 0.0f);
  ASSERT_GT(result.mesh.triangle_count(), 100u);
  const float c = 16.0f;
  for (const auto& p : result.mesh.positions()) {
    const float r = (p - d::Vec3{c, c, c}).norm();
    EXPECT_NEAR(r, radius, 0.35f);  // within sub-cell interpolation error
  }
}

TEST(Isosurface, SphereAreaApproximates4PiR2) {
  const float radius = 10.0f;
  const d::ScalarVolume vol = d::make_sphere(33, radius);
  const auto result = v::extract_isosurface(vol, 0.0f);
  const double expected = 4.0 * M_PI * radius * radius;
  EXPECT_NEAR(result.mesh.surface_area(), expected, 0.06 * expected);
}

TEST(Isosurface, SphereSurfaceIsClosed) {
  const d::ScalarVolume vol = d::make_sphere(21, 6.0f);
  const auto result = v::extract_isosurface(vol, 0.0f);
  EXPECT_TRUE(result.mesh.is_closed())
      << "tetrahedral decomposition must produce a watertight surface";
}

TEST(Isosurface, TorusSurfaceIsClosedAndAreaMatches) {
  const d::ScalarVolume vol = d::make_torus(41, 10.0f, 4.0f);
  const auto result = v::extract_isosurface(vol, 0.0f);
  EXPECT_TRUE(result.mesh.is_closed());
  const double expected = 4.0 * M_PI * M_PI * 10.0 * 4.0;  // 4 pi^2 R r
  EXPECT_NEAR(result.mesh.surface_area(), expected, 0.08 * expected);
}

TEST(Isosurface, NormalsPointOutwardOnSphere) {
  const d::ScalarVolume vol = d::make_sphere(25, 8.0f);
  const auto result = v::extract_isosurface(vol, 0.0f);
  const float c = 12.0f;
  std::size_t outward = 0;
  for (std::size_t i = 0; i < result.mesh.vertex_count(); ++i) {
    const d::Vec3 radial =
        (result.mesh.positions()[i] - d::Vec3{c, c, c}).normalized();
    if (result.mesh.normals()[i].dot(radial) > 0) ++outward;
  }
  // Field is R - |p|: gradient points inward, so normals = -gradient point
  // outward; all vertices must agree.
  EXPECT_EQ(outward, result.mesh.vertex_count());
}

TEST(Isosurface, EmptyWhenIsovalueOutsideRange) {
  const d::ScalarVolume vol = d::make_sphere(17, 5.0f);
  const auto result = v::extract_isosurface(vol, 1e6f);
  EXPECT_EQ(result.mesh.triangle_count(), 0u);
  EXPECT_EQ(result.stats.blocks_active, 0u);
  EXPECT_EQ(result.stats.cells_scanned, 0u);  // octree culls everything
}

TEST(Isosurface, BlockCullingScansOnlyActiveBlocks) {
  const d::ScalarVolume vol = d::make_sphere(33, 8.0f);
  v::IsosurfaceOptions opt;
  opt.block_size = 4;  // fine enough that corner blocks miss the sphere
  const auto result = v::extract_isosurface(vol, 0.0f, opt);
  EXPECT_GT(result.stats.blocks_active, 0u);
  EXPECT_LT(result.stats.blocks_active, result.stats.blocks_total);
  EXPECT_LT(result.stats.cells_scanned, 32u * 32 * 32);
}

namespace {

/// Bitwise equality of two vectors' elements: float payloads must match to
/// the bit, not within a tolerance, for "pooled == serial" to hold.
template <typename T>
bool bitwise_equal(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

}  // namespace

TEST(Isosurface, ParallelMatchesSerial) {
  // Pooled extraction must be the serial scan, bit for bit, whatever the
  // pool size and therefore however the (block, z) slabs are split.
  const d::ScalarVolume vol = d::make_jet(40, 40, 40);
  for (const int block_size : {16, 7}) {
    v::IsosurfaceOptions opt;
    opt.block_size = block_size;
    const auto serial = v::extract_isosurface(vol, 0.5f, opt);
    ASSERT_GT(serial.mesh.triangle_count(), 1000u);
    for (const std::size_t threads : {1u, 3u, 4u}) {
      SCOPED_TRACE("block " + std::to_string(block_size) + ", pool " +
                   std::to_string(threads));
      ricsa::util::ThreadPool pool(threads);
      opt.pool = &pool;
      const auto parallel = v::extract_isosurface(vol, 0.5f, opt);
      opt.pool = nullptr;
      EXPECT_TRUE(bitwise_equal(parallel.mesh.positions(),
                                serial.mesh.positions()));
      EXPECT_TRUE(
          bitwise_equal(parallel.mesh.normals(), serial.mesh.normals()));
      EXPECT_EQ(parallel.mesh.indices(), serial.mesh.indices());
      EXPECT_EQ(parallel.stats.blocks_total, serial.stats.blocks_total);
      EXPECT_EQ(parallel.stats.blocks_active, serial.stats.blocks_active);
      EXPECT_EQ(parallel.stats.cells_scanned, serial.stats.cells_scanned);
      EXPECT_EQ(parallel.stats.triangles, serial.stats.triangles);
      EXPECT_EQ(parallel.stats.class_cells, serial.stats.class_cells);
      EXPECT_EQ(parallel.stats.class_triangles, serial.stats.class_triangles);
    }
  }
}

TEST(Isosurface, ClassHistogramAccountsAllCells) {
  const d::ScalarVolume vol = d::make_sphere(17, 5.0f);
  const auto result = v::extract_isosurface(vol, 0.0f);
  std::uint64_t histo_cells = 0;
  for (const auto c : result.stats.class_cells) histo_cells += c;
  EXPECT_EQ(histo_cells, result.stats.cells_scanned);
  std::uint64_t histo_tris = 0;
  for (const auto c : result.stats.class_triangles) histo_tris += c;
  EXPECT_EQ(histo_tris, result.stats.triangles);
  EXPECT_EQ(result.stats.triangles, result.mesh.triangle_count());
}

TEST(Isosurface, RampProducesPlane) {
  const d::ScalarVolume vol = d::make_ramp(17, 9, 9);
  const auto result = v::extract_isosurface(vol, 7.5f);
  ASSERT_GT(result.mesh.triangle_count(), 0u);
  for (const auto& p : result.mesh.positions()) {
    EXPECT_NEAR(p.x, 7.5f, 1e-5f);  // plane x = 7.5
  }
  // Plane area = (ny-1) * (nz-1) cells.
  EXPECT_NEAR(result.mesh.surface_area(), 64.0, 1e-3);
}

TEST(Isosurface, ReusedDecompositionGivesSameResult) {
  const d::ScalarVolume vol = d::make_rage(24, 24, 24);
  const d::BlockDecomposition blocks(vol, 8);
  const auto a = v::extract_isosurface(vol, 0.6f);
  const auto b = v::extract_isosurface(vol, blocks, 0.6f);
  EXPECT_EQ(a.mesh.triangle_count(), b.mesh.triangle_count());
}

// ----------------------------------------------------------- Streamline ----

TEST(Streamline, UniformFlowTracesStraightLine) {
  const d::VectorVolume field = d::make_uniform_flow(32);
  v::StreamlineOptions opt;
  opt.step = 0.5f;
  const auto set = v::trace_streamlines(field, {{1, 16, 16}}, opt);
  ASSERT_EQ(set.lines.size(), 1u);
  const auto& line = set.lines[0];
  ASSERT_GT(line.size(), 10u);
  for (const auto& p : line) {
    EXPECT_NEAR(p.y, 16.0f, 1e-4f);
    EXPECT_NEAR(p.z, 16.0f, 1e-4f);
  }
  // Exits the +x face: final x close to the boundary.
  EXPECT_GT(line.back().x, 29.0f);
}

TEST(Streamline, RotationFieldKeepsRadius) {
  // RK4 on solid-body rotation preserves radius to high accuracy.
  const d::VectorVolume field = d::make_rotation(33);
  v::StreamlineOptions opt;
  opt.step = 0.02f;  // small angular step
  opt.max_steps = 2000;
  const auto set = v::trace_streamlines(field, {{26, 16, 16}}, opt);
  const float r0 = 10.0f;
  for (const auto& p : set.lines[0]) {
    const float r = std::hypot(p.x - 16.0f, p.y - 16.0f);
    EXPECT_NEAR(r, r0, 0.05f);
  }
}

TEST(Streamline, AdvectionCountMatchesOptions) {
  const d::VectorVolume field = d::make_rotation(33);
  v::StreamlineOptions opt;
  opt.max_steps = 50;
  opt.step = 0.01f;
  const auto set = v::trace_streamlines(field, v::grid_seeds(field, 2), opt);
  EXPECT_EQ(set.lines.size(), 8u);
  // Interior rotation seeds never exit: every seed runs max_steps.
  EXPECT_EQ(set.advection_steps, 8u * 50u);
}

TEST(Streamline, StopsAtStagnationPoint) {
  const d::VectorVolume field = d::make_rotation(17);  // center velocity = 0
  v::StreamlineOptions opt;
  opt.min_speed = 1e-3f;
  const auto set = v::trace_streamlines(field, {{8, 8, 8}}, opt);
  EXPECT_LE(set.lines[0].size(), 2u);
}

TEST(Streamline, GridSeedsInsideField) {
  const d::VectorVolume field = d::make_uniform_flow(16);
  const auto seeds = v::grid_seeds(field, 3);
  EXPECT_EQ(seeds.size(), 27u);
  for (const auto& s : seeds) {
    EXPECT_TRUE(field.inside(s.x, s.y, s.z));
  }
}

// -------------------------------------------------------------- RayCast ----

TEST(RayCast, ProducesNonEmptyImageAndCounts) {
  const d::ScalarVolume vol = d::make_rage(32, 32, 32);
  const auto tf = v::TransferFunction::preset(0.0f, 1.2f);
  v::RayCastOptions opt;
  opt.width = 64;
  opt.height = 64;
  const auto result = v::raycast(vol, tf, opt);
  EXPECT_GT(result.rays, 1000u);
  EXPECT_GT(result.samples, result.rays);  // multiple samples per ray
  // Center pixel must differ from the background (the blast shell shows).
  EXPECT_NE(result.image.at(32, 32), opt.background);
}

TEST(RayCast, EarlyTerminationReducesSamples) {
  const d::ScalarVolume vol = d::make_viswoman(32, 32, 32);
  v::TransferFunction tf({{0.0f, 1, 1, 1, 0.0f}, {0.9f, 1, 1, 1, 0.9f}});
  v::RayCastOptions opt;
  opt.width = 48;
  opt.height = 48;
  const auto full = v::raycast(vol, tf, opt);
  opt.early_termination = true;
  opt.opacity_cutoff = 0.5f;
  const auto early = v::raycast(vol, tf, opt);
  EXPECT_LT(early.samples, full.samples);
  EXPECT_EQ(early.rays, full.rays);
}

TEST(RayCast, ParallelMatchesSerial) {
  const d::ScalarVolume vol = d::make_jet(24, 24, 24);
  const auto tf = v::TransferFunction::preset(0.0f, 1.3f);
  v::RayCastOptions opt;
  opt.width = 40;
  opt.height = 40;
  const auto serial = v::raycast(vol, tf, opt);
  ricsa::util::ThreadPool pool(4);
  opt.pool = &pool;
  const auto parallel = v::raycast(vol, tf, opt);
  EXPECT_EQ(parallel.samples, serial.samples);
  EXPECT_EQ(parallel.image.pixels(), serial.image.pixels());
}

TEST(RayCast, TransferFunctionInterpolation) {
  v::TransferFunction tf({{0.0f, 0, 0, 0, 0.0f}, {1.0f, 1, 0.5f, 0, 1.0f}});
  const auto mid = tf.sample(0.5f);
  EXPECT_NEAR(mid.r, 0.5f, 1e-5f);
  EXPECT_NEAR(mid.g, 0.25f, 1e-5f);
  EXPECT_NEAR(mid.a, 0.5f, 1e-5f);
  EXPECT_NEAR(tf.sample(-5.0f).a, 0.0f, 1e-6f);  // clamped
  EXPECT_NEAR(tf.sample(5.0f).a, 1.0f, 1e-6f);
  EXPECT_THROW(v::TransferFunction({}), std::invalid_argument);
  EXPECT_THROW(
      v::TransferFunction({{1.0f, 0, 0, 0, 0}, {0.0f, 0, 0, 0, 0}}),
      std::invalid_argument);
}

// ------------------------------------------------------------ Rasterizer ----

TEST(Rasterizer, Mat4Basics) {
  const auto id = v::Mat4::identity();
  const d::Vec3 p{1, 2, 3};
  const d::Vec3 q = id.transform(p);
  EXPECT_FLOAT_EQ(q.x, 1);
  const auto t = v::Mat4::translation({10, 0, 0});
  EXPECT_FLOAT_EQ(t.transform(p).x, 11);
  const auto rz = v::Mat4::rotation_z(static_cast<float>(M_PI / 2));
  const d::Vec3 r = rz.transform({1, 0, 0});
  EXPECT_NEAR(r.x, 0, 1e-6f);
  EXPECT_NEAR(r.y, 1, 1e-6f);
  // Composition: translate then rotate vs rotate then translate differ.
  const auto tr = t * rz;
  const auto rt = rz * t;
  EXPECT_NEAR(tr.transform({1, 0, 0}).x, 10, 1e-5f);
  EXPECT_NEAR(rt.transform({1, 0, 0}).y, 11, 1e-5f);
}

TEST(Rasterizer, LookAtPutsTargetOnAxis) {
  const auto view = v::Mat4::look_at({5, 5, 5}, {0, 0, 0}, {0, 0, 1});
  const d::Vec3 target_view = view.transform({0, 0, 0});
  EXPECT_NEAR(target_view.x, 0, 1e-5f);
  EXPECT_NEAR(target_view.y, 0, 1e-5f);
  EXPECT_LT(target_view.z, 0);  // in front of the camera (-z)
}

TEST(Rasterizer, RendersSphereMeshToImage) {
  const d::ScalarVolume vol = d::make_sphere(25, 8.0f);
  const auto iso = v::extract_isosurface(vol, 0.0f);
  v::RenderOptions opt;
  opt.width = 64;
  opt.height = 64;
  const auto result = v::render_mesh(iso.mesh, opt);
  EXPECT_GT(result.triangles_drawn, 100u);
  EXPECT_GT(result.pixels_shaded, 200u);
  EXPECT_NE(result.image.at(32, 32), opt.background);  // sphere at center
  EXPECT_EQ(result.image.at(1, 1), opt.background);    // corner is empty
}

TEST(Rasterizer, EmptyMeshRendersBackground) {
  const v::TriangleMesh empty;
  const auto result = v::render_mesh(empty);
  EXPECT_EQ(result.triangles_drawn, 0u);
  EXPECT_EQ(result.image.at(0, 0), v::RenderOptions{}.background);
}

TEST(Rasterizer, ZBufferOcclusion) {
  // Two overlapping triangles; the nearer one must win the overlap pixels.
  v::TriangleMesh m;
  m.add_triangle({-1, -1, 0}, {1, -1, 0}, {0, 1, 0});   // far (z=0 plane)
  m.add_triangle({-1, -1, 1}, {1, -1, 1}, {0, 1, 1});   // near (z=1)
  v::RenderOptions opt;
  opt.width = 32;
  opt.height = 32;
  opt.azimuth = 0.0f;
  opt.elevation = 1.35f;  // look down z
  opt.base_color = {255, 0, 0, 255};
  const auto result = v::render_mesh(m, opt);
  EXPECT_EQ(result.triangles_drawn, 2u);
  EXPECT_GT(result.pixels_shaded, 0u);
}

TEST(Rasterizer, ParallelMatchesSerial) {
  // Row-band rendering must reproduce the serial image exactly, including
  // depth-test ties: the second copy of the surface sits at the same depth
  // with different normals, so only strict index order decides which copy
  // shades each pixel.
  const d::ScalarVolume vol = d::make_jet(32, 32, 32);
  v::TriangleMesh mesh = v::extract_isosurface(vol, 0.5f).mesh;
  v::TriangleMesh twin = mesh;
  for (auto& n : twin.normals()) n = d::Vec3{n.z, n.x, n.y};
  mesh.append(twin);
  for (const auto& [width, height] :
       {std::pair{96, 61}, std::pair{40, 128}}) {
    v::RenderOptions opt;
    opt.width = width;
    opt.height = height;
    opt.azimuth = 1.1f;
    opt.elevation = 0.4f;
    const auto serial = v::render_mesh(mesh, opt);
    ASSERT_GT(serial.pixels_shaded, 500u);
    for (const std::size_t threads : {1u, 3u, 4u}) {
      SCOPED_TRACE(std::to_string(width) + "x" + std::to_string(height) +
                   ", pool " + std::to_string(threads));
      ricsa::util::ThreadPool pool(threads);
      opt.pool = &pool;
      const auto parallel = v::render_mesh(mesh, opt);
      opt.pool = nullptr;
      EXPECT_EQ(parallel.image.pixels(), serial.image.pixels());
      EXPECT_EQ(parallel.triangles_drawn, serial.triangles_drawn);
      EXPECT_EQ(parallel.pixels_shaded, serial.pixels_shaded);
    }
  }
}

// ----------------------------------------------------------------- Image ----

TEST(Image, PixelAccessAndBounds) {
  v::Image img(8, 4);
  img.at(7, 3) = {1, 2, 3, 4};
  EXPECT_EQ(img.at(7, 3), (v::Rgba{1, 2, 3, 4}));
  EXPECT_THROW(img.at(8, 0), std::out_of_range);
  EXPECT_THROW(v::Image(0, 5), std::invalid_argument);
  EXPECT_EQ(img.bytes(), 8u * 4u * 4u);
}

TEST(Image, Crc32KnownVector) {
  // CRC-32("123456789") = 0xCBF43926 (classic check value).
  const char* s = "123456789";
  EXPECT_EQ(v::crc32(reinterpret_cast<const std::uint8_t*>(s), 9), 0xCBF43926u);
}

TEST(Image, Adler32KnownVector) {
  // Adler-32("Wikipedia") = 0x11E60398.
  const char* s = "Wikipedia";
  EXPECT_EQ(v::adler32(reinterpret_cast<const std::uint8_t*>(s), 9),
            0x11E60398u);
}

TEST(Image, PngStructureValid) {
  v::Image img(16, 8, {200, 100, 50, 255});
  const auto png = img.encode_png();
  ASSERT_GT(png.size(), 50u);
  // Signature.
  EXPECT_EQ(png[0], 0x89);
  EXPECT_EQ(png[1], 'P');
  // IHDR dims big-endian at offset 16.
  EXPECT_EQ(png[16 + 3], 16);
  EXPECT_EQ(png[20 + 3], 8);
  // IEND trailer.
  const std::string tail(png.end() - 8, png.end() - 4);
  EXPECT_EQ(tail, "IEND");
}

TEST(Image, DownsampleBoxFilter) {
  v::Image img(4, 4, {0, 0, 0, 255});
  // One 2x2 block all-white: its output pixel averages to white, the rest
  // stay black.
  for (int y = 0; y < 2; ++y) {
    for (int x = 0; x < 2; ++x) img.at(x, y) = {255, 255, 255, 255};
  }
  const v::Image half = v::downsample(img, 2);
  EXPECT_EQ(half.width(), 2);
  EXPECT_EQ(half.height(), 2);
  EXPECT_EQ(half.at(0, 0), (v::Rgba{255, 255, 255, 255}));
  EXPECT_EQ(half.at(1, 1), (v::Rgba{0, 0, 0, 255}));

  // Non-divisible dims round up; edge blocks clamp.
  const v::Image odd = v::downsample(v::Image(5, 3, {10, 20, 30, 255}), 2);
  EXPECT_EQ(odd.width(), 3);
  EXPECT_EQ(odd.height(), 2);
  EXPECT_EQ(odd.at(2, 1), (v::Rgba{10, 20, 30, 255}));

  // Factor 1 is the identity; bad factors throw.
  EXPECT_EQ(v::downsample(img, 1).pixels(), img.pixels());
  EXPECT_THROW(v::downsample(img, 0), std::invalid_argument);
}

TEST(Image, PngDecodeRoundTrip) {
  v::Image img(13, 7);  // odd dims: scanline stride and edge handling
  ricsa::util::Xoshiro256 rng(7);
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      img.at(x, y) = {static_cast<std::uint8_t>(rng() & 0xFF),
                      static_cast<std::uint8_t>(rng() & 0xFF),
                      static_cast<std::uint8_t>(rng() & 0xFF),
                      static_cast<std::uint8_t>(rng() & 0xFF)};
    }
  }
  const v::Image back = v::Image::decode_png(img.encode_png());
  ASSERT_EQ(back.width(), img.width());
  ASSERT_EQ(back.height(), img.height());
  EXPECT_EQ(back.pixels(), img.pixels());

  // A frame-sized image spans multiple deflate blocks (>64 KB raw input).
  v::Image big(200, 120, {9, 8, 7, 255});
  big.at(199, 119) = {1, 2, 3, 4};
  EXPECT_EQ(v::Image::decode_png(big.encode_png()).pixels(), big.pixels());

  // Corruption is an error, not garbage pixels.
  auto bytes = img.encode_png();
  bytes[bytes.size() / 2] ^= 0xFF;
  EXPECT_THROW(v::Image::decode_png(bytes), std::runtime_error);
  EXPECT_THROW(v::Image::decode_png({1, 2, 3}), std::runtime_error);
}

TEST(Image, ConcurrentEncodesMatchSerialBytes) {
  // Every encoding thread keeps its own match-finder and block-code
  // scratch and reuses it across calls. Four threads encoding different
  // images at once must each get the bytes a serial encode gives. Each
  // thread cycles through all four sizes, so its scratch is reused across
  // inputs of other lengths, and through both colour types: images 1 and
  // 3 are translucent (RGBA), 0 and 2 opaque (RGB).
  constexpr int kThreads = 4;
  ricsa::util::Xoshiro256 rng(17);
  std::vector<v::Image> images;
  for (int t = 0; t < kThreads; ++t) {
    v::Image img(64 + 40 * t, 48 + 24 * t);
    for (int y = 0; y < img.height(); ++y) {
      for (int x = 0; x < img.width(); ++x) {
        img.at(x, y) = {static_cast<std::uint8_t>(x / 8 * 20),
                        static_cast<std::uint8_t>(y / 6 * 15),
                        static_cast<std::uint8_t>(t * 50),
                        static_cast<std::uint8_t>(t % 2 == 1 ? 255 - x % 16
                                                             : 255)};
      }
    }
    for (int k = 0; k < 200; ++k) {
      img.at(static_cast<int>(rng() % static_cast<unsigned>(img.width())),
             static_cast<int>(rng() % static_cast<unsigned>(img.height()))) =
          {static_cast<std::uint8_t>(rng() & 0xFF), 0, 0, 255};
    }
    images.push_back(std::move(img));
  }
  std::vector<std::vector<std::uint8_t>> serial;
  for (const v::Image& img : images) serial.push_back(img.encode_png());
  for (int t = 0; t < kThreads; ++t) {  // IHDR colour type: 2 RGB, 6 RGBA
    EXPECT_EQ(serial[static_cast<std::size_t>(t)][25], t % 2 == 1 ? 6 : 2);
  }

  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&images, &serial, &mismatches, t] {
      for (int round = 0; round < 8; ++round) {
        // In any round the threads hold four different images.
        const std::size_t i = static_cast<std::size_t>((t + round) % kThreads);
        if (images[i].encode_png() != serial[i]) ++mismatches[t];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0) << "thread " << t;
  }
}

TEST(Image, RleRoundTrip) {
  v::Image img(32, 16, {7, 7, 7, 255});
  img.at(5, 5) = {1, 2, 3, 255};
  img.at(31, 15) = {9, 9, 9, 9};
  const auto enc = v::rle_encode(img);
  EXPECT_LT(enc.size(), img.bytes());  // mostly-constant image compresses
  const v::Image back = v::rle_decode(enc, 32, 16);
  EXPECT_EQ(back.pixels(), img.pixels());
}

TEST(Image, RleRejectsBadInput) {
  EXPECT_THROW(v::rle_decode({1, 2, 3}, 4, 4), std::runtime_error);
  // Valid structure but wrong pixel count.
  v::Image img(4, 4);
  auto enc = v::rle_encode(img);
  EXPECT_THROW(v::rle_decode(enc, 8, 8), std::runtime_error);
}

// -------------------------------------------------------------- TileGrid ----

TEST(TileGrid, GridGeometryClampsEdgeTiles) {
  // 100x70 at tile 32: 4x3 grid, right column 4 px wide, bottom row 6 px
  // tall, corner tile 4x6 — partial edge tiles exactly cover the image.
  const v::TileGrid grid(100, 70, 32);
  EXPECT_EQ(grid.cols(), 4);
  EXPECT_EQ(grid.rows(), 3);
  EXPECT_EQ(grid.count(), 12u);
  EXPECT_EQ(grid.rect(0), (v::TileRect{0, 0, 32, 32}));
  EXPECT_EQ(grid.rect(3), (v::TileRect{96, 0, 4, 32}));
  EXPECT_EQ(grid.rect(8), (v::TileRect{0, 64, 32, 6}));
  EXPECT_EQ(grid.rect(11), (v::TileRect{96, 64, 4, 6}));
  std::size_t pixels = 0;
  for (std::size_t i = 0; i < grid.count(); ++i) {
    const v::TileRect r = grid.rect(i);
    pixels += static_cast<std::size_t>(r.w) * static_cast<std::size_t>(r.h);
  }
  EXPECT_EQ(pixels, 100u * 70u);
  EXPECT_THROW(grid.rect(12), std::out_of_range);
  EXPECT_THROW(v::TileGrid(0, 4, 8), std::invalid_argument);
  EXPECT_THROW(v::TileGrid(4, 4, 0), std::invalid_argument);
}

TEST(TileGrid, DiffGolden) {
  const v::TileGrid grid(100, 70, 32);
  v::Image a(100, 70, {1, 2, 3, 255});
  v::Image b = a;

  // No change => zero dirty tiles.
  EXPECT_EQ(grid.dirty_count(grid.diff(a, b)), 0u);
  EXPECT_EQ(grid.dirty_fraction(grid.diff(a, b)), 0.0);

  // A single changed pixel dirties exactly its one tile.
  b.at(40, 40) = {9, 9, 9, 255};
  auto dirty = grid.diff(a, b);
  EXPECT_EQ(grid.dirty_count(dirty), 1u);
  EXPECT_EQ(dirty[grid.cols() * 1 + 1], 1);  // tile (col 1, row 1)

  // A pixel in the clamped bottom-right corner tile dirties only it.
  v::Image c = a;
  c.at(99, 69) = {7, 7, 7, 255};
  dirty = grid.diff(a, c);
  EXPECT_EQ(grid.dirty_count(dirty), 1u);
  EXPECT_EQ(dirty[grid.count() - 1], 1);

  // Full change => every tile dirty, fraction 1 (the hub's full-frame
  // fallback trigger).
  const v::Image d(100, 70, {200, 200, 200, 255});
  dirty = grid.diff(a, d);
  EXPECT_EQ(grid.dirty_count(dirty), grid.count());
  EXPECT_DOUBLE_EQ(grid.dirty_fraction(dirty), 1.0);

  // Dimension mismatch is an error, not a bogus diff.
  EXPECT_THROW(grid.diff(a, v::Image(64, 64)), std::invalid_argument);
}

TEST(TileGrid, ExtractCompositeRoundTrip) {
  const v::TileGrid grid(100, 70, 32);
  v::Image src(100, 70);
  ricsa::util::Xoshiro256 rng(21);
  for (auto y = 0; y < src.height(); ++y) {
    for (auto x = 0; x < src.width(); ++x) {
      src.at(x, y) = {static_cast<std::uint8_t>(rng() & 0xFF),
                      static_cast<std::uint8_t>(rng() & 0xFF),
                      static_cast<std::uint8_t>(rng() & 0xFF), 255};
    }
  }
  // Extracting every tile and compositing onto a blank canvas reproduces
  // the source exactly — including the partial edge tiles.
  v::Image canvas(100, 70);
  for (std::size_t i = 0; i < grid.count(); ++i) {
    const v::TileRect r = grid.rect(i);
    const v::Image tile = v::TileGrid::extract(src, r);
    EXPECT_EQ(tile.width(), r.w);
    EXPECT_EQ(tile.height(), r.h);
    v::TileGrid::composite(canvas, tile, r.x, r.y);
  }
  EXPECT_EQ(canvas.pixels(), src.pixels());
  EXPECT_THROW(v::TileGrid::extract(src, {90, 0, 32, 32}),
               std::invalid_argument);
  EXPECT_THROW(v::TileGrid::composite(canvas, src, 1, 0),
               std::invalid_argument);
}

TEST(TileGrid, DirtyCountClampsOversizedSet) {
  // dirty_count must apply the same bounds clamp as dirty_fraction: set
  // entries beyond count() (a stale or mismatched TileSet) must not
  // overcount. Regression: the old static dirty_count summed every entry.
  const v::TileGrid grid(64, 64, 32);  // 2x2 = 4 tiles
  v::TileSet oversized(16, 1);         // 16 entries, all set
  EXPECT_EQ(grid.dirty_count(oversized), 4u);
  EXPECT_DOUBLE_EQ(grid.dirty_fraction(oversized), 1.0);
  // Undersized sets count only what exists, identically in both.
  v::TileSet undersized(2, 1);
  EXPECT_EQ(grid.dirty_count(undersized), 2u);
  EXPECT_DOUBLE_EQ(grid.dirty_fraction(undersized), 0.5);
}

TEST(TileGrid, ExtractCompositeOddSizeEdgeTiles) {
  // 37x23 at tile 8: right column 5 px wide, bottom row 7 px tall — the
  // memcpy row copies must handle strides that are not multiples of the
  // tile size. Round-trip through a canvas must be bit-identical.
  const v::TileGrid grid(37, 23, 8);
  v::Image src(37, 23);
  ricsa::util::Xoshiro256 rng(99);
  for (int y = 0; y < src.height(); ++y) {
    for (int x = 0; x < src.width(); ++x) {
      src.at(x, y) = {static_cast<std::uint8_t>(rng() & 0xFF),
                      static_cast<std::uint8_t>(rng() & 0xFF),
                      static_cast<std::uint8_t>(rng() & 0xFF),
                      static_cast<std::uint8_t>(rng() & 0xFF)};
    }
  }
  v::Image canvas(37, 23);
  for (std::size_t i = 0; i < grid.count(); ++i) {
    const v::TileRect r = grid.rect(i);
    const v::Image tile = v::TileGrid::extract(src, r);
    // Spot-check the corner tile dimensions (5x7) really are partial.
    if (i == grid.count() - 1) {
      EXPECT_EQ(tile.width(), 5);
      EXPECT_EQ(tile.height(), 7);
    }
    v::TileGrid::composite(canvas, tile, r.x, r.y);
  }
  EXPECT_EQ(canvas.pixels(), src.pixels());
}

TEST(TileGrid, CoalesceMergesAdjacentDirtyTiles) {
  // 4x3 grid (100x70 at 32). Dirty an L-shape:
  //   X X . .
  //   X . . .
  //   . . . .
  // Greedy row-major: first rect spans tiles (0,0)-(1,0) (down-extension
  // fails because (1,1) is clean), second covers (0,1).
  const v::TileGrid grid(100, 70, 32);
  v::TileSet dirty(grid.count(), 0);
  dirty[0] = dirty[1] = 1;            // row 0, cols 0-1
  dirty[grid.cols() * 1 + 0] = 1;     // row 1, col 0
  const auto rects = grid.coalesce(dirty);
  ASSERT_EQ(rects.size(), 2u);
  EXPECT_EQ(rects[0], (v::TileRect{0, 0, 64, 32}));
  EXPECT_EQ(rects[1], (v::TileRect{0, 32, 32, 32}));

  // A full 2x2 block coalesces into one rectangle.
  v::TileSet block(grid.count(), 0);
  block[0] = block[1] = 1;
  block[grid.cols() + 0] = block[grid.cols() + 1] = 1;
  const auto merged = grid.coalesce(block);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0], (v::TileRect{0, 0, 64, 64}));

  // Nothing dirty -> nothing emitted.
  EXPECT_TRUE(grid.coalesce(v::TileSet(grid.count(), 0)).empty());
}

TEST(TileGrid, CoalesceCoversExactlyTheDirtyTilesClampedAtEdges) {
  // Random dirty sets: the emitted rectangles must tile-align, stay
  // disjoint, and cover each dirty tile exactly once and no clean tile —
  // the invariant the hub's cursor-anchored rect closure depends on.
  const v::TileGrid grid(100, 70, 32);
  ricsa::util::Xoshiro256 rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    v::TileSet dirty(grid.count(), 0);
    for (auto& d : dirty) d = (rng() & 1) != 0 ? 1 : 0;
    std::vector<int> covered(grid.count(), 0);
    for (const v::TileRect& r : grid.coalesce(dirty)) {
      EXPECT_EQ(r.x % 32, 0);
      EXPECT_EQ(r.y % 32, 0);
      EXPECT_LE(r.x + r.w, 100);
      EXPECT_LE(r.y + r.h, 70);
      for (int row = r.y / 32; row <= (r.y + r.h - 1) / 32; ++row) {
        for (int col = r.x / 32; col <= (r.x + r.w - 1) / 32; ++col) {
          covered[static_cast<std::size_t>(row * grid.cols() + col)]++;
        }
      }
    }
    for (std::size_t i = 0; i < grid.count(); ++i) {
      EXPECT_EQ(covered[i], dirty[i] != 0 ? 1 : 0) << "tile " << i;
    }
  }
}

// --------------------------------------------------------------- Filters ----

TEST(Filters, DownsampleAveragesBlocks) {
  d::ScalarVolume vol(4, 4, 4);
  for (auto& x : vol.raw()) x = 2.0f;
  vol.at(0, 0, 0) = 10.0f;
  const auto down = v::downsample(vol, 2);
  EXPECT_EQ(down.nx(), 2);
  EXPECT_NEAR(down.at(0, 0, 0), 3.0f, 1e-5f);  // (10 + 7*2)/8
  EXPECT_NEAR(down.at(1, 1, 1), 2.0f, 1e-5f);
  EXPECT_THROW(v::downsample(vol, 0), std::invalid_argument);
}

TEST(Filters, DownsampleOddExtentsKeepLastSlab) {
  // 5x3x1 by 2: the old floor division dropped the last column/row; ceil
  // keeps them as clamped partial blocks averaged over the voxels present.
  d::ScalarVolume vol(5, 3, 1);
  for (auto& x : vol.raw()) x = 1.0f;
  vol.at(4, 2, 0) = 9.0f;  // corner voxel that floor division discarded
  const auto down = v::downsample(vol, 2);
  EXPECT_EQ(down.nx(), 3);
  EXPECT_EQ(down.ny(), 2);
  EXPECT_EQ(down.nz(), 1);
  // Corner output block covers exactly voxel (4,2,0).
  EXPECT_NEAR(down.at(2, 1, 0), 9.0f, 1e-5f);
  // Interior block still averages a full 2x2 neighbourhood.
  EXPECT_NEAR(down.at(0, 0, 0), 1.0f, 1e-5f);
}

TEST(Filters, DownsampleByEightReducesBytes) {
  const d::ScalarVolume vol = d::make_viswoman(32, 32, 32);
  const auto down = v::downsample(vol, 2);
  EXPECT_EQ(down.bytes() * 8, vol.bytes());
}

TEST(Filters, CropMatchesSource) {
  const d::ScalarVolume vol = d::make_jet(16, 16, 16);
  const auto sub = v::crop(vol, 4, 4, 4, 12, 12, 12);
  EXPECT_EQ(sub.nx(), 8);
  EXPECT_FLOAT_EQ(sub.at(0, 0, 0), vol.at(4, 4, 4));
  EXPECT_FLOAT_EQ(sub.at(7, 7, 7), vol.at(11, 11, 11));
  EXPECT_THROW(v::crop(vol, 0, 0, 0, 20, 8, 8), std::invalid_argument);
  EXPECT_THROW(v::crop(vol, 5, 0, 0, 5, 8, 8), std::invalid_argument);
}

TEST(Filters, NormalizeRange) {
  d::ScalarVolume vol(4, 4, 4);
  vol.at(0, 0, 0) = -5.0f;
  vol.at(3, 3, 3) = 15.0f;
  const auto norm = v::normalize(vol);
  const auto [lo, hi] = norm.min_max();
  EXPECT_FLOAT_EQ(lo, 0.0f);
  EXPECT_FLOAT_EQ(hi, 1.0f);
  // Constant volume -> all zeros, no division by zero.
  d::ScalarVolume flat(4, 4, 4);
  for (auto& x : flat.raw()) x = 3.0f;
  const auto nflat = v::normalize(flat);
  EXPECT_FLOAT_EQ(nflat.at(2, 2, 2), 0.0f);
}

TEST(Filters, SmoothReducesVariance) {
  d::ScalarVolume vol(16, 16, 16);
  ricsa::util::Xoshiro256 rng(9);
  for (auto& x : vol.raw()) x = static_cast<float>(rng.uniform());
  const auto smoothed = v::smooth(vol);
  double var_before = 0, var_after = 0, mean_b = 0, mean_a = 0;
  for (const float x : vol.raw()) mean_b += x;
  for (const float x : smoothed.raw()) mean_a += x;
  mean_b /= static_cast<double>(vol.voxels());
  mean_a /= static_cast<double>(vol.voxels());
  for (const float x : vol.raw()) var_before += (x - mean_b) * (x - mean_b);
  for (const float x : smoothed.raw()) var_after += (x - mean_a) * (x - mean_a);
  EXPECT_LT(var_after, 0.5 * var_before);
  EXPECT_NEAR(mean_a, mean_b, 0.01);  // mean preserved
}

TEST(Filters, BandPassZeroesOutOfRange) {
  d::ScalarVolume vol(2, 2, 2);
  vol.at(0, 0, 0) = 0.5f;
  vol.at(1, 0, 0) = 2.0f;
  vol.at(0, 1, 0) = -1.0f;
  const auto bp = v::band_pass(vol, 0.0f, 1.0f);
  EXPECT_FLOAT_EQ(bp.at(0, 0, 0), 0.5f);
  EXPECT_FLOAT_EQ(bp.at(1, 0, 0), 0.0f);
  EXPECT_FLOAT_EQ(bp.at(0, 1, 0), 0.0f);
}

TEST(TileGrid, RowsEqualMatchesMemcmpAtEverySizeAndFlipPosition) {
  // The vectorized row comparison must be bit-identical to memcmp == 0 for
  // every length across the 16-byte block boundaries and for a difference
  // planted at every byte position — including the scalar tail.
  std::vector<std::uint8_t> a(67);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  for (std::size_t n = 0; n <= a.size(); ++n) {
    std::vector<std::uint8_t> b = a;
    EXPECT_TRUE(v::detail::rows_equal(a.data(), b.data(), n)) << "len " << n;
    for (std::size_t flip = 0; flip < n; ++flip) {
      b = a;
      b[flip] ^= 0x80;
      EXPECT_EQ(v::detail::rows_equal(a.data(), b.data(), n),
                std::memcmp(a.data(), b.data(), n) == 0)
          << "len " << n << " flip " << flip;
      EXPECT_FALSE(v::detail::rows_equal(a.data(), b.data(), n));
      // A compare that stops before the planted difference sees equality.
      EXPECT_TRUE(v::detail::rows_equal(a.data(), b.data(), flip));
    }
  }
}

TEST(TileGrid, VectorizedDiffMatchesMemcmpReferenceOnRandomFrames) {
  // Randomized end-to-end check: diff() (vectorized rows) against a
  // straight per-row memcmp reference over odd dimensions that force
  // partial edge tiles and non-multiple-of-16 row segments.
  ricsa::util::Xoshiro256 rng(20260808u);
  const int width = 53;
  const int height = 37;
  const v::TileGrid grid(width, height, 16);
  for (int round = 0; round < 8; ++round) {
    v::Image before(width, height, {10, 20, 30, 255});
    v::Image after = before;
    const int changes = static_cast<int>(rng.uniform(0.0, 12.0));
    for (int c = 0; c < changes; ++c) {
      const int x = static_cast<int>(rng.uniform(0.0, width - 1.0));
      const int y = static_cast<int>(rng.uniform(0.0, height - 1.0));
      after.at(x, y).r = static_cast<std::uint8_t>(rng.uniform(0.0, 255.0));
    }
    const v::TileSet dirty = grid.diff(before, after);
    v::TileSet expected(grid.count(), 0);
    const v::Rgba* a = before.pixels().data();
    const v::Rgba* b = after.pixels().data();
    for (std::size_t i = 0; i < grid.count(); ++i) {
      const v::TileRect r = grid.rect(i);
      for (int y = r.y; y < r.y + r.h; ++y) {
        const std::size_t off = static_cast<std::size_t>(y) * width + r.x;
        if (std::memcmp(a + off, b + off, r.w * sizeof(v::Rgba)) != 0) {
          expected[i] = 1;
          break;
        }
      }
    }
    EXPECT_EQ(dirty, expected) << "round " << round;
  }
}

namespace {

/// Per-pixel reference for changed_bounds: the box of every pixel whose
/// four channels differ anywhere.
std::optional<v::TileRect> brute_force_bounds(const v::Image& a,
                                              const v::Image& b) {
  int x0 = a.width(), y0 = a.height(), x1 = -1, y1 = -1;
  for (int y = 0; y < a.height(); ++y) {
    for (int x = 0; x < a.width(); ++x) {
      if (a.at(x, y) == b.at(x, y)) continue;
      x0 = std::min(x0, x);
      y0 = std::min(y0, y);
      x1 = std::max(x1, x);
      y1 = std::max(y1, y);
    }
  }
  if (x1 < 0) return std::nullopt;
  return v::TileRect{x0, y0, x1 - x0 + 1, y1 - y0 + 1};
}

}  // namespace

TEST(ChangedBounds, MatchesBruteForceBoxOnSeededPairs) {
  // Random sizes (1x1, single rows and single columns included), a few
  // scattered pixel changes each touching one channel (alpha too), plus
  // occasionally a whole random patch: the box must equal the per-pixel
  // reference, and nullopt exactly when no pixel differs.
  ricsa::util::Xoshiro256 rng(0x626f756e);
  int identical = 0;
  for (int round = 0; round < 600; ++round) {
    const int width = 1 + static_cast<int>(rng() % 41);
    const int height = round % 7 == 0 ? 1 : 1 + static_cast<int>(rng() % 29);
    v::Image before(width, height);
    for (int y = 0; y < height; ++y) {
      for (int x = 0; x < width; ++x) {
        const std::uint64_t bits = rng();
        before.at(x, y) = {static_cast<std::uint8_t>(bits),
                           static_cast<std::uint8_t>(bits >> 8),
                           static_cast<std::uint8_t>(bits >> 16),
                           static_cast<std::uint8_t>(bits >> 24)};
      }
    }
    v::Image after = before;
    const int changes = static_cast<int>(rng() % 5);
    for (int c = 0; c < changes; ++c) {
      v::Rgba& p = after.at(static_cast<int>(rng() % width),
                            static_cast<int>(rng() % height));
      std::uint8_t* channels[4] = {&p.r, &p.g, &p.b, &p.a};
      std::uint8_t& channel = *channels[rng() % 4];
      channel = static_cast<std::uint8_t>(channel ^ (1u + rng() % 255));
    }
    if (rng() % 4 == 0) {
      const int px = static_cast<int>(rng() % width);
      const int py = static_cast<int>(rng() % height);
      const int pw = 1 + static_cast<int>(rng() % (width - px));
      const int ph = 1 + static_cast<int>(rng() % (height - py));
      for (int y = py; y < py + ph; ++y) {
        for (int x = px; x < px + pw; ++x) after.at(x, y).g ^= 0x5a;
      }
    }
    const std::optional<v::TileRect> expected =
        brute_force_bounds(before, after);
    if (!expected) ++identical;
    EXPECT_EQ(v::changed_bounds(before, after), expected)
        << "round " << round << ": " << width << "x" << height;
  }
  EXPECT_GT(identical, 10);  // identical pairs are exercised too
}

TEST(ChangedBounds, EdgePixelsSinglesAndMismatchedSizes) {
  // 1x1: identical, then changed.
  v::Image one(1, 1, {1, 2, 3, 255});
  EXPECT_EQ(v::changed_bounds(one, one), std::nullopt);
  v::Image other = one;
  other.at(0, 0).a = 254;
  EXPECT_EQ(v::changed_bounds(one, other), (v::TileRect{0, 0, 1, 1}));
  // One row and one column, a change at each end and in the middle.
  for (const auto& [w, h] : {std::pair{37, 1}, std::pair{1, 23}}) {
    const v::Image base(w, h, {9, 9, 9, 255});
    for (const int at : {0, (w * h) / 2, w * h - 1}) {
      v::Image changed = base;
      const int x = w == 1 ? 0 : at;
      const int y = w == 1 ? at : 0;
      changed.at(x, y).b = 10;
      EXPECT_EQ(v::changed_bounds(base, changed), (v::TileRect{x, y, 1, 1}))
          << w << "x" << h << " at " << at;
    }
  }
  // Only the first pixel, only the last pixel, and both.
  const v::Image base(19, 13, {40, 50, 60, 255});
  v::Image first = base;
  first.at(0, 0).r = 41;
  EXPECT_EQ(v::changed_bounds(base, first), (v::TileRect{0, 0, 1, 1}));
  v::Image last = base;
  last.at(18, 12).r = 41;
  EXPECT_EQ(v::changed_bounds(base, last), (v::TileRect{18, 12, 1, 1}));
  last.at(0, 0).r = 41;
  EXPECT_EQ(v::changed_bounds(base, last), (v::TileRect{0, 0, 19, 13}));
  EXPECT_EQ(v::changed_bounds(base, base), std::nullopt);
  // Mismatched sizes throw, as TileGrid::diff does.
  EXPECT_THROW(v::changed_bounds(base, v::Image(19, 12)),
               std::invalid_argument);
  EXPECT_THROW(v::changed_bounds(base, v::Image(18, 13)),
               std::invalid_argument);
}
