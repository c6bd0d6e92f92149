// Tests for volumes, block decomposition / octants, dataset generators and
// the RDF container format.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>

#include "data/generators.hpp"
#include "data/octree.hpp"
#include "data/rdf_io.hpp"
#include "data/volume.hpp"
#include "util/prng.hpp"

namespace d = ricsa::data;

// ----------------------------------------------------------------- Vec3 ----

TEST(Vec3, Arithmetic) {
  const d::Vec3 a{1, 2, 3}, b{4, 5, 6};
  EXPECT_FLOAT_EQ((a + b).x, 5);
  EXPECT_FLOAT_EQ((b - a).z, 3);
  EXPECT_FLOAT_EQ((a * 2).y, 4);
  EXPECT_FLOAT_EQ(a.dot(b), 32);
  const d::Vec3 c = d::Vec3{1, 0, 0}.cross(d::Vec3{0, 1, 0});
  EXPECT_FLOAT_EQ(c.z, 1);
  EXPECT_NEAR((d::Vec3{3, 4, 0}).norm(), 5.0f, 1e-6f);
  EXPECT_NEAR((d::Vec3{0, 0, 9}).normalized().z, 1.0f, 1e-6f);
  EXPECT_FLOAT_EQ((d::Vec3{}).normalized().norm(), 0.0f);  // zero-safe
}

// --------------------------------------------------------- ScalarVolume ----

TEST(ScalarVolume, IndexingAndBytes) {
  d::ScalarVolume v(4, 5, 6, "rho");
  EXPECT_EQ(v.voxels(), 120u);
  EXPECT_EQ(v.bytes(), 480u);
  EXPECT_EQ(v.variable(), "rho");
  v.at(3, 4, 5) = 7.5f;
  EXPECT_FLOAT_EQ(v.at(3, 4, 5), 7.5f);
  EXPECT_THROW(v.at(4, 0, 0), std::out_of_range);
  EXPECT_THROW(v.at(0, -1, 0), std::out_of_range);
  EXPECT_THROW(d::ScalarVolume(0, 1, 1), std::invalid_argument);
}

TEST(ScalarVolume, TrilinearSampleExactAtVoxels) {
  d::ScalarVolume v(3, 3, 3);
  for (int z = 0; z < 3; ++z)
    for (int y = 0; y < 3; ++y)
      for (int x = 0; x < 3; ++x) v.at(x, y, z) = static_cast<float>(x + 10 * y + 100 * z);
  EXPECT_FLOAT_EQ(v.sample(1, 2, 0), 21.0f);
  EXPECT_FLOAT_EQ(v.sample(0.5f, 0, 0), 0.5f);      // linear in x
  EXPECT_FLOAT_EQ(v.sample(0, 0.5f, 0), 5.0f);      // linear in y
  EXPECT_FLOAT_EQ(v.sample(0, 0, 0.5f), 50.0f);     // linear in z
  EXPECT_FLOAT_EQ(v.sample(-5, -5, -5), 0.0f);      // clamped
  EXPECT_FLOAT_EQ(v.sample(99, 99, 99), 222.0f);    // clamped
}

TEST(ScalarVolume, SampleReproducesLinearField) {
  d::ScalarVolume v = d::make_ramp(8, 8, 8);
  EXPECT_NEAR(v.sample(3.25f, 2.0f, 5.5f), 3.25f, 1e-5f);
}

TEST(ScalarVolume, GradientOfRampIsUnitX) {
  d::ScalarVolume v = d::make_ramp(16, 16, 16);
  const d::Vec3 g = v.gradient(8, 8, 8);
  EXPECT_NEAR(g.x, 1.0f, 1e-5f);
  EXPECT_NEAR(g.y, 0.0f, 1e-5f);
  EXPECT_NEAR(g.z, 0.0f, 1e-5f);
}

namespace {

/// The trilinear sampler as it stood before sample() went inline: the same
/// clamps and float operations, every corner read through the
/// bounds-checked at().
float checked_sample(const d::ScalarVolume& v, float x, float y, float z) {
  const auto clampf = [](float t, float lo, float hi) {
    return t < lo ? lo : (t > hi ? hi : t);
  };
  x = clampf(x, 0.0f, static_cast<float>(v.nx() - 1));
  y = clampf(y, 0.0f, static_cast<float>(v.ny() - 1));
  z = clampf(z, 0.0f, static_cast<float>(v.nz() - 1));
  const int x0 = static_cast<int>(x), y0 = static_cast<int>(y),
            z0 = static_cast<int>(z);
  const int x1 = std::min(x0 + 1, v.nx() - 1);
  const int y1 = std::min(y0 + 1, v.ny() - 1);
  const int z1 = std::min(z0 + 1, v.nz() - 1);
  const float fx = x - static_cast<float>(x0);
  const float fy = y - static_cast<float>(y0);
  const float fz = z - static_cast<float>(z0);
  const float c000 = v.at(x0, y0, z0), c100 = v.at(x1, y0, z0);
  const float c010 = v.at(x0, y1, z0), c110 = v.at(x1, y1, z0);
  const float c001 = v.at(x0, y0, z1), c101 = v.at(x1, y0, z1);
  const float c011 = v.at(x0, y1, z1), c111 = v.at(x1, y1, z1);
  const float c00 = c000 + (c100 - c000) * fx;
  const float c10 = c010 + (c110 - c010) * fx;
  const float c01 = c001 + (c101 - c001) * fx;
  const float c11 = c011 + (c111 - c011) * fx;
  const float c0 = c00 + (c10 - c00) * fy;
  const float c1 = c01 + (c11 - c01) * fy;
  return c0 + (c1 - c0) * fz;
}

d::Vec3 checked_gradient(const d::ScalarVolume& v, float x, float y,
                         float z) {
  const float h = 1.0f;
  return d::Vec3{
      (checked_sample(v, x + h, y, z) - checked_sample(v, x - h, y, z)) * 0.5f,
      (checked_sample(v, x, y + h, z) - checked_sample(v, x, y - h, z)) * 0.5f,
      (checked_sample(v, x, y, z + h) - checked_sample(v, x, y, z - h)) *
          0.5f};
}

bool same_bits(float a, float b) {
  return std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
}

}  // namespace

TEST(ScalarVolume, SampleAndGradientMatchTheCheckedReference) {
  // Seeded points inside, on and beyond the bounds of noise volumes,
  // including axes of extent 1, must sample to the reference's bits. A
  // corner of zero weight still enters the arithmetic, and an infinite
  // value there makes the sample NaN, so a few voxels are infinite: a
  // sampler that reads a wrong corner at a bound differs in its bits.
  ricsa::util::Xoshiro256 rng(17);
  const std::array<std::array<int, 3>, 5> shapes = {
      {{13, 11, 7}, {1, 7, 5}, {6, 1, 1}, {9, 4, 1}, {1, 1, 1}}};
  const float inf = std::numeric_limits<float>::infinity();
  std::size_t points = 0;
  for (const auto& [nx, ny, nz] : shapes) {
    d::ScalarVolume vol(nx, ny, nz);
    for (float& value : vol.raw()) {
      value = static_cast<float>(rng.uniform(-5.0, 5.0));
      if (rng.bernoulli(0.05)) value = rng.bernoulli(0.5) ? inf : -inf;
    }
    const auto coordinate = [&rng](int n) {
      const int top = n - 1;
      switch (rng.uniform_int(0, 3)) {
        case 0:  // a lattice plane, the two bounds included
          return static_cast<float>(rng.uniform_int(0, top));
        case 1:  // exactly on a bound
          return static_cast<float>(rng.bernoulli(0.5) ? 0 : top);
        case 2:  // beyond the bounds, or inside
          return static_cast<float>(rng.uniform(-3.0, top + 3.0));
        default:  // inside
          return static_cast<float>(rng.uniform(0.0, top));
      }
    };
    for (int i = 0; i < 24000; ++i, ++points) {
      const float x = coordinate(nx), y = coordinate(ny), z = coordinate(nz);
      const float s = vol.sample(x, y, z);
      ASSERT_TRUE(same_bits(s, checked_sample(vol, x, y, z)))
          << nx << "x" << ny << "x" << nz << " at " << x << "," << y << ","
          << z;
      const d::Vec3 g = vol.gradient(x, y, z);
      const d::Vec3 r = checked_gradient(vol, x, y, z);
      ASSERT_TRUE(same_bits(g.x, r.x) && same_bits(g.y, r.y) &&
                  same_bits(g.z, r.z))
          << nx << "x" << ny << "x" << nz << " at " << x << "," << y << ","
          << z;
    }
  }
  EXPECT_GE(points, 100000u);
}

TEST(ScalarVolume, MinMax) {
  d::ScalarVolume v(2, 2, 2);
  v.at(0, 0, 0) = -3.0f;
  v.at(1, 1, 1) = 9.0f;
  const auto [lo, hi] = v.min_max();
  EXPECT_FLOAT_EQ(lo, -3.0f);
  EXPECT_FLOAT_EQ(hi, 9.0f);
}

// --------------------------------------------------------- VectorVolume ----

TEST(VectorVolume, SampleInterpolates) {
  d::VectorVolume v(2, 2, 2);
  v.at(0, 0, 0) = {0, 0, 0};
  v.at(1, 0, 0) = {2, 0, 0};
  const d::Vec3 s = v.sample(0.5f, 0, 0);
  EXPECT_NEAR(s.x, 1.0f, 1e-6f);
  EXPECT_TRUE(v.inside(0.5f, 0.5f, 0.5f));
  EXPECT_FALSE(v.inside(1.5f, 0, 0));
  EXPECT_FALSE(v.inside(-0.1f, 0, 0));
}

// --------------------------------------------------- BlockDecomposition ----

TEST(Blocks, CoversAllCellsExactlyOnce) {
  const d::ScalarVolume v = d::make_sphere(33, 12.0f);
  const d::BlockDecomposition blocks(v, 8);
  std::int64_t cells = 0;
  for (const auto& b : blocks.blocks()) cells += b.cells();
  EXPECT_EQ(cells, 32LL * 32 * 32);
}

TEST(Blocks, RangesAreConservative) {
  const d::ScalarVolume v = d::make_sphere(17, 6.0f);
  const d::BlockDecomposition blocks(v, 4);
  for (const auto& b : blocks.blocks()) {
    for (int z = b.z0; z <= b.z1; ++z) {
      for (int y = b.y0; y <= b.y1; ++y) {
        for (int x = b.x0; x <= b.x1; ++x) {
          EXPECT_GE(v.at(x, y, z), b.min);
          EXPECT_LE(v.at(x, y, z), b.max);
        }
      }
    }
  }
}

TEST(Blocks, ActiveBlockCullingMatchesBruteForce) {
  const d::ScalarVolume v = d::make_sphere(25, 9.0f);
  const d::BlockDecomposition blocks(v, 8);
  const float iso = 0.0f;
  std::size_t manual = 0;
  for (const auto& b : blocks.blocks()) manual += (b.min <= iso && iso <= b.max);
  EXPECT_EQ(blocks.active_blocks(iso), manual);
  EXPECT_GT(blocks.active_blocks(iso), 0u);
  EXPECT_LT(blocks.active_blocks(iso), blocks.blocks().size());
  // An isovalue outside the data range activates nothing.
  EXPECT_EQ(blocks.active_blocks(1e9f), 0u);
}

TEST(Blocks, OctantsPartitionBlocks) {
  const d::ScalarVolume v = d::make_sphere(33, 10.0f);
  const d::BlockDecomposition blocks(v, 8);
  std::size_t total = 0;
  for (int o = 0; o < 8; ++o) total += blocks.octant_blocks(o).size();
  EXPECT_EQ(total, blocks.blocks().size());
  EXPECT_THROW(blocks.octant_blocks(8), std::invalid_argument);
}

TEST(Blocks, OctantVolumeDimensions) {
  const d::ScalarVolume v = d::make_sphere(32, 10.0f);
  const d::ScalarVolume oct0 = d::BlockDecomposition::octant_volume(v, 0);
  EXPECT_EQ(oct0.nx(), 17);  // lower half + shared midplane
  const d::ScalarVolume oct7 = d::BlockDecomposition::octant_volume(v, 7);
  EXPECT_EQ(oct7.nx(), 16);
  // Octant 7's first voxel equals the parent's mid voxel.
  EXPECT_FLOAT_EQ(oct7.at(0, 0, 0), v.at(16, 16, 16));
}

TEST(Blocks, RejectsDegenerateInput) {
  const d::ScalarVolume v = d::make_sphere(8, 3.0f);
  EXPECT_THROW(d::BlockDecomposition(v, 0), std::invalid_argument);
  d::ScalarVolume flat(1, 8, 8);
  EXPECT_THROW(d::BlockDecomposition(flat, 4), std::invalid_argument);
}

// ----------------------------------------------------------- Generators ----

TEST(Generators, Deterministic) {
  const d::ScalarVolume a = d::make_jet(16, 16, 16, 42);
  const d::ScalarVolume b = d::make_jet(16, 16, 16, 42);
  const d::ScalarVolume c = d::make_jet(16, 16, 16, 43);
  EXPECT_EQ(a.raw(), b.raw());
  EXPECT_NE(a.raw(), c.raw());
}

TEST(Generators, JetHasCentralPlume) {
  const d::ScalarVolume v = d::make_jet(32, 32, 32);
  // Core of the plume is denser than the corner.
  EXPECT_GT(v.at(16, 16, 4), v.at(1, 1, 4));
}

TEST(Generators, RageHasShellStructure) {
  const d::ScalarVolume v = d::make_rage(48, 48, 48);
  const int c = 24;
  const float center = v.at(c, c, c);
  const float shell = v.at(c + 15, c, c);  // near the blast front (0.62*24~15)
  const float corner = v.at(1, 1, 1);
  EXPECT_GT(shell, center);
  EXPECT_GT(shell, corner);
}

TEST(Generators, ViswomanHasTissueBands) {
  const d::ScalarVolume v = d::make_viswoman(48, 48, 48);
  const auto [lo, hi] = v.min_max();
  EXPECT_LT(lo, 0.1f);  // air
  EXPECT_GT(hi, 0.8f);  // bone
}

TEST(Generators, SphereIsoSurfaceAtKnownRadius) {
  const d::ScalarVolume v = d::make_sphere(33, 10.0f);
  EXPECT_GT(v.at(16, 16, 16), 0.0f);  // inside positive
  EXPECT_LT(v.at(0, 0, 0), 0.0f);     // corner negative
  EXPECT_NEAR(v.at(26, 16, 16), 0.0f, 1e-4f);  // on the surface
}

TEST(Generators, PaperScaleSpecsMatchQuotedBytes) {
  EXPECT_EQ(d::dataset_spec("jet").bytes, 16384000u);       // ~16 MB
  EXPECT_EQ(d::dataset_spec("rage").bytes, 64012032u);      // ~64 MB
  EXPECT_EQ(d::dataset_spec("viswoman").bytes, 108000000u); // ~108 MB
  EXPECT_THROW(d::dataset_spec("nope"), std::invalid_argument);
}

TEST(Generators, ScaledDatasetFactory) {
  const d::ScalarVolume v = d::make_dataset("jet", 0.1);
  EXPECT_EQ(v.nx(), 16);
  EXPECT_GT(v.bytes(), 0u);
}

TEST(Generators, VectorFields) {
  const d::VectorVolume rot = d::make_rotation(17);
  // Solid-body rotation: velocity at center is ~0, at edge is tangential.
  EXPECT_NEAR(rot.at(8, 8, 8).norm(), 0.0f, 1e-5f);
  EXPECT_GT(rot.at(16, 8, 8).norm(), 7.0f);
  const d::VectorVolume uni = d::make_uniform_flow(9);
  EXPECT_FLOAT_EQ(uni.at(4, 4, 4).x, 1.0f);
  const d::VectorVolume tor = d::make_tornado(17);
  EXPECT_GT(tor.at(2, 2, 8).z, 0.0f);  // updraft everywhere
}

// ------------------------------------------------------------------ RDF ----

TEST(Rdf, SerializeRoundTrip) {
  const d::ScalarVolume v = d::make_jet(12, 10, 8, 5);
  const auto bytes = d::rdf_serialize(v);
  const d::ScalarVolume back = d::rdf_deserialize(bytes);
  EXPECT_EQ(back.nx(), 12);
  EXPECT_EQ(back.ny(), 10);
  EXPECT_EQ(back.nz(), 8);
  EXPECT_EQ(back.variable(), v.variable());
  EXPECT_EQ(back.raw(), v.raw());
}

TEST(Rdf, FileRoundTrip) {
  const auto path = std::filesystem::temp_directory_path() / "ricsa_test.rdf";
  const d::ScalarVolume v = d::make_sphere(9, 3.0f);
  d::rdf_write(path.string(), v);
  const d::ScalarVolume back = d::rdf_read(path.string());
  EXPECT_EQ(back.raw(), v.raw());
  std::filesystem::remove(path);
}

TEST(Rdf, RejectsCorruptInput) {
  const d::ScalarVolume v = d::make_sphere(5, 2.0f);
  auto bytes = d::rdf_serialize(v);
  bytes[0] ^= 0xFF;  // break magic
  EXPECT_THROW(d::rdf_deserialize(bytes), std::runtime_error);
  auto truncated = d::rdf_serialize(v);
  truncated.resize(truncated.size() / 2);
  EXPECT_THROW(d::rdf_deserialize(truncated), std::runtime_error);
  EXPECT_THROW(d::rdf_read("/nonexistent/path.rdf"), std::runtime_error);
}
