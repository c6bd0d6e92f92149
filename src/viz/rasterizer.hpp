// Software triangle rasterizer — the pipeline's rendering module ("converts
// the transformed geometric data to pixel-based images", Section 4.1). The
// paper's GaTech/OSU hosts lacked graphics cards, which is exactly the
// situation a software rasterizer models; nodes with `has_gpu` simply get a
// larger triangles/second constant in the cost model.
#pragma once

#include <array>

#include "util/thread_pool.hpp"
#include "viz/image.hpp"
#include "viz/mesh.hpp"

namespace ricsa::viz {

/// Column-major 4x4 matrix (m[col][row]).
struct Mat4 {
  std::array<std::array<float, 4>, 4> m{};

  static Mat4 identity();
  static Mat4 translation(const Vec3& t);
  static Mat4 scale(float s);
  static Mat4 rotation_z(float radians);
  static Mat4 rotation_y(float radians);
  static Mat4 rotation_x(float radians);
  static Mat4 look_at(const Vec3& eye, const Vec3& target, const Vec3& up);
  static Mat4 perspective(float fov_y_radians, float aspect, float near_z,
                          float far_z);
  static Mat4 orthographic(float half_width, float half_height, float near_z,
                           float far_z);

  Mat4 operator*(const Mat4& o) const;
  /// Transform a point (w-divide applied); returns w in out_w if non-null.
  Vec3 transform(const Vec3& p, float* out_w = nullptr) const;
  /// Transform a direction (no translation).
  Vec3 rotate(const Vec3& d) const;
};

struct RenderOptions {
  int width = 256;
  int height = 256;
  /// Camera orbit around the mesh bounds: azimuth/elevation (radians) and
  /// distance as a multiple of the bounding radius.
  float azimuth = 0.7f;
  float elevation = 0.35f;
  float distance = 2.6f;
  float fov_y = 0.9f;
  Vec3 light_dir{0.4f, 0.3f, 0.85f};
  Rgba base_color{200, 160, 90, 255};
  Rgba background{12, 12, 24, 255};
  /// Optional worker pool: vertices shade and row bands rasterize in
  /// parallel, bit-identical to the serial render. Null = serial.
  util::ThreadPool* pool = nullptr;
};

struct RenderResult {
  Image image;
  std::size_t triangles_drawn = 0;
  std::size_t pixels_shaded = 0;
};

/// Render the mesh with z-buffering and Lambert shading.
RenderResult render_mesh(const TriangleMesh& mesh,
                         const RenderOptions& options = {});

}  // namespace ricsa::viz
