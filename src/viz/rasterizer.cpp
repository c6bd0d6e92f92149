#include "viz/rasterizer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace ricsa::viz {

namespace {

/// Row bands (and triangle-setup chunks) per thread of a lent pool: enough
/// that bands crowded with triangles leave the sparse ones to other
/// threads.
constexpr std::size_t kBandsPerThread = 4;

/// A drawn triangle: its vertices and the pixels whose centres its bounds
/// hold, clamped to the image (an empty range when they hold none).
struct TriangleSetup {
  std::uint32_t a, b, c;
  int x0, x1, y0, y1;
  float inv_area;
};

/// Z-buffered Gouraud fill of rows [y0, y1] of one triangle into images of
/// `width` columns; returns the pixels shaded. A pixel is shaded when its
/// centre is inside the triangle and nearer than the z-buffer: the four
/// tests are taken together, in one branch, which costs less on the small
/// triangles of an isosurface than four branches that mispredict.
std::size_t rasterize(const TriangleSetup& tri, int y0, int y1,
                      const Vec3* screen, const float* shade, Rgba color,
                      std::size_t width, float* zbuf, Rgba* pixels) {
  const Vec3 a = screen[tri.a];
  const Vec3 b = screen[tri.b];
  const Vec3 c = screen[tri.c];
  const float sa = shade[tri.a], sb = shade[tri.b], sc = shade[tri.c];
  const int x0 = tri.x0, x1 = tri.x1;
  const float inv_area = tri.inv_area;
  std::size_t shaded = 0;
  for (int y = y0; y <= y1; ++y) {
    float* const zrow = zbuf + static_cast<std::size_t>(y) * width;
    Rgba* const row = pixels + static_cast<std::size_t>(y) * width;
    for (int x = x0; x <= x1; ++x) {
      const float px = static_cast<float>(x) + 0.5f;
      const float py = static_cast<float>(y) + 0.5f;
      const float w0 = ((b.x - px) * (c.y - py) - (b.y - py) * (c.x - px)) * inv_area;
      const float w1 = ((c.x - px) * (a.y - py) - (c.y - py) * (a.x - px)) * inv_area;
      const float w2 = 1.0f - w0 - w1;
      const float z = w0 * a.z + w1 * b.z + w2 * c.z;
      float& zref = zrow[x];
      const bool shade_it = !(w0 < 0) & !(w1 < 0) & !(w2 < 0) & !(z >= zref);
      if (!shade_it) continue;
      zref = z;
      const float s = w0 * sa + w1 * sb + w2 * sc;
      const auto to8 = [s](std::uint8_t base) {
        return static_cast<std::uint8_t>(
            std::clamp(s * static_cast<float>(base), 0.0f, 255.0f));
      };
      row[x] = Rgba{to8(color.r), to8(color.g), to8(color.b), 255};
      ++shaded;
    }
  }
  return shaded;
}

}  // namespace

Mat4 Mat4::identity() {
  Mat4 r;
  for (int i = 0; i < 4; ++i) r.m[static_cast<std::size_t>(i)][static_cast<std::size_t>(i)] = 1.0f;
  return r;
}

Mat4 Mat4::translation(const Vec3& t) {
  Mat4 r = identity();
  r.m[3][0] = t.x;
  r.m[3][1] = t.y;
  r.m[3][2] = t.z;
  return r;
}

Mat4 Mat4::scale(float s) {
  Mat4 r = identity();
  r.m[0][0] = r.m[1][1] = r.m[2][2] = s;
  return r;
}

Mat4 Mat4::rotation_z(float a) {
  Mat4 r = identity();
  r.m[0][0] = std::cos(a);
  r.m[0][1] = std::sin(a);
  r.m[1][0] = -std::sin(a);
  r.m[1][1] = std::cos(a);
  return r;
}

Mat4 Mat4::rotation_y(float a) {
  Mat4 r = identity();
  r.m[0][0] = std::cos(a);
  r.m[0][2] = -std::sin(a);
  r.m[2][0] = std::sin(a);
  r.m[2][2] = std::cos(a);
  return r;
}

Mat4 Mat4::rotation_x(float a) {
  Mat4 r = identity();
  r.m[1][1] = std::cos(a);
  r.m[1][2] = std::sin(a);
  r.m[2][1] = -std::sin(a);
  r.m[2][2] = std::cos(a);
  return r;
}

Mat4 Mat4::look_at(const Vec3& eye, const Vec3& target, const Vec3& up) {
  const Vec3 f = (target - eye).normalized();
  const Vec3 s = f.cross(up).normalized();
  const Vec3 u = s.cross(f);
  Mat4 r = identity();
  r.m[0][0] = s.x;  r.m[1][0] = s.y;  r.m[2][0] = s.z;
  r.m[0][1] = u.x;  r.m[1][1] = u.y;  r.m[2][1] = u.z;
  r.m[0][2] = -f.x; r.m[1][2] = -f.y; r.m[2][2] = -f.z;
  r.m[3][0] = -s.dot(eye);
  r.m[3][1] = -u.dot(eye);
  r.m[3][2] = f.dot(eye);
  return r;
}

Mat4 Mat4::perspective(float fov_y, float aspect, float near_z, float far_z) {
  const float f = 1.0f / std::tan(fov_y / 2.0f);
  Mat4 r;
  r.m[0][0] = f / aspect;
  r.m[1][1] = f;
  r.m[2][2] = (far_z + near_z) / (near_z - far_z);
  r.m[2][3] = -1.0f;
  r.m[3][2] = 2.0f * far_z * near_z / (near_z - far_z);
  return r;
}

Mat4 Mat4::orthographic(float half_w, float half_h, float near_z, float far_z) {
  Mat4 r = identity();
  r.m[0][0] = 1.0f / half_w;
  r.m[1][1] = 1.0f / half_h;
  r.m[2][2] = -2.0f / (far_z - near_z);
  r.m[3][2] = -(far_z + near_z) / (far_z - near_z);
  return r;
}

Mat4 Mat4::operator*(const Mat4& o) const {
  Mat4 r;
  for (int c = 0; c < 4; ++c) {
    for (int row = 0; row < 4; ++row) {
      float sum = 0;
      for (int k = 0; k < 4; ++k) {
        sum += m[static_cast<std::size_t>(k)][static_cast<std::size_t>(row)] *
               o.m[static_cast<std::size_t>(c)][static_cast<std::size_t>(k)];
      }
      r.m[static_cast<std::size_t>(c)][static_cast<std::size_t>(row)] = sum;
    }
  }
  return r;
}

Vec3 Mat4::transform(const Vec3& p, float* out_w) const {
  const float x = m[0][0] * p.x + m[1][0] * p.y + m[2][0] * p.z + m[3][0];
  const float y = m[0][1] * p.x + m[1][1] * p.y + m[2][1] * p.z + m[3][1];
  const float z = m[0][2] * p.x + m[1][2] * p.y + m[2][2] * p.z + m[3][2];
  const float w = m[0][3] * p.x + m[1][3] * p.y + m[2][3] * p.z + m[3][3];
  if (out_w) *out_w = w;
  const float inv = (w != 0.0f) ? 1.0f / w : 1.0f;
  return Vec3{x * inv, y * inv, z * inv};
}

Vec3 Mat4::rotate(const Vec3& d) const {
  return Vec3{m[0][0] * d.x + m[1][0] * d.y + m[2][0] * d.z,
              m[0][1] * d.x + m[1][1] * d.y + m[2][1] * d.z,
              m[0][2] * d.x + m[1][2] * d.y + m[2][2] * d.z};
}

RenderResult render_mesh(const TriangleMesh& mesh, const RenderOptions& opt) {
  RenderResult result;
  result.image = Image(opt.width, opt.height, opt.background);
  if (mesh.triangle_count() == 0) return result;

  const auto [lo, hi] = mesh.bounds();
  const Vec3 center = (lo + hi) * 0.5f;
  const float radius = std::max(1e-3f, ((hi - lo) * 0.5f).norm());

  const Vec3 eye =
      center + Vec3{std::cos(opt.elevation) * std::cos(opt.azimuth),
                    std::cos(opt.elevation) * std::sin(opt.azimuth),
                    std::sin(opt.elevation)} *
                   (radius * opt.distance);
  const Mat4 view = Mat4::look_at(eye, center, Vec3{0, 0, 1});
  const Mat4 proj = Mat4::perspective(
      opt.fov_y, static_cast<float>(opt.width) / static_cast<float>(opt.height),
      0.1f * radius, 10.0f * radius);
  const Mat4 mvp = proj * view;
  const Vec3 light = opt.light_dir.normalized();

  std::vector<float> zbuf(static_cast<std::size_t>(opt.width) *
                              static_cast<std::size_t>(opt.height),
                          std::numeric_limits<float>::max());

  // Pre-shade vertices (Gouraud): Lambert with two-sided normals + ambient.
  const std::size_t nv = mesh.vertex_count();
  std::vector<Vec3> screen(nv);
  std::vector<float> shade(nv);
  std::vector<std::uint8_t> valid(nv);
  util::parallel_for(opt.pool, 0, nv, [&](std::size_t lo, std::size_t hi) {
    // Local copies: the stores below could alias the captured originals,
    // which would then be reloaded for every vertex.
    const Mat4 m = mvp;
    const Vec3 l = light;
    const auto width = static_cast<float>(opt.width);
    const auto height = static_cast<float>(opt.height);
    const Vec3* const positions = mesh.positions().data();
    const Vec3* const normals = mesh.normals().data();
    for (std::size_t i = lo; i < hi; ++i) {
      float w = 1;
      const Vec3 ndc = m.transform(positions[i], &w);
      valid[i] = w > 0;  // behind-camera vertices are culled with the triangle
      screen[i] = Vec3{(ndc.x * 0.5f + 0.5f) * width,
                       (0.5f - ndc.y * 0.5f) * height, ndc.z};
      const float lambert = std::abs(normals[i].dot(l));
      shade[i] = 0.25f + 0.75f * std::clamp(lambert, 0.0f, 1.0f);
    }
  });

  // Row bands own their rows of the image and z-buffer. Triangles are set
  // up in contiguous index chunks; each chunk keeps its drawn triangles in
  // index order and, per band, the positions of those touching the band.
  // A band then rasterizes chunk after chunk, so every pixel sees the
  // serial sequence of depth tests and any split renders the serial image.
  const std::size_t parts =
      opt.pool ? kBandsPerThread * (opt.pool->size() + 1) : 1;
  const int band_rows =
      std::max(1, (opt.height + static_cast<int>(parts) - 1) /
                      static_cast<int>(parts));
  const auto bands =
      static_cast<std::size_t>((opt.height + band_rows - 1) / band_rows);
  const std::size_t triangles = mesh.indices().size() / 3;
  const std::size_t chunks =
      std::min(parts, std::max<std::size_t>(1, triangles));
  std::vector<std::vector<TriangleSetup>> setups(chunks);
  std::vector<std::vector<std::uint32_t>> binned(chunks * bands);
  util::parallel_for(opt.pool, 0, chunks, [&](std::size_t lo, std::size_t hi) {
    const auto& idx = mesh.indices();
    for (std::size_t chunk = lo; chunk < hi; ++chunk) {
      const std::size_t first = chunk * triangles / chunks;
      const std::size_t last = (chunk + 1) * triangles / chunks;
      std::vector<TriangleSetup>& drawn = setups[chunk];
      drawn.reserve(last - first);
      std::vector<std::uint32_t>* bins = &binned[chunk * bands];
      for (std::size_t t = first; t < last; ++t) {
        const std::uint32_t ia = idx[3 * t], ib = idx[3 * t + 1],
                            ic = idx[3 * t + 2];
        if (!valid[ia] || !valid[ib] || !valid[ic]) continue;
        const Vec3& a = screen[ia];
        const Vec3& b = screen[ib];
        const Vec3& c = screen[ic];

        const float min_x = std::min({a.x, b.x, c.x});
        const float max_x = std::max({a.x, b.x, c.x});
        const float min_y = std::min({a.y, b.y, c.y});
        const float max_y = std::max({a.y, b.y, c.y});
        if (max_x < 0 || max_y < 0 ||
            min_x >= static_cast<float>(opt.width) ||
            min_y >= static_cast<float>(opt.height)) {
          continue;
        }
        const float area =
            (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x);
        if (std::abs(area) < 1e-9f) continue;
        // Pixel (x, y) is tested when its centre (x + 0.5, y + 0.5) lies in
        // the bounds. A triangle between centres counts as drawn but is
        // binned into no band.
        const TriangleSetup& setup = drawn.emplace_back(TriangleSetup{
            ia, ib, ic,
            std::max(0, static_cast<int>(std::ceil(min_x - 0.5f))),
            std::min(opt.width - 1,
                     static_cast<int>(std::floor(max_x - 0.5f))),
            std::max(0, static_cast<int>(std::ceil(min_y - 0.5f))),
            std::min(opt.height - 1,
                     static_cast<int>(std::floor(max_y - 0.5f))),
            1.0f / area});
        if (setup.x0 > setup.x1 || setup.y0 > setup.y1) continue;
        const auto at = static_cast<std::uint32_t>(drawn.size() - 1);
        for (int band = setup.y0 / band_rows; band <= setup.y1 / band_rows;
             ++band) {
          bins[static_cast<std::size_t>(band)].push_back(at);
        }
      }
    }
  });
  for (const auto& drawn : setups) result.triangles_drawn += drawn.size();

  const auto width = static_cast<std::size_t>(opt.width);
  // The image's pixels, written through its first row's address: bands
  // write disjoint rows.
  Rgba* const pixels = &result.image.at(0, 0);
  std::vector<std::size_t> shaded(bands, 0);
  util::parallel_for(opt.pool, 0, bands, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t band = lo; band < hi; ++band) {
      const int row0 = static_cast<int>(band) * band_rows;
      const int row1 = std::min(opt.height, row0 + band_rows) - 1;
      std::size_t count = 0;
      for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
        const std::vector<TriangleSetup>& drawn = setups[chunk];
        for (const std::uint32_t i : binned[chunk * bands + band]) {
          const TriangleSetup& tri = drawn[i];
          count += rasterize(tri, std::max(tri.y0, row0),
                             std::min(tri.y1, row1), screen.data(),
                             shade.data(), opt.base_color, width, zbuf.data(),
                             pixels);
        }
      }
      shaded[band] = count;
    }
  });
  for (const std::size_t n : shaded) result.pixels_shaded += n;
  return result;
}

}  // namespace ricsa::viz
