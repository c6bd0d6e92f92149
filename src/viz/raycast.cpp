#include "viz/raycast.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>

namespace ricsa::viz {

using data::Vec3;

TransferFunction::TransferFunction(std::vector<Stop> stops)
    : stops_(std::move(stops)) {
  if (stops_.empty()) {
    throw std::invalid_argument("TransferFunction: need at least one stop");
  }
  for (std::size_t i = 1; i < stops_.size(); ++i) {
    if (stops_[i].value < stops_[i - 1].value) {
      throw std::invalid_argument("TransferFunction: stops must be sorted");
    }
  }
}

TransferFunction::Stop TransferFunction::sample(float value) const {
  if (value <= stops_.front().value) return stops_.front();
  if (value >= stops_.back().value) return stops_.back();
  for (std::size_t i = 1; i < stops_.size(); ++i) {
    if (value <= stops_[i].value) {
      const Stop& a = stops_[i - 1];
      const Stop& b = stops_[i];
      const float span = b.value - a.value;
      const float t = span > 0 ? (value - a.value) / span : 0.0f;
      return Stop{value, a.r + (b.r - a.r) * t, a.g + (b.g - a.g) * t,
                  a.b + (b.b - a.b) * t, a.a + (b.a - a.a) * t};
    }
  }
  return stops_.back();
}

TransferFunction TransferFunction::preset(float lo, float hi) {
  const float span = hi - lo;
  return TransferFunction({
      {lo, 0.05f, 0.05f, 0.3f, 0.0f},
      {lo + 0.4f * span, 0.2f, 0.5f, 0.8f, 0.02f},
      {lo + 0.7f * span, 0.9f, 0.6f, 0.3f, 0.12f},
      {hi, 1.0f, 0.95f, 0.85f, 0.35f},
  });
}

namespace {

struct Basis {
  Vec3 forward, right, up;
};

Basis camera_basis(float azimuth, float elevation) {
  const Vec3 forward{-std::cos(elevation) * std::cos(azimuth),
                     -std::cos(elevation) * std::sin(azimuth),
                     -std::sin(elevation)};
  const Vec3 world_up{0, 0, 1};
  Vec3 right = forward.cross(world_up);
  if (right.norm() < 1e-5f) right = Vec3{1, 0, 0};
  right = right.normalized();
  const Vec3 up = right.cross(forward).normalized();
  return {forward.normalized(), right, up};
}

/// Slab intersection of a ray with the volume AABB [0, n-1]^3.
bool intersect_aabb(const Vec3& origin, const Vec3& dir, const Vec3& hi,
                    float& t0, float& t1) {
  t0 = 0.0f;
  t1 = std::numeric_limits<float>::max();
  const float o[3] = {origin.x, origin.y, origin.z};
  const float d[3] = {dir.x, dir.y, dir.z};
  const float top[3] = {hi.x, hi.y, hi.z};
  for (int axis = 0; axis < 3; ++axis) {
    if (std::abs(d[axis]) < 1e-12f) {
      if (o[axis] < 0 || o[axis] > top[axis]) return false;
      continue;
    }
    float ta = (0 - o[axis]) / d[axis];
    float tb = (top[axis] - o[axis]) / d[axis];
    if (ta > tb) std::swap(ta, tb);
    t0 = std::max(t0, ta);
    t1 = std::min(t1, tb);
  }
  return t0 < t1;
}

}  // namespace

RayCastResult raycast(const data::ScalarVolume& volume,
                      const TransferFunction& tf,
                      const RayCastOptions& options) {
  RayCastResult result;
  result.image = Image(options.width, options.height, options.background);

  const Basis basis = camera_basis(options.azimuth, options.elevation);
  const Vec3 extent{static_cast<float>(volume.nx() - 1),
                    static_cast<float>(volume.ny() - 1),
                    static_cast<float>(volume.nz() - 1)};
  const Vec3 center = extent * 0.5f;
  const float radius = 0.5f * extent.norm();
  const float plane_half = radius * 1.05f;

  std::atomic<std::size_t> rays{0};
  std::atomic<std::size_t> samples{0};

  const auto render_rows = [&](std::size_t row_lo, std::size_t row_hi) {
    std::size_t local_rays = 0, local_samples = 0;
    for (std::size_t y = row_lo; y < row_hi; ++y) {
      for (int x = 0; x < options.width; ++x) {
        const float sx = (2.0f * (static_cast<float>(x) + 0.5f) /
                              static_cast<float>(options.width) -
                          1.0f) *
                         plane_half;
        const float sy = (1.0f - 2.0f * (static_cast<float>(y) + 0.5f) /
                                     static_cast<float>(options.height)) *
                         plane_half;
        const Vec3 origin = center + basis.right * sx + basis.up * sy -
                            basis.forward * (radius * 2.0f);
        float t0, t1;
        if (!intersect_aabb(origin, basis.forward, extent, t0, t1)) continue;
        ++local_rays;

        float acc_r = 0, acc_g = 0, acc_b = 0, acc_a = 0;
        for (float t = t0; t <= t1; t += options.step) {
          const Vec3 p = origin + basis.forward * t;
          const float v = volume.sample(p.x, p.y, p.z);
          ++local_samples;
          const TransferFunction::Stop s = tf.sample(v);
          const float w = (1.0f - acc_a) * s.a;
          acc_r += w * s.r;
          acc_g += w * s.g;
          acc_b += w * s.b;
          acc_a += w;
          if (options.early_termination && acc_a >= options.opacity_cutoff) {
            break;
          }
        }
        if (acc_a > 0.003f) {
          const auto to8 = [](float v8) {
            return static_cast<std::uint8_t>(
                std::clamp(v8 * 255.0f, 0.0f, 255.0f));
          };
          Rgba& px = result.image.at(x, static_cast<int>(y));
          const float bg = 1.0f - acc_a;
          px = Rgba{to8(acc_r + bg * static_cast<float>(px.r) / 255.0f),
                    to8(acc_g + bg * static_cast<float>(px.g) / 255.0f),
                    to8(acc_b + bg * static_cast<float>(px.b) / 255.0f), 255};
        }
      }
    }
    rays += local_rays;
    samples += local_samples;
  };

  util::parallel_for(options.pool, 0, static_cast<std::size_t>(options.height),
                     render_rows);
  result.rays = rays.load();
  result.samples = samples.load();
  return result;
}

RayGeometry estimate_raycast_counts(int nx, int ny, int nz,
                                    const RayCastOptions& options) {
  RayGeometry out;
  const Basis basis = camera_basis(options.azimuth, options.elevation);
  const Vec3 extent{static_cast<float>(nx - 1), static_cast<float>(ny - 1),
                    static_cast<float>(nz - 1)};
  const Vec3 center = extent * 0.5f;
  const float radius = 0.5f * extent.norm();
  const float plane_half = radius * 1.05f;
  for (int y = 0; y < options.height; ++y) {
    for (int x = 0; x < options.width; ++x) {
      const float sx = (2.0f * (static_cast<float>(x) + 0.5f) /
                            static_cast<float>(options.width) -
                        1.0f) *
                       plane_half;
      const float sy = (1.0f - 2.0f * (static_cast<float>(y) + 0.5f) /
                                   static_cast<float>(options.height)) *
                       plane_half;
      const Vec3 origin = center + basis.right * sx + basis.up * sy -
                          basis.forward * (radius * 2.0f);
      float t0, t1;
      if (!intersect_aabb(origin, basis.forward, extent, t0, t1)) continue;
      ++out.rays;
      // The sampling loop runs for t in [t0, t1] inclusive with the given
      // step: floor((t1 - t0) / step) + 1 samples.
      out.samples += static_cast<std::size_t>((t1 - t0) / options.step) + 1;
    }
  }
  return out;
}

}  // namespace ricsa::viz
