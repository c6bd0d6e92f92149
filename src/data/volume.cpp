#include "data/volume.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace ricsa::data {

float Vec3::norm() const { return std::sqrt(x * x + y * y + z * z); }

Vec3 Vec3::normalized() const {
  const float n = norm();
  return n > 0 ? Vec3{x / n, y / n, z / n} : Vec3{};
}

ScalarVolume::ScalarVolume(int nx, int ny, int nz, std::string variable)
    : nx_(nx), ny_(ny), nz_(nz), variable_(std::move(variable)) {
  if (nx <= 0 || ny <= 0 || nz <= 0) {
    throw std::invalid_argument("ScalarVolume: dimensions must be positive");
  }
  data_.assign(static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny) *
                   static_cast<std::size_t>(nz),
               0.0f);
}

std::pair<float, float> ScalarVolume::min_max() const {
  float lo = std::numeric_limits<float>::max();
  float hi = std::numeric_limits<float>::lowest();
  for (const float v : data_) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  return {lo, hi};
}

VectorVolume::VectorVolume(int nx, int ny, int nz)
    : nx_(nx), ny_(ny), nz_(nz) {
  if (nx <= 0 || ny <= 0 || nz <= 0) {
    throw std::invalid_argument("VectorVolume: dimensions must be positive");
  }
  data_.assign(static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny) *
                   static_cast<std::size_t>(nz),
               Vec3{});
}

Vec3 VectorVolume::sample(float x, float y, float z) const {
  const detail::TrilinearWeights w =
      detail::clamp_weights(x, y, z, nx_, ny_, nz_);
  const auto lerp = [](const Vec3& a, const Vec3& b, float t) {
    return a + (b - a) * t;
  };
  const Vec3 c00 = lerp(at(w.x0, w.y0, w.z0), at(w.x1, w.y0, w.z0), w.fx);
  const Vec3 c10 = lerp(at(w.x0, w.y1, w.z0), at(w.x1, w.y1, w.z0), w.fx);
  const Vec3 c01 = lerp(at(w.x0, w.y0, w.z1), at(w.x1, w.y0, w.z1), w.fx);
  const Vec3 c11 = lerp(at(w.x0, w.y1, w.z1), at(w.x1, w.y1, w.z1), w.fx);
  const Vec3 c0 = lerp(c00, c10, w.fy);
  const Vec3 c1 = lerp(c01, c11, w.fy);
  return lerp(c0, c1, w.fz);
}

}  // namespace ricsa::data
