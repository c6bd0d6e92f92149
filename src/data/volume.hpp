// Regular-grid scalar and vector fields — the "raw data" of the paper's
// visualization pipeline (Section 4.1): multivariate simulation output
// organized in CDF/HDF/NetCDF-like structures, here a dense float32 grid.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace ricsa::data {

struct Vec3 {
  float x = 0, y = 0, z = 0;

  Vec3 operator+(const Vec3& o) const { return {x + o.x, y + o.y, z + o.z}; }
  Vec3 operator-(const Vec3& o) const { return {x - o.x, y - o.y, z - o.z}; }
  Vec3 operator*(float s) const { return {x * s, y * s, z * s}; }
  float dot(const Vec3& o) const { return x * o.x + y * o.y + z * o.z; }
  Vec3 cross(const Vec3& o) const {
    return {y * o.z - z * o.y, z * o.x - x * o.z, x * o.y - y * o.x};
  }
  float norm() const;
  Vec3 normalized() const;
};

namespace detail {

/// The eight corners and the weights of a trilinear sample, its coordinates
/// clamped to [0, n-1] on each axis first, so every corner is in the grid.
struct TrilinearWeights {
  int x0, y0, z0, x1, y1, z1;
  float fx, fy, fz;
};

inline TrilinearWeights clamp_weights(float x, float y, float z, int nx,
                                      int ny, int nz) {
  const auto clampf = [](float v, float lo, float hi) {
    return v < lo ? lo : (v > hi ? hi : v);
  };
  x = clampf(x, 0.0f, static_cast<float>(nx - 1));
  y = clampf(y, 0.0f, static_cast<float>(ny - 1));
  z = clampf(z, 0.0f, static_cast<float>(nz - 1));
  TrilinearWeights w;
  w.x0 = static_cast<int>(x);
  w.y0 = static_cast<int>(y);
  w.z0 = static_cast<int>(z);
  w.x1 = std::min(w.x0 + 1, nx - 1);
  w.y1 = std::min(w.y0 + 1, ny - 1);
  w.z1 = std::min(w.z0 + 1, nz - 1);
  w.fx = x - static_cast<float>(w.x0);
  w.fy = y - static_cast<float>(w.y0);
  w.fz = z - static_cast<float>(w.z0);
  return w;
}

}  // namespace detail

/// Dense 3D scalar field, x-fastest layout.
class ScalarVolume {
 public:
  ScalarVolume() = default;
  ScalarVolume(int nx, int ny, int nz, std::string variable = "value");

  int nx() const noexcept { return nx_; }
  int ny() const noexcept { return ny_; }
  int nz() const noexcept { return nz_; }
  std::size_t voxels() const noexcept { return data_.size(); }
  std::size_t bytes() const noexcept { return data_.size() * sizeof(float); }
  const std::string& variable() const noexcept { return variable_; }
  void set_variable(std::string name) { variable_ = std::move(name); }

  float& at(int x, int y, int z) { return data_[index(x, y, z)]; }
  float at(int x, int y, int z) const { return data_[index(x, y, z)]; }

  /// Trilinear sample at finite continuous coordinates (voxel units,
  /// clamped) of a non-empty volume. Inline and unchecked, since the clamps
  /// keep every corner in the grid: the ray cast and the isosurface's
  /// gradient normals call it per sample, and the bounds checks of at()
  /// cost more than the interpolation. The float operations are the
  /// checked reference's (tests/data_test.cpp), in its order.
  float sample(float x, float y, float z) const {
    const detail::TrilinearWeights w =
        detail::clamp_weights(x, y, z, nx_, ny_, nz_);
    const float* const d = data_.data();
    const auto nx = static_cast<std::size_t>(nx_);
    const auto plane = nx * static_cast<std::size_t>(ny_);
    const std::size_t r00 = static_cast<std::size_t>(w.y0) * nx +
                            static_cast<std::size_t>(w.z0) * plane;
    const std::size_t r10 = static_cast<std::size_t>(w.y1) * nx +
                            static_cast<std::size_t>(w.z0) * plane;
    const std::size_t r01 = static_cast<std::size_t>(w.y0) * nx +
                            static_cast<std::size_t>(w.z1) * plane;
    const std::size_t r11 = static_cast<std::size_t>(w.y1) * nx +
                            static_cast<std::size_t>(w.z1) * plane;
    const auto x0 = static_cast<std::size_t>(w.x0);
    const auto x1 = static_cast<std::size_t>(w.x1);
    const float c000 = d[r00 + x0], c100 = d[r00 + x1];
    const float c010 = d[r10 + x0], c110 = d[r10 + x1];
    const float c001 = d[r01 + x0], c101 = d[r01 + x1];
    const float c011 = d[r11 + x0], c111 = d[r11 + x1];
    const float c00 = c000 + (c100 - c000) * w.fx;
    const float c10 = c010 + (c110 - c010) * w.fx;
    const float c01 = c001 + (c101 - c001) * w.fx;
    const float c11 = c011 + (c111 - c011) * w.fx;
    const float c0 = c00 + (c10 - c00) * w.fy;
    const float c1 = c01 + (c11 - c01) * w.fy;
    return c0 + (c1 - c0) * w.fz;
  }

  /// Central-difference gradient at continuous coordinates (voxel units):
  /// six sample() calls, one voxel either side on each axis.
  Vec3 gradient(float x, float y, float z) const {
    const float h = 1.0f;
    return Vec3{(sample(x + h, y, z) - sample(x - h, y, z)) * 0.5f,
                (sample(x, y + h, z) - sample(x, y - h, z)) * 0.5f,
                (sample(x, y, z + h) - sample(x, y, z - h)) * 0.5f};
  }

  std::pair<float, float> min_max() const;

  const std::vector<float>& raw() const noexcept { return data_; }
  std::vector<float>& raw() noexcept { return data_; }

  bool same_shape(const ScalarVolume& o) const noexcept {
    return nx_ == o.nx_ && ny_ == o.ny_ && nz_ == o.nz_;
  }

  std::size_t index(int x, int y, int z) const {
    if (x < 0 || y < 0 || z < 0 || x >= nx_ || y >= ny_ || z >= nz_) {
      throw std::out_of_range("ScalarVolume::index out of range");
    }
    return static_cast<std::size_t>(x) +
           static_cast<std::size_t>(nx_) *
               (static_cast<std::size_t>(y) +
                static_cast<std::size_t>(ny_) * static_cast<std::size_t>(z));
  }

 private:
  int nx_ = 0, ny_ = 0, nz_ = 0;
  std::string variable_ = "value";
  std::vector<float> data_;
};

/// Dense 3D vector field (for streamline advection).
class VectorVolume {
 public:
  VectorVolume() = default;
  VectorVolume(int nx, int ny, int nz);

  int nx() const noexcept { return nx_; }
  int ny() const noexcept { return ny_; }
  int nz() const noexcept { return nz_; }
  std::size_t bytes() const noexcept { return data_.size() * sizeof(Vec3); }

  Vec3& at(int x, int y, int z) { return data_[index(x, y, z)]; }
  const Vec3& at(int x, int y, int z) const { return data_[index(x, y, z)]; }

  /// Trilinear sample at continuous coordinates (voxel units, clamped).
  Vec3 sample(float x, float y, float z) const;

  bool inside(float x, float y, float z) const noexcept {
    return x >= 0 && y >= 0 && z >= 0 && x <= static_cast<float>(nx_ - 1) &&
           y <= static_cast<float>(ny_ - 1) && z <= static_cast<float>(nz_ - 1);
  }

 private:
  std::size_t index(int x, int y, int z) const {
    if (x < 0 || y < 0 || z < 0 || x >= nx_ || y >= ny_ || z >= nz_) {
      throw std::out_of_range("VectorVolume::index out of range");
    }
    return static_cast<std::size_t>(x) +
           static_cast<std::size_t>(nx_) *
               (static_cast<std::size_t>(y) +
                static_cast<std::size_t>(ny_) * static_cast<std::size_t>(z));
  }

  int nx_ = 0, ny_ = 0, nz_ = 0;
  std::vector<Vec3> data_;
};

}  // namespace ricsa::data
