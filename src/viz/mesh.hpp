// Indexed triangle mesh — the "geometric primitives" stage of the pipeline
// (output of the transformation module, input of the rendering module).
// The isosurface extractor shares a vertex among the triangles of a z-slab
// that meet on it, about 0.73 vertices per triangle on the cost-model
// calibration's meshes; add_triangle() appends soup.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "data/volume.hpp"

namespace ricsa::viz {

using data::Vec3;

class TriangleMesh {
 public:
  std::vector<Vec3>& positions() noexcept { return positions_; }
  const std::vector<Vec3>& positions() const noexcept { return positions_; }
  std::vector<Vec3>& normals() noexcept { return normals_; }
  const std::vector<Vec3>& normals() const noexcept { return normals_; }
  std::vector<std::uint32_t>& indices() noexcept { return indices_; }
  const std::vector<std::uint32_t>& indices() const noexcept { return indices_; }

  std::size_t vertex_count() const noexcept { return positions_.size(); }
  std::size_t triangle_count() const noexcept { return indices_.size() / 3; }

  /// Append a triangle with three vertices of its own and its flat normal
  /// (soup-style, not welded: the streamline ribbons and tests use it).
  void add_triangle(const Vec3& a, const Vec3& b, const Vec3& c);

  /// Append another mesh (indices rebased).
  void append(const TriangleMesh& other);

  /// Wire size of the geometry when shipped down the pipeline: positions +
  /// normals (3+3 floats) per vertex plus 32-bit indices.
  std::size_t bytes() const noexcept {
    return positions_.size() * 6 * sizeof(float) +
           indices_.size() * sizeof(std::uint32_t);
  }

  /// Merge vertices closer than eps (grid hash); recomputes smooth normals.
  /// Returns the welded mesh, leaving *this untouched.
  TriangleMesh welded(float eps = 1e-4f) const;

  /// Sum of triangle areas.
  double surface_area() const;

  /// Axis-aligned bounds; returns {0,0,0},{0,0,0} for an empty mesh.
  std::pair<Vec3, Vec3> bounds() const;

  /// True when every edge of the welded mesh is shared by exactly two
  /// triangles (closed 2-manifold — what a correct extractor produces for an
  /// isosurface that doesn't intersect the volume boundary).
  bool is_closed() const;

 private:
  std::vector<Vec3> positions_;
  std::vector<Vec3> normals_;
  std::vector<std::uint32_t> indices_;
};

}  // namespace ricsa::viz
