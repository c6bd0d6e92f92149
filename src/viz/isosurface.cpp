#include "viz/isosurface.hpp"

#include <cmath>
#include <utility>

#include "viz/cube_tables.hpp"

namespace ricsa::viz {

namespace {

using data::ScalarVolume;
using data::Vec3;

/// Extract the cells of one z-slab of a block into `mesh`, accumulating
/// stats.
void extract_slab(const ScalarVolume& volume, const data::Block& block, int z,
                  float isovalue, bool gradient_normals, TriangleMesh& mesh,
                  IsosurfaceStats& stats) {
  const CubeTables& tables = cube_tables();

  std::array<float, 8> corner_value;
  std::array<Vec3, 8> corner_pos;

  for (int y = block.y0; y < block.y1; ++y) {
    for (int x = block.x0; x < block.x1; ++x) {
      ++stats.cells_scanned;
      int config = 0;
      for (int c = 0; c < 8; ++c) {
        const int cx = x + (c & 1);
        const int cy = y + ((c >> 1) & 1);
        const int cz = z + ((c >> 2) & 1);
        const float v = volume.at(cx, cy, cz);
        corner_value[static_cast<std::size_t>(c)] = v;
        corner_pos[static_cast<std::size_t>(c)] =
            Vec3{static_cast<float>(cx), static_cast<float>(cy),
                 static_cast<float>(cz)};
        if (v > isovalue) config |= 1 << c;
      }

      const int cls = tables.mc_class[static_cast<std::size_t>(config)];
      ++stats.class_cells[static_cast<std::size_t>(cls)];
      const auto& tris = tables.triangles[static_cast<std::size_t>(config)];
      if (tris.empty()) continue;

      // Interpolated vertex on each referenced segment, computed lazily.
      std::array<Vec3, 19> seg_vertex;
      std::array<bool, 19> seg_done{};
      const auto segment_vertex = [&](int s) -> const Vec3& {
        if (!seg_done[static_cast<std::size_t>(s)]) {
          const auto [a, b] = tables.segments[static_cast<std::size_t>(s)];
          const float va = corner_value[static_cast<std::size_t>(a)];
          const float vb = corner_value[static_cast<std::size_t>(b)];
          float t = 0.5f;
          if (std::abs(vb - va) > 1e-12f) t = (isovalue - va) / (vb - va);
          t = t < 0 ? 0 : (t > 1 ? 1 : t);
          seg_vertex[static_cast<std::size_t>(s)] =
              corner_pos[static_cast<std::size_t>(a)] +
              (corner_pos[static_cast<std::size_t>(b)] -
               corner_pos[static_cast<std::size_t>(a)]) *
                  t;
          seg_done[static_cast<std::size_t>(s)] = true;
        }
        return seg_vertex[static_cast<std::size_t>(s)];
      };

      const std::size_t first_vertex = mesh.vertex_count();
      for (const auto& tri : tris) {
        const Vec3& a = segment_vertex(tri[0]);
        const Vec3& b = segment_vertex(tri[1]);
        const Vec3& c = segment_vertex(tri[2]);
        // Skip exactly degenerate triangles (interpolation collapsing two
        // segment vertices onto a shared corner).
        if ((b - a).cross(c - a).norm() < 1e-12f) continue;
        mesh.add_triangle(a, b, c);
        ++stats.triangles;
        ++stats.class_triangles[static_cast<std::size_t>(cls)];
      }

      if (gradient_normals) {
        // Replace the just-added flat normals with field-gradient normals
        // (pointing from high to low value, matching triangle winding).
        for (std::size_t i = first_vertex; i < mesh.vertex_count(); ++i) {
          const Vec3& p = mesh.positions()[i];
          const Vec3 g = volume.gradient(p.x, p.y, p.z);
          if (g.norm() > 1e-12f) {
            mesh.normals()[i] = (g * -1.0f).normalized();
          }
        }
      }
    }
  }
}

}  // namespace

IsosurfaceResult extract_isosurface(const ScalarVolume& volume, float isovalue,
                                    const IsosurfaceOptions& options) {
  const data::BlockDecomposition blocks(volume, options.block_size);
  return extract_isosurface(volume, blocks, isovalue, options);
}

IsosurfaceResult extract_isosurface(const ScalarVolume& volume,
                                    const data::BlockDecomposition& blocks,
                                    float isovalue,
                                    const IsosurfaceOptions& options) {
  IsosurfaceResult result;
  result.stats.blocks_total = blocks.blocks().size();

  // Active blocks only (octree min/max culling).
  std::vector<const data::Block*> active;
  for (const data::Block& b : blocks.blocks()) {
    if (b.spans(isovalue)) active.push_back(&b);
  }
  result.stats.blocks_active = active.size();

  // Slab-parallel extraction (the paper's cluster CS nodes run this block
  // decomposition over MPI ranks). Grains are the z-slabs of the active
  // blocks in (block, z) order, each extracted into its own part; the parts
  // are concatenated in that order, which is exactly the serial scan's
  // triangle order whatever the split.
  std::vector<std::pair<const data::Block*, int>> slabs;
  for (const data::Block* b : active) {
    for (int z = b->z0; z < b->z1; ++z) slabs.emplace_back(b, z);
  }
  std::vector<IsosurfaceResult> parts(slabs.size());
  util::parallel_for(
      options.pool, 0, slabs.size(), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          extract_slab(volume, *slabs[i].first, slabs[i].second, isovalue,
                       options.gradient_normals, parts[i].mesh,
                       parts[i].stats);
        }
      });

  // Size the mesh once: append() would otherwise regrow it per part.
  std::size_t vertices = 0, indices = 0;
  for (const IsosurfaceResult& part : parts) {
    vertices += part.mesh.vertex_count();
    indices += part.mesh.indices().size();
  }
  result.mesh.positions().reserve(vertices);
  result.mesh.normals().reserve(vertices);
  result.mesh.indices().reserve(indices);
  for (const IsosurfaceResult& part : parts) {
    result.mesh.append(part.mesh);
    result.stats.cells_scanned += part.stats.cells_scanned;
    result.stats.triangles += part.stats.triangles;
    for (std::size_t c = 0; c < part.stats.class_cells.size(); ++c) {
      result.stats.class_cells[c] += part.stats.class_cells[c];
      result.stats.class_triangles[c] += part.stats.class_triangles[c];
    }
  }
  return result;
}

}  // namespace ricsa::viz
