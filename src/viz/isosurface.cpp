#include "viz/isosurface.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <utility>

#include "viz/cube_tables.hpp"

namespace ricsa::viz {

namespace {

using data::ScalarVolume;
using data::Vec3;

/// The shared vertices of one z-slab's isosurface, one slot per lattice
/// segment: its low corner and its direction. The Kuhn decomposition
/// orders every segment low corner -> high corner, so the cells that share
/// a segment interpolate the same vertex from the same two corners, bit
/// for bit: its gradient is taken once per slab, and every triangle corner
/// on the segment indexes one vertex of the mesh.
struct SlabVertices {
  std::vector<std::uint32_t> index;  // the segment's vertex in the mesh
  std::vector<std::uint8_t> state;   // 0 unset, 1 vertex, 2 no gradient
};

/// Extract the cells of one z-slab of a block into `mesh`, accumulating
/// stats. `shared` is reset here and reused from slab to slab.
void extract_slab(const ScalarVolume& volume, const data::Block& block, int z,
                  float isovalue, bool gradient_normals, TriangleMesh& mesh,
                  IsosurfaceStats& stats, SlabVertices& shared) {
  const CubeTables& tables = cube_tables();

  // Corner c of the cell at (x, y, z) sits at offset(x, y, z) +
  // corner_offset[c] of the volume's x-fastest layout. Blocks lie inside
  // the cell grid, so every corner read is in range.
  const auto nx = static_cast<std::size_t>(volume.nx());
  const std::size_t plane = nx * static_cast<std::size_t>(volume.ny());
  std::array<std::size_t, 8> corner_offset;
  for (std::size_t c = 0; c < 8; ++c) {
    corner_offset[c] = (c & 1) + ((c >> 1) & 1) * nx + ((c >> 2) & 1) * plane;
  }
  const float* const slab =
      volume.raw().data() + static_cast<std::size_t>(z) * plane;

  // Slot of segment s of the cell at (x, y): cell_slot(x, y) +
  // segment_slot[s], over the lattice points of the block's two z-levels,
  // seven directions per point.
  const auto row_slots = 7 * static_cast<std::size_t>(block.x1 - block.x0 + 1);
  const std::size_t level_slots =
      row_slots * static_cast<std::size_t>(block.y1 - block.y0 + 1);
  std::array<std::size_t, 19> segment_slot;
  for (std::size_t i = 0; i < segment_slot.size(); ++i) {
    const auto [a, b] = tables.segments[i];
    segment_slot[i] = static_cast<std::size_t>((a >> 2) & 1) * level_slots +
                      static_cast<std::size_t>((a >> 1) & 1) * row_slots +
                      static_cast<std::size_t>(a & 1) * 7 +
                      static_cast<std::size_t>((a ^ b) - 1);
  }
  if (gradient_normals) {
    shared.index.resize(2 * level_slots);
    shared.state.assign(2 * level_slots, 0);
  }

  std::vector<Vec3>& positions = mesh.positions();
  std::vector<Vec3>& normals = mesh.normals();
  std::vector<std::uint32_t>& indices = mesh.indices();
  std::array<float, 8> corner_value;

  for (int y = block.y0; y < block.y1; ++y) {
    for (int x = block.x0; x < block.x1; ++x) {
      ++stats.cells_scanned;
      const float* const cell = slab + static_cast<std::size_t>(y) * nx +
                                static_cast<std::size_t>(x);
      int config = 0;
      for (std::size_t c = 0; c < 8; ++c) {
        const float v = cell[corner_offset[c]];
        corner_value[c] = v;
        if (v > isovalue) config |= 1 << c;
      }

      const int cls = tables.mc_class[static_cast<std::size_t>(config)];
      ++stats.class_cells[static_cast<std::size_t>(cls)];
      const auto& tris = tables.triangles[static_cast<std::size_t>(config)];
      if (tris.empty()) continue;

      const auto corner_pos = [x, y, z](int c) {
        return Vec3{static_cast<float>(x + (c & 1)),
                    static_cast<float>(y + ((c >> 1) & 1)),
                    static_cast<float>(z + ((c >> 2) & 1))};
      };
      // Each referenced segment's interpolated vertex is computed once per
      // cell, however many of its triangles share it.
      std::array<Vec3, 19> seg_vertex;
      std::array<bool, 19> seg_done{};
      const auto segment_vertex = [&](int s) -> const Vec3& {
        const auto i = static_cast<std::size_t>(s);
        if (!seg_done[i]) {
          const auto [a, b] = tables.segments[i];
          const float va = corner_value[static_cast<std::size_t>(a)];
          const float vb = corner_value[static_cast<std::size_t>(b)];
          float t = 0.5f;
          if (std::abs(vb - va) > 1e-12f) t = (isovalue - va) / (vb - va);
          t = t < 0 ? 0 : (t > 1 ? 1 : t);
          const Vec3 pa = corner_pos(a);
          seg_vertex[i] = pa + (corner_pos(b) - pa) * t;
          seg_done[i] = true;
        }
        return seg_vertex[i];
      };
      // The shared vertex of a segment, emitted on first use with the
      // field-gradient normal (pointing from high to low value, matching
      // triangle winding), or null where the gradient vanishes.
      const std::size_t cell_slot =
          static_cast<std::size_t>(y - block.y0) * row_slots +
          static_cast<std::size_t>(x - block.x0) * 7;
      const auto shared_vertex = [&](int s) -> const std::uint32_t* {
        const std::size_t slot =
            cell_slot + segment_slot[static_cast<std::size_t>(s)];
        std::uint8_t& state = shared.state[slot];
        if (state == 0) {
          const Vec3& p = segment_vertex(s);
          const Vec3 g = volume.gradient(p.x, p.y, p.z);
          state = g.norm() > 1e-12f ? 1 : 2;
          if (state == 1) {
            shared.index[slot] = static_cast<std::uint32_t>(positions.size());
            positions.push_back(p);
            normals.push_back((g * -1.0f).normalized());
          }
        }
        return state == 1 ? &shared.index[slot] : nullptr;
      };

      for (const auto& tri : tris) {
        const Vec3& a = segment_vertex(tri[0]);
        const Vec3& b = segment_vertex(tri[1]);
        const Vec3& c = segment_vertex(tri[2]);
        // Skip exactly degenerate triangles (interpolation collapsing two
        // segment vertices onto a shared corner).
        const Vec3 cross = (b - a).cross(c - a);
        if (cross.norm() < 1e-12f) continue;
        // A corner without a shared vertex gets one of its own, with the
        // triangle's flat normal.
        std::optional<Vec3> flat;  // computed only where a vertex needs it
        for (const int s : tri) {
          const std::uint32_t* vertex =
              gradient_normals ? shared_vertex(s) : nullptr;
          if (vertex != nullptr) {
            indices.push_back(*vertex);
            continue;
          }
          if (!flat) flat = cross.normalized();
          indices.push_back(static_cast<std::uint32_t>(positions.size()));
          positions.push_back(segment_vertex(s));
          normals.push_back(*flat);
        }
        ++stats.triangles;
        ++stats.class_triangles[static_cast<std::size_t>(cls)];
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

  // The serial scan extracts straight into the result.
  if (options.pool == nullptr) {
    SlabVertices shared;
    for (const data::Block* b : active) {
      for (int z = b->z0; z < b->z1; ++z) {
        extract_slab(volume, *b, z, isovalue, options.gradient_normals,
                     result.mesh, result.stats, shared);
      }
    }
    return result;
  }

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
        SlabVertices shared;
        for (std::size_t i = lo; i < hi; ++i) {
          extract_slab(volume, *slabs[i].first, slabs[i].second, isovalue,
                       options.gradient_normals, parts[i].mesh,
                       parts[i].stats, shared);
        }
      });

  // Each part's first vertex and index in the result, then the parts
  // copied there in parallel, their indices rebased.
  std::vector<std::size_t> first_vertex(parts.size() + 1, 0);
  std::vector<std::size_t> first_index(parts.size() + 1, 0);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const IsosurfaceResult& part = parts[i];
    first_vertex[i + 1] = first_vertex[i] + part.mesh.vertex_count();
    first_index[i + 1] = first_index[i] + part.mesh.indices().size();
    result.stats.cells_scanned += part.stats.cells_scanned;
    result.stats.triangles += part.stats.triangles;
    for (std::size_t c = 0; c < part.stats.class_cells.size(); ++c) {
      result.stats.class_cells[c] += part.stats.class_cells[c];
      result.stats.class_triangles[c] += part.stats.class_triangles[c];
    }
  }
  result.mesh.positions().resize(first_vertex.back());
  result.mesh.normals().resize(first_vertex.back());
  result.mesh.indices().resize(first_index.back());
  util::parallel_for(
      options.pool, 0, parts.size(), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          const TriangleMesh& part = parts[i].mesh;
          std::copy(part.positions().begin(), part.positions().end(),
                    result.mesh.positions().begin() +
                        static_cast<std::ptrdiff_t>(first_vertex[i]));
          std::copy(part.normals().begin(), part.normals().end(),
                    result.mesh.normals().begin() +
                        static_cast<std::ptrdiff_t>(first_vertex[i]));
          const auto base = static_cast<std::uint32_t>(first_vertex[i]);
          std::uint32_t* out = result.mesh.indices().data() + first_index[i];
          for (const std::uint32_t index : part.indices()) *out++ = base + index;
        }
      });
  return result;
}

}  // namespace ricsa::viz
