// Block-based isosurface extraction (the pipeline's "transformation" module,
// Section 4.1) with the per-case bookkeeping the Section 4.4.1 cost model
// needs: which blocks were active, how many cells fell into each of the 15
// marching-cubes equivalence classes, and how many triangles each produced.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "data/octree.hpp"
#include "data/volume.hpp"
#include "util/thread_pool.hpp"
#include "viz/mesh.hpp"

namespace ricsa::viz {

struct IsosurfaceStats {
  std::size_t blocks_total = 0;
  std::size_t blocks_active = 0;
  std::size_t cells_scanned = 0;
  std::size_t triangles = 0;
  /// Cells per marching-cubes equivalence class (class 0 = empty/full).
  std::array<std::uint64_t, 32> class_cells{};
  /// Triangles emitted per class.
  std::array<std::uint64_t, 32> class_triangles{};
};

struct IsosurfaceResult {
  TriangleMesh mesh;
  IsosurfaceStats stats;
};

struct IsosurfaceOptions {
  /// Octree block edge length (cells). Blocks whose value range excludes the
  /// isovalue are skipped without scanning their cells.
  int block_size = 16;
  /// Optional worker pool for slab-parallel extraction (the "MPI-based
  /// visualization module" of the cluster CS nodes), bit-identical to the
  /// serial scan. Null = serial.
  util::ThreadPool* pool = nullptr;
  /// Compute smooth per-vertex normals from the field gradient; otherwise
  /// flat face normals are used (cheaper). A vertex with a gradient normal
  /// is emitted once per z-slab and indexed by every triangle corner on
  /// its lattice segment (the cells that share the segment interpolate it
  /// from the same two corners, bit for bit). A corner whose gradient
  /// vanishes gets a vertex of its own with the triangle's flat normal, as
  /// does every corner with flat normals. Either way, each corner indexes
  /// the position and normal it would carry as a vertex of its own.
  bool gradient_normals = true;
};

/// Extract the isosurface `value` from the volume.
IsosurfaceResult extract_isosurface(const data::ScalarVolume& volume,
                                    float isovalue,
                                    const IsosurfaceOptions& options = {});

/// Same, but reusing a prebuilt decomposition (repeated extractions at
/// different isovalues, as in the cost-model calibration sweep).
IsosurfaceResult extract_isosurface(const data::ScalarVolume& volume,
                                    const data::BlockDecomposition& blocks,
                                    float isovalue,
                                    const IsosurfaceOptions& options = {});

}  // namespace ricsa::viz
