// Visualization cost models of Section 4.4, calibrated by running the real
// visualization code and timing it.
//
//  * Isosurface extraction (Eq. 4/5): t = n_blocks * t_block(S_block) with
//    t_block = S_block * sum_i T_case(i) * P_case(i) over the 15 marching-
//    cubes classes; rendering cost from the predicted triangle count (Eq. 6).
//  * Ray casting (Eq. 7): t = n_rays * n_samples * t_sample (block count
//    folded into the exact ray geometry; early termination excluded, as the
//    paper's model prescribes).
//  * Streamlines (Eq. 8): t = n_seeds * n_steps * T_advection.
//
// Calibration mirrors the paper's statistical method: sample datasets are
// processed at many isovalues; per-class probabilities and triangle yields
// are tallied, and the per-class time constants are fitted by least squares
// (cell-visit cost + per-triangle cost), since per-cell wall-clock cannot be
// attributed to classes directly.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "data/octree.hpp"
#include "data/volume.hpp"
#include "viz/raycast.hpp"

namespace ricsa::cost {

inline constexpr int kMcClasses = 15;

struct IsosurfaceModel {
  /// T_case(i): expected seconds per cell of class i (unit-power node).
  std::array<double, kMcClasses> t_case{};
  /// P_case(i): probability a scanned cell falls in class i.
  std::array<double, kMcClasses> p_case{};
  /// Average triangles emitted per cell of class i.
  std::array<double, kMcClasses> ntri_case{};
  /// Fitted primitives: per-cell visit cost and per-triangle cost.
  double alpha_cell_s = 0.0;
  double beta_triangle_s = 0.0;
  /// Rendering throughput (triangles/second) of the software rasterizer on a
  /// unit-power node, and the speedup factor of a graphics card.
  double triangles_per_second = 1.0;
  double gpu_speedup = 25.0;
  /// Wire bytes of extracted geometry per triangle (viz::TriangleMesh::
  /// bytes() over triangle_count()), measured on the calibration's own
  /// meshes. The default is the unwelded bound: three vertices of their
  /// own (6 floats each) and three 32-bit indices.
  double bytes_per_triangle = 84.0;

  /// Eq. 5: expected extraction seconds for one block of `cells` cells.
  double t_block(std::size_t cells) const;
  /// Eq. 4: extraction seconds for n_blocks active blocks.
  double predict_extraction_s(std::size_t active_blocks,
                              std::size_t cells_per_block) const;
  /// Eq. 6's triangle count: expected triangles over the active blocks.
  double predict_triangles(std::size_t active_blocks,
                           std::size_t cells_per_block) const;
  /// Rendering seconds for a triangle count on a unit-power node.
  double predict_render_s(double triangles, bool has_gpu) const;
};

struct RayCastModel {
  /// t_sample: seconds per scalar sample on a unit-power node (Eq. 7).
  double t_sample_s = 0.0;

  double predict_s(const viz::RayGeometry& geometry) const {
    return static_cast<double>(geometry.samples) * t_sample_s;
  }
};

struct StreamlineModel {
  /// T_advection: seconds per RK4 advection step (Eq. 8).
  double t_advection_s = 0.0;

  double predict_s(std::size_t seeds, std::size_t steps_per_seed) const {
    return static_cast<double>(seeds) * static_cast<double>(steps_per_seed) *
           t_advection_s;
  }
};

/// Generic throughput constants for the cheap pipeline stages.
struct AuxiliaryModel {
  /// Filtering throughput, bytes/second (unit power).
  double filter_Bps = 1e8;
  /// Client-side display handling, bytes/second.
  double display_Bps = 5e8;
};

/// Host wall-clock seconds a calibration spent, by kernel (not scaled by
/// host_power): the start-up cost of the models.
struct CalibrationTimes {
  double samples_s = 0.0;  // generating the sample volumes, if timed
  double isosurface_s = 0.0;  // the isovalue sweep's extractions
  double render_s = 0.0;      // the renders of those meshes
  double raycast_s = 0.0;
  double gradient_field_s = 0.0;  // the streamline probe's vector fields
  double streamline_s = 0.0;
  double filter_s = 0.0;
  double total_s = 0.0;  // the whole calibration, the above included
};

struct CostModels {
  IsosurfaceModel isosurface;
  RayCastModel raycast;
  StreamlineModel streamline;
  AuxiliaryModel aux;
  CalibrationTimes calibration;
};

struct CalibrationOptions {
  /// Isovalues sampled per volume, spread over its value range.
  int isovalue_samples = 6;
  int block_size = 16;
  /// Raycast probe image size.
  int raycast_size = 96;
  /// Streamline probe seeds (n^3 grid) and cap.
  int streamline_seed_grid = 4;
  int streamline_max_steps = 200;
  /// Normalized computing power of the calibration host relative to the
  /// testbed's reference PC. The paper's deployment is 2008-era hardware
  /// (power 1.0 ~ a single-core Linux PC); a modern machine is roughly 45x
  /// that per core, so wall-clock measurements here are multiplied by this
  /// factor to express module costs in reference-PC seconds. Set to 1.0 to
  /// model the calibration host itself.
  double host_power = 45.0;
};

/// Calibrate all models by running the real extractors/renderers/tracers on
/// the given sample volumes (wall-clock timing; deterministic inputs).
CostModels calibrate(const std::vector<const data::ScalarVolume*>& samples,
                     const CalibrationOptions& options = {});

/// Calibrate only the isosurface model (cheaper; used in tests).
IsosurfaceModel calibrate_isosurface(
    const std::vector<const data::ScalarVolume*>& samples,
    const CalibrationOptions& options = {});

}  // namespace ricsa::cost
