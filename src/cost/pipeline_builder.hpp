// Builds a calibrated PipelineSpec for a concrete visualization request:
// turns the Section 4.4 model predictions into the c_j coefficients and m_j
// message sizes the DP mapper consumes.
#pragma once

#include "cost/models.hpp"
#include "pipeline/pipeline.hpp"

namespace ricsa::cost {

struct VizRequest {
  enum class Technique { kIsosurface, kRayCast, kStreamline };
  Technique technique = Technique::kIsosurface;
  float isovalue = 0.5f;
  int image_width = 512;
  int image_height = 512;
  /// Streamline parameters.
  int seeds = 125;
  int steps_per_seed = 500;
  /// Fraction of the raw data the filter stage keeps.
  double filter_keep = 1.0;
};

/// Dataset statistics the DS node derives from its cached data (block
/// decomposition ranges), shipped to the CM with the request.
struct DatasetProperties {
  std::size_t bytes = 0;
  int nx = 0, ny = 0, nz = 0;
  /// Blocks whose range spans the requested isovalue.
  std::size_t active_blocks = 0;
  std::size_t cells_per_block = 0;
};

/// Derive DatasetProperties for an isovalue from a real volume.
DatasetProperties dataset_properties(const data::ScalarVolume& volume,
                                     float isovalue, int block_size = 16);

/// Paper-scale synthetic properties (for experiments that must use the full
/// 16/64/108 MB datasets without allocating them): extrapolates the active-
/// block ratio and dimensions of a measured scaled-down volume to the full
/// byte size.
DatasetProperties scale_properties(const DatasetProperties& measured,
                                   std::size_t full_bytes);

/// Build the calibrated pipeline for the request. Every module's complexity
/// c_j is set so that c_j * m_{j-1} equals the model-predicted seconds on a
/// unit-power node; message sizes follow the predicted data reduction.
pipeline::PipelineSpec build_pipeline(const VizRequest& request,
                                      const DatasetProperties& dataset,
                                      const CostModels& models);

/// Bytes of a triangle mesh with `triangles` triangles in the wire format
/// used down the pipeline (positions + normals per vertex, 3 indices per
/// triangle), at the calibrated `bytes_per_triangle`
/// (IsosurfaceModel::bytes_per_triangle).
std::size_t geometry_bytes(double triangles, double bytes_per_triangle);

/// Bytes of a rendered framebuffer (RGBA8).
std::size_t framebuffer_bytes(int width, int height);

}  // namespace ricsa::cost
