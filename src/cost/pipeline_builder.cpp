#include "cost/pipeline_builder.hpp"

#include <algorithm>
#include <cmath>

namespace ricsa::cost {

DatasetProperties dataset_properties(const data::ScalarVolume& volume,
                                     float isovalue, int block_size) {
  DatasetProperties out;
  out.bytes = volume.bytes();
  out.nx = volume.nx();
  out.ny = volume.ny();
  out.nz = volume.nz();
  const data::BlockDecomposition blocks(volume, block_size);
  out.active_blocks = blocks.active_blocks(isovalue);
  out.cells_per_block = static_cast<std::size_t>(block_size) *
                        static_cast<std::size_t>(block_size) *
                        static_cast<std::size_t>(block_size);
  return out;
}

DatasetProperties scale_properties(const DatasetProperties& measured,
                                   std::size_t full_bytes) {
  DatasetProperties out = measured;
  const double ratio = static_cast<double>(full_bytes) /
                       static_cast<double>(std::max<std::size_t>(measured.bytes, 1));
  const double linear = std::cbrt(ratio);
  out.bytes = full_bytes;
  out.nx = static_cast<int>(std::lround(measured.nx * linear));
  out.ny = static_cast<int>(std::lround(measured.ny * linear));
  out.nz = static_cast<int>(std::lround(measured.nz * linear));
  // Active blocks scale with the isosurface area ~ linear^2: at paper scale
  // the datasets' dominant structures (plume envelope, blast shell, tissue
  // interfaces) are smooth, so a surface through an N^3 volume spans O(N^2)
  // of its blocks. (The small procedural samples are noisier than that;
  // scaling by area rather than volume keeps full-scale geometry realistic.)
  out.active_blocks = static_cast<std::size_t>(
      std::lround(static_cast<double>(measured.active_blocks) * linear * linear));
  return out;
}

std::size_t geometry_bytes(double triangles, double bytes_per_triangle) {
  // The extractor shares a vertex among the triangles of a z-slab that
  // meet on it, so a mesh's wire size (viz::TriangleMesh::bytes(): 6
  // floats per vertex + 3 u32 indices per triangle) is not a constant per
  // triangle: the calibration measures it on its own meshes (about 30 B,
  // against 84 B for an unwelded soup).
  return static_cast<std::size_t>(std::max(0.0, triangles) *
                                  bytes_per_triangle);
}

std::size_t framebuffer_bytes(int width, int height) {
  return static_cast<std::size_t>(width) * static_cast<std::size_t>(height) * 4;
}

pipeline::PipelineSpec build_pipeline(const VizRequest& request,
                                      const DatasetProperties& dataset,
                                      const CostModels& models) {
  using pipeline::ModuleKind;
  using pipeline::ModuleSpec;

  const double raw_bytes = static_cast<double>(dataset.bytes);
  const double filtered_bytes = raw_bytes * request.filter_keep;
  const std::size_t fb_bytes =
      framebuffer_bytes(request.image_width, request.image_height);

  std::vector<ModuleSpec> modules;
  modules.push_back({ModuleKind::kSource, "source", 0.0, 1.0, 0, false});

  // Filter: throughput model; c = 1 / filter_Bps (seconds per input byte).
  modules.push_back({ModuleKind::kFilter, "filter", 1.0 / models.aux.filter_Bps,
                     request.filter_keep, 0, false});

  switch (request.technique) {
    case VizRequest::Technique::kIsosurface: {
      const double extract_s = models.isosurface.predict_extraction_s(
          dataset.active_blocks, dataset.cells_per_block);
      const double triangles = models.isosurface.predict_triangles(
          dataset.active_blocks, dataset.cells_per_block);
      const std::size_t geom = std::max<std::size_t>(
          geometry_bytes(triangles, models.isosurface.bytes_per_triangle), 1);
      modules.push_back({ModuleKind::kIsosurface, "isosurface",
                         extract_s / std::max(filtered_bytes, 1.0), 0.0, geom,
                         false});
      // Render is feasibility-restricted to GPU nodes (the paper's GaTech and
      // OSU hosts had no graphics card), so its cost is priced for a GPU.
      const double render_s =
          models.isosurface.predict_render_s(triangles, /*has_gpu=*/true);
      modules.push_back({ModuleKind::kRender, "render",
                         render_s / static_cast<double>(geom), 0.0, fb_bytes,
                         true});
      break;
    }
    case VizRequest::Technique::kRayCast: {
      viz::RayCastOptions opt;
      opt.width = request.image_width;
      opt.height = request.image_height;
      const viz::RayGeometry geom =
          viz::estimate_raycast_counts(dataset.nx, dataset.ny, dataset.nz, opt);
      const double cast_s = models.raycast.predict_s(geom);
      modules.push_back({ModuleKind::kRayCast, "raycast",
                         cast_s / std::max(filtered_bytes, 1.0), 0.0, fb_bytes,
                         false});
      break;
    }
    case VizRequest::Technique::kStreamline: {
      const double trace_s = models.streamline.predict_s(
          static_cast<std::size_t>(request.seeds),
          static_cast<std::size_t>(request.steps_per_seed));
      // Polyline bytes: seeds * steps * 12 B per point (upper bound).
      const std::size_t poly =
          std::max<std::size_t>(static_cast<std::size_t>(request.seeds) *
                                    static_cast<std::size_t>(request.steps_per_seed) * 12,
                                1);
      modules.push_back({ModuleKind::kStreamline, "streamline",
                         trace_s / std::max(filtered_bytes, 1.0), 0.0, poly,
                         false});
      // Rendering polylines ~ triangles at half throughput.
      const double render_s = models.isosurface.predict_render_s(
          static_cast<double>(request.seeds * request.steps_per_seed) * 0.5,
          false);
      modules.push_back({ModuleKind::kRender, "render",
                         render_s / static_cast<double>(poly), 0.0, fb_bytes,
                         true});
      break;
    }
  }

  // Display: client-side handling of the final framebuffer.
  modules.push_back({ModuleKind::kDisplay, "display",
                     1.0 / models.aux.display_Bps, 1.0, 0, false});

  const char* names[] = {"isosurface", "raycast", "streamline"};
  return pipeline::PipelineSpec(
      names[static_cast<int>(request.technique)],
      static_cast<std::size_t>(raw_bytes), std::move(modules));
}

}  // namespace ricsa::cost
