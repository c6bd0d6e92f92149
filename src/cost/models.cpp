#include "cost/models.hpp"

#include <algorithm>
#include <cmath>

#include "data/generators.hpp"
#include "util/stopwatch.hpp"
#include "viz/filters.hpp"
#include "viz/isosurface.hpp"
#include "viz/rasterizer.hpp"
#include "viz/streamline.hpp"

namespace ricsa::cost {

double IsosurfaceModel::t_block(std::size_t cells) const {
  double per_cell = 0.0;
  for (int i = 0; i < kMcClasses; ++i) {
    per_cell += t_case[static_cast<std::size_t>(i)] *
                p_case[static_cast<std::size_t>(i)];
  }
  return static_cast<double>(cells) * per_cell;
}

double IsosurfaceModel::predict_extraction_s(std::size_t active_blocks,
                                             std::size_t cells_per_block) const {
  // Eq. 4: t = n_blocks * t_block(S_block).
  return static_cast<double>(active_blocks) * t_block(cells_per_block);
}

double IsosurfaceModel::predict_triangles(std::size_t active_blocks,
                                          std::size_t cells_per_block) const {
  // Eq. 6's count: n_blocks * S_block * sum_i ntri(i) * P(i).
  double per_cell = 0.0;
  for (int i = 0; i < kMcClasses; ++i) {
    per_cell += ntri_case[static_cast<std::size_t>(i)] *
                p_case[static_cast<std::size_t>(i)];
  }
  return static_cast<double>(active_blocks) *
         static_cast<double>(cells_per_block) * per_cell;
}

double IsosurfaceModel::predict_render_s(double triangles, bool has_gpu) const {
  const double rate =
      triangles_per_second * (has_gpu ? gpu_speedup : 1.0);
  return triangles / std::max(rate, 1.0);
}

namespace {

/// calibrate_isosurface, adding its extraction and render seconds to
/// `times`.
IsosurfaceModel calibrate_isosurface(
    const std::vector<const data::ScalarVolume*>& samples,
    const CalibrationOptions& options, CalibrationTimes& times) {
  IsosurfaceModel model;

  // Accumulators over all runs.
  std::array<std::uint64_t, kMcClasses> cells{};
  std::array<std::uint64_t, kMcClasses> triangles{};
  // Least squares for T_run = alpha * cells_run + beta * triangles_run.
  double s_cc = 0, s_ct = 0, s_tt = 0, s_cy = 0, s_ty = 0;
  double render_tris = 0, render_seconds = 0, extract_seconds = 0;
  double mesh_bytes = 0, mesh_triangles = 0;

  for (const data::ScalarVolume* volume : samples) {
    const data::BlockDecomposition blocks(*volume, options.block_size);
    const auto [lo, hi] = volume->min_max();
    for (int s = 0; s < options.isovalue_samples; ++s) {
      const float iso =
          lo + (hi - lo) * (static_cast<float>(s) + 0.5f) /
                   static_cast<float>(options.isovalue_samples);
      viz::IsosurfaceOptions iso_opt;
      iso_opt.block_size = options.block_size;
      iso_opt.gradient_normals = true;

      util::Stopwatch timer;
      const auto result = viz::extract_isosurface(*volume, blocks, iso, iso_opt);
      const double seconds = timer.elapsed();
      extract_seconds += seconds;

      for (int i = 0; i < kMcClasses; ++i) {
        cells[static_cast<std::size_t>(i)] +=
            result.stats.class_cells[static_cast<std::size_t>(i)];
        triangles[static_cast<std::size_t>(i)] +=
            result.stats.class_triangles[static_cast<std::size_t>(i)];
      }
      const double c = static_cast<double>(result.stats.cells_scanned);
      const double t = static_cast<double>(result.stats.triangles);
      s_cc += c * c;
      s_ct += c * t;
      s_tt += t * t;
      s_cy += c * seconds;
      s_ty += t * seconds;
      mesh_bytes += static_cast<double>(result.mesh.bytes());
      mesh_triangles += static_cast<double>(result.mesh.triangle_count());

      // Rendering throughput from the same meshes.
      if (result.mesh.triangle_count() > 0) {
        viz::RenderOptions render_opt;
        render_opt.width = 128;
        render_opt.height = 128;
        util::Stopwatch rt;
        viz::render_mesh(result.mesh, render_opt);
        render_seconds += rt.elapsed();
        render_tris += static_cast<double>(result.mesh.triangle_count());
      }
    }
  }

  // Solve the 2x2 normal equations; fall back to cells-only if degenerate.
  const double det = s_cc * s_tt - s_ct * s_ct;
  if (det > 1e-30 && s_tt > 0) {
    model.alpha_cell_s = (s_cy * s_tt - s_ty * s_ct) / det;
    model.beta_triangle_s = (s_cc * s_ty - s_ct * s_cy) / det;
  } else if (s_cc > 0) {
    model.alpha_cell_s = s_cy / s_cc;
    model.beta_triangle_s = 0.0;
  }
  // Timing noise can push the tiny per-cell constant slightly negative;
  // clamp to keep predictions monotone.
  model.alpha_cell_s = std::max(model.alpha_cell_s, 1e-10);
  model.beta_triangle_s = std::max(model.beta_triangle_s, 0.0);
  // Express costs in reference-PC seconds (Section 4.2's normalized power).
  model.alpha_cell_s *= options.host_power;
  model.beta_triangle_s *= options.host_power;

  std::uint64_t total_cells = 0;
  for (int i = 0; i < kMcClasses; ++i) total_cells += cells[static_cast<std::size_t>(i)];
  for (int i = 0; i < kMcClasses; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    model.p_case[idx] = total_cells
                            ? static_cast<double>(cells[idx]) /
                                  static_cast<double>(total_cells)
                            : 0.0;
    model.ntri_case[idx] = cells[idx]
                               ? static_cast<double>(triangles[idx]) /
                                     static_cast<double>(cells[idx])
                               : 0.0;
    model.t_case[idx] =
        model.alpha_cell_s + model.beta_triangle_s * model.ntri_case[idx];
  }

  model.triangles_per_second =
      (render_seconds > 0 ? render_tris / render_seconds : 1e6) /
      options.host_power;
  if (mesh_triangles > 0) model.bytes_per_triangle = mesh_bytes / mesh_triangles;
  times.isosurface_s += extract_seconds;
  times.render_s += render_seconds;
  return model;
}

}  // namespace

IsosurfaceModel calibrate_isosurface(
    const std::vector<const data::ScalarVolume*>& samples,
    const CalibrationOptions& options) {
  CalibrationTimes times;
  return calibrate_isosurface(samples, options, times);
}

CostModels calibrate(const std::vector<const data::ScalarVolume*>& samples,
                     const CalibrationOptions& options) {
  util::Stopwatch total;
  CostModels models;
  CalibrationTimes& times = models.calibration;
  models.isosurface = calibrate_isosurface(samples, options, times);

  // Ray casting: time real casts, divide by samples taken (Eq. 7's
  // "t_sample can be considered as constant and easily computed by running
  // the ray casting algorithm on a test dataset").
  double cast_seconds = 0;
  std::size_t cast_samples = 0;
  for (const data::ScalarVolume* volume : samples) {
    const auto [lo, hi] = volume->min_max();
    const viz::TransferFunction tf = viz::TransferFunction::preset(lo, hi);
    viz::RayCastOptions opt;
    opt.width = options.raycast_size;
    opt.height = options.raycast_size;
    util::Stopwatch timer;
    const auto result = viz::raycast(*volume, tf, opt);
    cast_seconds += timer.elapsed();
    cast_samples += result.samples;
  }
  times.raycast_s = cast_seconds;
  models.raycast.t_sample_s =
      (cast_samples ? cast_seconds / static_cast<double>(cast_samples) : 1e-8) *
      options.host_power;

  // Streamlines: trace through the gradient field of each sample volume.
  double trace_seconds = 0;
  std::size_t trace_steps = 0;
  for (const data::ScalarVolume* volume : samples) {
    const int n = std::min({volume->nx(), volume->ny(), volume->nz(), 48});
    util::Stopwatch field_timer;
    data::VectorVolume field(n, n, n);
    for (int z = 0; z < n; ++z) {
      for (int y = 0; y < n; ++y) {
        for (int x = 0; x < n; ++x) {
          field.at(x, y, z) = volume->gradient(static_cast<float>(x),
                                               static_cast<float>(y),
                                               static_cast<float>(z));
        }
      }
    }
    times.gradient_field_s += field_timer.elapsed();
    viz::StreamlineOptions opt;
    opt.max_steps = options.streamline_max_steps;
    const auto seeds = viz::grid_seeds(field, options.streamline_seed_grid);
    util::Stopwatch timer;
    const auto set = viz::trace_streamlines(field, seeds, opt);
    trace_seconds += timer.elapsed();
    trace_steps += set.advection_steps;
  }
  times.streamline_s = trace_seconds;
  models.streamline.t_advection_s =
      (trace_steps ? trace_seconds / static_cast<double>(trace_steps) : 1e-7) *
      options.host_power;

  // Filtering throughput from a normalize pass.
  {
    double filter_seconds = 0;
    std::size_t filter_bytes = 0;
    for (const data::ScalarVolume* volume : samples) {
      util::Stopwatch timer;
      const auto out = viz::normalize(*volume);
      filter_seconds += timer.elapsed();
      filter_bytes += volume->bytes();
    }
    if (filter_seconds > 0) {
      models.aux.filter_Bps = static_cast<double>(filter_bytes) /
                              filter_seconds / options.host_power;
    }
    times.filter_s = filter_seconds;
  }
  times.total_s = total.elapsed();
  return models;
}

}  // namespace ricsa::cost
