// Cost-model tests (Section 4.4): calibration invariants, prediction
// accuracy against real module runs, ray-geometry estimation, network
// profiles (ground truth + active measurement), and the pipeline builder.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "cost/models.hpp"
#include "cost/network_profile.hpp"
#include "cost/pipeline_builder.hpp"
#include "data/generators.hpp"
#include "netsim/testbed.hpp"
#include "util/stopwatch.hpp"
#include "viz/isosurface.hpp"

namespace c = ricsa::cost;
namespace d = ricsa::data;
namespace v = ricsa::viz;
namespace ns = ricsa::netsim;

namespace {
/// Shared calibration fixture: calibrate once on two small volumes.
const c::CostModels& shared_models() {
  static const c::CostModels models = [] {
    static const d::ScalarVolume jet = d::make_jet(40, 40, 40);
    static const d::ScalarVolume rage = d::make_rage(40, 40, 40);
    c::CalibrationOptions opt;
    opt.isovalue_samples = 5;
    opt.raycast_size = 64;
    opt.host_power = 1.0;  // validate predictions against THIS machine
    return c::calibrate({&jet, &rage}, opt);
  }();
  return models;
}
}  // namespace

// ------------------------------------------------------ IsosurfaceModel ----

TEST(IsosurfaceModel, CalibrationProbabilitiesSumToOne) {
  const auto& m = shared_models().isosurface;
  double sum = 0;
  for (const double p : m.p_case) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // Class 0 (empty/full) dominates typical volumes.
  EXPECT_GT(m.p_case[0], 0.5);
  // Per-class times are nonnegative and increase with triangle yield.
  for (int i = 0; i < c::kMcClasses; ++i) {
    EXPECT_GE(m.t_case[static_cast<std::size_t>(i)], 0.0);
  }
  EXPECT_GT(m.triangles_per_second, 1e3);
}

TEST(IsosurfaceModel, BytesPerTriangleIsMeasuredOnTheCalibrationMeshes) {
  // The wire size the pipeline builder prices geometry at is the summed
  // TriangleMesh::bytes() over the summed triangles of the calibration's
  // own extractions: shared vertices put it well under the 84 B of an
  // unwelded soup, and above the 12 B of its indices.
  double bytes = 0, triangles = 0;
  for (const d::ScalarVolume& vol :
       {d::make_jet(40, 40, 40), d::make_rage(40, 40, 40)}) {
    const auto [lo, hi] = vol.min_max();
    for (int s = 0; s < 5; ++s) {
      const float iso =
          lo + (hi - lo) * (static_cast<float>(s) + 0.5f) / 5.0f;
      const auto result = v::extract_isosurface(vol, iso);
      bytes += static_cast<double>(result.mesh.bytes());
      triangles += static_cast<double>(result.mesh.triangle_count());
    }
  }
  ASSERT_GT(triangles, 0.0);
  const double measured = shared_models().isosurface.bytes_per_triangle;
  EXPECT_EQ(measured, bytes / triangles);
  EXPECT_GT(measured, 12.0);
  EXPECT_LT(measured, 0.5 * 84.0);
  EXPECT_EQ(c::IsosurfaceModel{}.bytes_per_triangle, 84.0);
}

TEST(IsosurfaceModel, TriangleCountPredictionMatchesActual) {
  const d::ScalarVolume vol = d::make_jet(40, 40, 40);
  const auto& m = shared_models().isosurface;
  const float iso = 0.5f;
  const d::BlockDecomposition blocks(vol, 16);
  const auto props = c::dataset_properties(vol, iso, 16);
  const double predicted =
      m.predict_triangles(props.active_blocks, props.cells_per_block);
  const auto actual = v::extract_isosurface(vol, iso);
  // Statistical model: correct within ~50% (the class mix shifts with the
  // chosen isovalue; the paper reports the same kind of approximation).
  EXPECT_GT(predicted, 0.5 * static_cast<double>(actual.stats.triangles));
  EXPECT_LT(predicted, 2.0 * static_cast<double>(actual.stats.triangles));
}

TEST(IsosurfaceModel, ExtractionTimePredictionWithinFactor) {
  const d::ScalarVolume vol = d::make_rage(48, 48, 48);
  const auto& m = shared_models().isosurface;
  const float iso = 0.6f;
  const auto props = c::dataset_properties(vol, iso, 16);
  const double predicted =
      m.predict_extraction_s(props.active_blocks, props.cells_per_block);
  ricsa::util::Stopwatch timer;
  const auto result = v::extract_isosurface(vol, iso);
  const double measured = timer.elapsed();
  ASSERT_GT(result.stats.triangles, 0u);
  EXPECT_GT(predicted, measured / 4.0);
  EXPECT_LT(predicted, measured * 4.0);
}

TEST(IsosurfaceModel, PredictionsScaleLinearlyInBlocks) {
  const auto& m = shared_models().isosurface;
  const double one = m.predict_extraction_s(10, 4096);
  const double two = m.predict_extraction_s(20, 4096);
  EXPECT_NEAR(two, 2.0 * one, 1e-12);
  EXPECT_GT(one, 0.0);
}

TEST(IsosurfaceModel, GpuSpeedsUpRendering) {
  const auto& m = shared_models().isosurface;
  const double cpu = m.predict_render_s(1e6, false);
  const double gpu = m.predict_render_s(1e6, true);
  EXPECT_NEAR(cpu / gpu, m.gpu_speedup, 1e-6);
}

// --------------------------------------------------------- RayCastModel ----

TEST(RayCastModel, GeometryEstimateMatchesActualCounts) {
  const d::ScalarVolume vol = d::make_jet(32, 32, 32);
  v::RayCastOptions opt;
  opt.width = 64;
  opt.height = 64;
  const auto estimate = v::estimate_raycast_counts(32, 32, 32, opt);
  const auto tf = v::TransferFunction::preset(0.0f, 1.3f);
  const auto actual = v::raycast(vol, tf, opt);
  EXPECT_EQ(estimate.rays, actual.rays);
  // Float accumulation can shift per-ray sample counts by 1.
  const double rel =
      std::abs(static_cast<double>(estimate.samples) -
               static_cast<double>(actual.samples)) /
      static_cast<double>(actual.samples);
  EXPECT_LT(rel, 0.02);
}

TEST(RayCastModel, TimePredictionWithinFactor) {
  const d::ScalarVolume vol = d::make_viswoman(48, 48, 48);
  const auto& m = shared_models().raycast;
  v::RayCastOptions opt;
  opt.width = 96;
  opt.height = 96;
  const auto geom = v::estimate_raycast_counts(48, 48, 48, opt);
  const double predicted = m.predict_s(geom);
  const auto tf = v::TransferFunction::preset(0.0f, 1.0f);
  // Running minimum with early exit: the model predicts the render's
  // *compute* cost, and under a parallelized test suite a single
  // wall-clock sample can be inflated severalfold by descheduling. The
  // fastest sample is the one with the least scheduler noise in it; more
  // attempts only run while the bound is still missed.
  double measured = std::numeric_limits<double>::infinity();
  bool within = false;
  for (int run = 0; run < 8 && !within; ++run) {
    ricsa::util::Stopwatch timer;
    v::raycast(vol, tf, opt);
    measured = std::min(measured, timer.elapsed());
    within = predicted > measured / 4.0 && predicted < measured * 4.0;
  }
  EXPECT_TRUE(within) << "predicted " << predicted << " s vs best measured "
                      << measured << " s";
}

// ------------------------------------------------------ StreamlineModel ----

TEST(StreamlineModel, PredictionFormula) {
  const auto& m = shared_models().streamline;
  EXPECT_GT(m.t_advection_s, 0.0);
  EXPECT_NEAR(m.predict_s(100, 50), 100.0 * 50.0 * m.t_advection_s, 1e-15);
}

// ------------------------------------------------------- NetworkProfile ----

TEST(NetworkProfile, FromNetworkMirrorsTopology) {
  const ns::Testbed tb = ns::make_testbed();
  const auto profile = c::NetworkProfile::from_network(*tb.net, 0.8);
  EXPECT_EQ(profile.node_count(), 6);
  EXPECT_EQ(profile.name(tb.ornl), "ORNL");
  EXPECT_TRUE(profile.has_gpu(tb.ornl));
  EXPECT_FALSE(profile.has_gpu(tb.gatech));
  EXPECT_TRUE(profile.has_link(tb.gatech, tb.ut));
  EXPECT_FALSE(profile.has_link(tb.lsu, tb.ut));
  // Efficiency derating applies.
  const double raw = tb.net->link(tb.ut, tb.ornl).config().bandwidth_Bps;
  EXPECT_NEAR(profile.link(tb.ut, tb.ornl).epb_Bps, 0.8 * raw, 1e-6);
  EXPECT_THROW(profile.link(tb.lsu, tb.ut), std::out_of_range);
}

TEST(NetworkProfile, TransferSecondsUsesEpbPlusDelay) {
  c::NetworkProfile p;
  p.add_node("a", 1.0, false);
  p.add_node("b", 1.0, false);
  p.set_link(0, 1, {1e6, 0.05});
  EXPECT_NEAR(p.transfer_seconds(0, 1, 1000000), 1.05, 1e-9);
}

TEST(NetworkProfile, ActiveMeasurementApproximatesGroundTruth) {
  // Two-node network; measured EPB should land within a factor of ~2 of the
  // configured bandwidth and rank-order a fast vs slow link correctly.
  ns::Simulator sim;
  ns::Network net(sim, 3);
  const auto a = net.add_node({.name = "A", .power = 1.0});
  const auto b = net.add_node({.name = "B", .power = 1.0});
  ns::LinkConfig fast;
  fast.bandwidth_Bps = 6e6;
  fast.prop_delay_s = 0.01;
  ns::LinkConfig slow = fast;
  slow.bandwidth_Bps = 1.5e6;
  net.add_duplex(a, b, fast);
  // Overwrite the return direction with the slow link; A->B stays fast.
  net.add_link(b, a, slow);

  ricsa::transport::EpbOptions epb;
  epb.probe_sizes = {100 * 1024, 400 * 1024, 1000 * 1024};
  epb.repeats = 1;
  const auto profile = c::NetworkProfile::measure(net, epb);
  const double measured = profile.link(a, b).epb_Bps;
  EXPECT_GT(measured, 6e6 / 2.5);
  EXPECT_LT(measured, 6e6 * 1.5);
}

// ------------------------------------------------------ PipelineBuilder ----

TEST(PipelineBuilder, DatasetPropertiesFromVolume) {
  const d::ScalarVolume vol = d::make_sphere(33, 10.0f);
  const auto props = c::dataset_properties(vol, 0.0f, 8);
  EXPECT_EQ(props.bytes, vol.bytes());
  EXPECT_EQ(props.nx, 33);
  EXPECT_GT(props.active_blocks, 0u);
  EXPECT_EQ(props.cells_per_block, 512u);
}

TEST(PipelineBuilder, ScalePropertiesExtrapolates) {
  c::DatasetProperties small;
  small.bytes = 1000000;
  small.nx = small.ny = small.nz = 63;
  small.active_blocks = 100;
  small.cells_per_block = 4096;
  const auto big = c::scale_properties(small, 8000000);
  EXPECT_EQ(big.bytes, 8000000u);
  EXPECT_NEAR(big.nx, 126, 2);
  // Area scaling: active blocks grow ~4x when linear size doubles
  // (smooth large-scale surfaces; see pipeline_builder.cpp).
  EXPECT_NEAR(static_cast<double>(big.active_blocks), 400.0, 40.0);
}

TEST(PipelineBuilder, IsosurfacePipelineShape) {
  const d::ScalarVolume vol = d::make_jet(40, 40, 40);
  const auto props = c::dataset_properties(vol, 0.5f, 16);
  c::VizRequest req;
  req.technique = c::VizRequest::Technique::kIsosurface;
  req.isovalue = 0.5f;
  req.image_width = 512;
  req.image_height = 512;
  const auto spec = c::build_pipeline(req, props, shared_models());
  ASSERT_EQ(spec.module_count(), 5u);
  const auto msgs = spec.message_bytes();
  EXPECT_EQ(msgs[0], vol.bytes());
  EXPECT_EQ(msgs[3], 512u * 512u * 4u);  // framebuffer
  // Geometry message equals the wire size of the predicted triangle count.
  // (For a tiny 40^3 test volume the surface can outweigh the raw bytes —
  // only at paper scale does geometry << raw hold.)
  const double tris = shared_models().isosurface.predict_triangles(
      props.active_blocks, props.cells_per_block);
  EXPECT_EQ(msgs[2], c::geometry_bytes(
                         tris, shared_models().isosurface.bytes_per_triangle));
  const auto compute = spec.unit_compute_seconds();
  for (std::size_t j = 1; j < compute.size(); ++j) {
    EXPECT_GE(compute[j], 0.0) << "module " << j;
  }
  // Extraction dominates filter cost.
  EXPECT_GT(compute[2], compute[1]);
  // The render module requires a GPU; others don't.
  EXPECT_TRUE(spec.modules()[3].requires_gpu);
  EXPECT_FALSE(spec.modules()[2].requires_gpu);
}

TEST(PipelineBuilder, RayCastPipelineEmitsPixelsDirectly) {
  const d::ScalarVolume vol = d::make_jet(32, 32, 32);
  const auto props = c::dataset_properties(vol, 0.5f, 16);
  c::VizRequest req;
  req.technique = c::VizRequest::Technique::kRayCast;
  req.image_width = 256;
  req.image_height = 256;
  const auto spec = c::build_pipeline(req, props, shared_models());
  ASSERT_EQ(spec.module_count(), 4u);
  const auto msgs = spec.message_bytes();
  EXPECT_EQ(msgs.back(), 256u * 256u * 4u);
}

TEST(PipelineBuilder, GeometryBytesFormula) {
  EXPECT_EQ(c::geometry_bytes(100.0, 84.0), 8400u);  // unwelded soup
  EXPECT_EQ(c::geometry_bytes(100.0, 30.25), 3025u);
  EXPECT_EQ(c::geometry_bytes(-5.0, 30.0), 0u);
  EXPECT_EQ(c::framebuffer_bytes(512, 512), 1048576u);
}

TEST(PipelineBuilder, FilterKeepShrinksDownstreamWork) {
  const d::ScalarVolume vol = d::make_jet(32, 32, 32);
  const auto props = c::dataset_properties(vol, 0.5f, 16);
  c::VizRequest full, eighth;
  eighth.filter_keep = 0.125;
  const auto spec_full = c::build_pipeline(full, props, shared_models());
  const auto spec_8 = c::build_pipeline(eighth, props, shared_models());
  EXPECT_LT(spec_8.message_bytes()[1], spec_full.message_bytes()[1]);
}
