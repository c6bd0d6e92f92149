// Cross-module integration tests and parameterized property sweeps:
// invariants that must hold across randomized inputs and the full-system
// paths that tie the library together (mini Fig. 9, session + reconfigure,
// codec round-trips, conservation laws, watertight extraction).
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "core/mapper.hpp"
#include "core/reconfigure.hpp"
#include "cost/models.hpp"
#include "cost/network_profile.hpp"
#include "cost/pipeline_builder.hpp"
#include "data/generators.hpp"
#include "hydro/setups.hpp"
#include "netsim/testbed.hpp"
#include "pipeline/vrt.hpp"
#include "steering/message.hpp"
#include "steering/session.hpp"
#include "steering/wan_session.hpp"
#include "transport/datagram_transport.hpp"
#include "util/prng.hpp"
#include "viz/image.hpp"
#include "viz/isosurface.hpp"

namespace core = ricsa::core;
namespace c = ricsa::cost;
namespace d = ricsa::data;
namespace h = ricsa::hydro;
namespace ns = ricsa::netsim;
namespace st = ricsa::steering;
namespace tp = ricsa::transport;
namespace u = ricsa::util;
namespace v = ricsa::viz;

// ---------------------------------------------- Watertightness property ----

struct ShapeCase {
  const char* name;
  int size;
  float param_a, param_b;
};

// Names each case by value. Without it gtest prints the raw bytes of the
// struct, which include the address of `name`; that address moves with
// every run, so the discovered ctest names would never repeat.
void PrintTo(const ShapeCase& sc, std::ostream* os) {
  *os << sc.name << "_n" << sc.size << "_a" << sc.param_a << "_b"
      << sc.param_b;
}

class WatertightSurfaces : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(WatertightSurfaces, ClosedManifoldAtEveryInteriorIsovalue) {
  const ShapeCase& sc = GetParam();
  d::ScalarVolume vol =
      std::string(sc.name) == "sphere"
          ? d::make_sphere(sc.size, sc.param_a)
          : d::make_torus(sc.size, sc.param_a, sc.param_b);
  for (const float iso : {-1.0f, 0.0f, 1.0f}) {
    const auto result = v::extract_isosurface(vol, iso);
    ASSERT_GT(result.mesh.triangle_count(), 0u)
        << sc.name << " iso=" << iso;
    EXPECT_TRUE(result.mesh.is_closed()) << sc.name << " iso=" << iso;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, WatertightSurfaces,
    ::testing::Values(ShapeCase{"sphere", 21, 6.0f, 0},
                      ShapeCase{"sphere", 27, 9.5f, 0},
                      ShapeCase{"sphere", 33, 11.0f, 0},
                      ShapeCase{"torus", 41, 10.0f, 4.0f},
                      ShapeCase{"torus", 33, 8.0f, 3.0f}));

// ----------------------------------------- Message round-trip property ----

class MessageRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(MessageRoundTrip, RandomMessagesSurviveSerialization) {
  u::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 1337);
  for (int i = 0; i < 50; ++i) {
    st::Message m;
    m.type = static_cast<st::MessageType>(rng.uniform_int(1, 11));
    m.session = static_cast<std::uint32_t>(rng());
    m.sequence = static_cast<std::uint32_t>(rng());
    m.header["k" + std::to_string(i)] = rng.uniform(-1e6, 1e6);
    m.header["s"] = std::string("value-\n\"quoted\"-") + std::to_string(i);
    m.payload.resize(static_cast<std::size_t>(rng.uniform_int(0, 4096)));
    for (auto& b : m.payload) b = static_cast<std::uint8_t>(rng() & 0xFF);

    const st::Message back = st::Message::deserialize(m.serialize());
    EXPECT_EQ(back.type, m.type);
    EXPECT_EQ(back.session, m.session);
    EXPECT_EQ(back.sequence, m.sequence);
    EXPECT_EQ(back.payload, m.payload);
    EXPECT_EQ(back.header.dump(), m.header.dump());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MessageRoundTrip, ::testing::Range(1, 6));

// ------------------------------------------------- VRT codec property ----

class VrtRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(VrtRoundTrip, RandomAssignmentsSurviveSerialization) {
  u::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 271828);
  for (int i = 0; i < 100; ++i) {
    const int modules = static_cast<int>(rng.uniform_int(2, 12));
    std::vector<int> assignment;
    int node = static_cast<int>(rng.uniform_int(0, 5));
    for (int m = 0; m < modules; ++m) {
      if (rng.bernoulli(0.4)) node = static_cast<int>(rng.uniform_int(0, 5));
      assignment.push_back(node);
    }
    const auto vrt = ricsa::pipeline::vrt_from_assignment(
        assignment, rng.uniform(0, 100), static_cast<std::uint32_t>(i));
    EXPECT_TRUE(vrt.valid());
    EXPECT_EQ(vrt.node_of_module(), assignment);
    const auto back =
        ricsa::pipeline::VisualizationRoutingTable::deserialize(vrt.serialize());
    EXPECT_EQ(back, vrt);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VrtRoundTrip, ::testing::Range(1, 5));

// -------------------------------------- Transport reliability property ----

class TransportLossSweep : public ::testing::TestWithParam<double> {};

TEST_P(TransportLossSweep, MessageAlwaysDeliveredExactlyOnce) {
  const double loss = GetParam();
  ns::Simulator sim;
  ns::Network net(sim, static_cast<std::uint64_t>(loss * 1e6) + 17);
  const auto a = net.add_node({.name = "A"});
  const auto b = net.add_node({.name = "B"});
  ns::LinkConfig link;
  link.bandwidth_Bps = 3e6;
  link.prop_delay_s = 0.01;
  link.random_loss = loss;
  net.add_duplex(a, b, link);

  tp::RmsaConfig rc;
  rc.target_Bps = 2e6;
  rc.initial_sleep_s = 0.02;
  double completed_at = -1;
  const std::size_t bytes = 300 * 1000;
  auto flow = tp::make_message_flow(net, a, b, bytes,
                                    std::make_unique<tp::RmsaController>(rc),
                                    [&](ns::SimTime t) { completed_at = t; });
  sim.run();
  ASSERT_GT(completed_at, 0.0) << "loss=" << loss;
  // Exactly-once: unique payload bytes == message bytes.
  const auto expected = flow.sender->datagram_count(bytes);
  EXPECT_EQ(flow.receiver->stats().datagrams_received -
                flow.receiver->stats().duplicates,
            expected);
  // Higher loss should never corrupt, only slow down.
  EXPECT_LT(completed_at, 60.0);
}

INSTANTIATE_TEST_SUITE_P(LossRates, TransportLossSweep,
                         ::testing::Values(0.0, 0.005, 0.02, 0.08, 0.15));

// ------------------------------------------ Image codec property sweep ----

class ImageCodecs : public ::testing::TestWithParam<int> {};

TEST_P(ImageCodecs, RleAndPngHandleRandomImages) {
  u::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 31415);
  const int w = static_cast<int>(rng.uniform_int(1, 64));
  const int hgt = static_cast<int>(rng.uniform_int(1, 64));
  v::Image img(w, hgt);
  for (int y = 0; y < hgt; ++y) {
    for (int x = 0; x < w; ++x) {
      // Mix of runs and noise.
      if (rng.bernoulli(0.7)) continue;  // leave default (run)
      img.at(x, y) = {static_cast<std::uint8_t>(rng() & 0xFF),
                      static_cast<std::uint8_t>(rng() & 0xFF),
                      static_cast<std::uint8_t>(rng() & 0xFF), 255};
    }
  }
  const auto rle = v::rle_encode(img);
  EXPECT_EQ(v::rle_decode(rle, w, hgt).pixels(), img.pixels());

  const auto png = img.encode_png();
  // PNG structural sanity: signature + IHDR dims.
  ASSERT_GT(png.size(), 45u);
  EXPECT_EQ(png[0], 0x89);
  const int png_w = (png[16] << 24) | (png[17] << 16) | (png[18] << 8) | png[19];
  const int png_h = (png[20] << 24) | (png[21] << 16) | (png[22] << 8) | png[23];
  EXPECT_EQ(png_w, w);
  EXPECT_EQ(png_h, hgt);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ImageCodecs, ::testing::Range(1, 13));

// --------------------------------------- Hydro conservation property ----

class HydroConservation : public ::testing::TestWithParam<int> {};

TEST_P(HydroConservation, ClosedBoxConservesMassEnergy) {
  u::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 97);
  h::EulerConfig config;
  config.dx = 1.0 / 16;
  config.boundaries = {h::Boundary::kReflect, h::Boundary::kReflect,
                       h::Boundary::kReflect, h::Boundary::kReflect,
                       h::Boundary::kReflect, h::Boundary::kReflect};
  h::EulerSolver3D solver(16, 16, 16, config);
  for (int k = 0; k < 16; ++k) {
    for (int j = 0; j < 16; ++j) {
      for (int i = 0; i < 16; ++i) {
        solver.set_primitive(i, j, k,
                             {rng.uniform(0.2, 2.0), rng.uniform(-0.5, 0.5),
                              rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                              rng.uniform(0.2, 2.0)});
      }
    }
  }
  const double m0 = solver.total_mass();
  const double e0 = solver.total_energy();
  for (int s = 0; s < 20; ++s) solver.step();
  EXPECT_NEAR(solver.total_mass(), m0, 1e-9 * m0);
  EXPECT_NEAR(solver.total_energy(), e0, 1e-9 * e0);
  // Positivity is maintained from random initial data.
  for (int k = 0; k < 16; ++k) {
    for (int j = 0; j < 16; ++j) {
      for (int i = 0; i < 16; ++i) {
        EXPECT_GT(solver.primitive(i, j, k).rho, 0.0);
        EXPECT_GT(solver.primitive(i, j, k).p, 0.0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HydroConservation, ::testing::Range(1, 7));

// ----------------------------------------------- Mini Fig. 9 integration ----

TEST(Integration, OptimalLoopBeatsAllFixedAlternatives) {
  // Small-payload version of the Fig. 9 comparison: the DP's choice must be
  // at least as fast as every hand-pinned loop, measured (not predicted).
  const std::size_t bytes = 4 * 1000 * 1000;
  const auto spec = ricsa::pipeline::make_isosurface_pipeline(
      bytes, 1.0, bytes / 4, 1 << 20);

  const auto run_one = [&](std::optional<std::vector<int>> fixed) {
    ns::Testbed tb = ns::make_testbed();
    st::WanSessionConfig config;
    config.client = tb.ornl;
    config.central_manager = tb.lsu;
    config.data_source = tb.gatech;
    config.profile = c::NetworkProfile::from_network(*tb.net);
    config.spec = spec;
    config.fixed_assignment = std::move(fixed);
    return st::run_wan_session(*tb.net, config);
  };

  const auto optimal = run_one(std::nullopt);
  ASSERT_TRUE(optimal.completed);

  const std::vector<std::vector<int>> alternatives = {
      {5, 5, 3, 3, 0},  // via NCState
      {5, 5, 2, 2, 0},  // via UT
      {5, 5, 5, 0, 0},  // PC-PC, render at client
  };
  for (const auto& alt : alternatives) {
    const auto result = run_one(alt);
    ASSERT_TRUE(result.completed);
    EXPECT_LE(optimal.data_path_s, result.data_path_s * 1.05)
        << "fixed " << alt[2];
  }
}

TEST(Integration, SessionVrtTracksDegradedNetwork) {
  // End-to-end: a steering session's CM re-solves per frame; if we rebuild
  // the problem on a profile with the optimal link degraded, the VRT path
  // changes. (Profile-level check of the reconfiguration path.)
  ns::Testbed tb = ns::make_testbed();
  const d::ScalarVolume vol = d::make_rage(32, 32, 32);
  c::CalibrationOptions cal;
  cal.isovalue_samples = 2;
  const auto models = c::calibrate({&vol}, cal);
  const auto props = c::scale_properties(
      c::dataset_properties(vol, 0.6f), 64 * 1000 * 1000);
  c::VizRequest req;
  req.isovalue = 0.6f;
  const auto spec = c::build_pipeline(req, props, models);
  auto problem = core::MappingProblem::from_pipeline(
      spec, c::NetworkProfile::from_network(*tb.net), tb.gatech, tb.ornl);

  core::Reconfigurator reconf(problem);
  const auto healthy = reconf.update(c::NetworkProfile::from_network(*tb.net));
  ASSERT_TRUE(healthy.mapping.feasible);

  tb.net->link(tb.gatech, tb.ut).set_bandwidth(5e5);
  const auto degraded = reconf.update(c::NetworkProfile::from_network(*tb.net));
  EXPECT_TRUE(degraded.changed);
  EXPECT_NE(degraded.mapping.node_of_module, healthy.mapping.node_of_module);
  EXPECT_LT(degraded.mapping.delay_s, degraded.stale_delay_s);
}

TEST(Integration, CostCalibrationFeedsDpConsistently) {
  // The delay the DP reports must equal the Eq. 2 evaluation of its own
  // assignment for a fully calibrated, realistic pipeline.
  const d::ScalarVolume vol = d::make_jet(32, 32, 32);
  c::CalibrationOptions cal;
  cal.isovalue_samples = 2;
  const auto models = c::calibrate({&vol}, cal);
  ns::Testbed tb = ns::make_testbed();
  const auto profile = c::NetworkProfile::from_network(*tb.net);
  for (const double mb : {1.0, 16.0, 108.0}) {
    const auto props = c::scale_properties(
        c::dataset_properties(vol, 0.5f),
        static_cast<std::size_t>(mb * 1e6));
    c::VizRequest req;
    req.isovalue = 0.5f;
    const auto spec = c::build_pipeline(req, props, models);
    const auto problem = core::MappingProblem::from_pipeline(
        spec, profile, tb.gatech, tb.ornl);
    const auto mapping = core::DpMapper().solve(profile, problem);
    ASSERT_TRUE(mapping.feasible) << mb << " MB";
    EXPECT_NEAR(core::predict_delay(profile, problem, mapping.node_of_module),
                mapping.delay_s, 1e-9);
    // Source pinned at GaTech, display at ORNL, render on a GPU node.
    EXPECT_EQ(mapping.node_of_module.front(), tb.gatech);
    EXPECT_EQ(mapping.node_of_module.back(), tb.ornl);
    EXPECT_TRUE(profile.has_gpu(mapping.node_of_module[3])) << mb << " MB";
  }
}
