// High-level monitoring & steering session: the functional composition of
// the whole system for in-process use (examples, web dashboard, tests).
//
// Owns a steerable simulation behind a SimulationServer (the Fig. 7 loop),
// the calibrated cost models, the six-site testbed profile, and the CM-side
// DP mapper. Every frame: drain steering messages -> advance the simulation
// -> snapshot -> recompute the VRT for the current dataset (the paper
// recomputes "a new visualization routing table ... for each subsequent
// interactive operation", footnote 3) -> run the real visualization pipeline
// -> return the image plus monitoring metadata.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "core/mapper.hpp"
#include "cost/models.hpp"
#include "cost/network_profile.hpp"
#include "hydro/steerable.hpp"
#include "netsim/testbed.hpp"
#include "pipeline/vrt.hpp"
#include "steering/executor.hpp"
#include "steering/server.hpp"
#include "util/thread_pool.hpp"

namespace ricsa::steering {

struct SessionConfig {
  hydro::HydroSimulation::Kind simulation =
      hydro::HydroSimulation::Kind::kBowshock;
  int resolution = 40;
  cost::VizRequest viz;
  /// Simulation cycles advanced per produced frame.
  int cycles_per_frame = 2;
};

/// The session's cost models: Section 4.4's calibration on 24^3 jet and
/// rage sample volumes, generated first, timing the real kernels. Sessions
/// share one run per process, at the first session's construction, so it
/// is start-up work; models().calibration holds its seconds by kernel, the
/// sample generation included.
cost::CostModels calibrate_quick_models();

class SteeringSession {
 public:
  explicit SteeringSession(SessionConfig config);

  struct FrameResult {
    viz::Image image;
    int cycle = 0;
    double sim_time = 0.0;
    std::string variable;
    ExecuteResult exec;
    pipeline::VisualizationRoutingTable vrt;
  };

  /// Produce the next monitoring frame (advances the simulation).
  FrameResult next_frame();

  /// Re-render the most recent frame's snapshot under a different
  /// request/camera, without advancing the simulation — one simulation
  /// step fanned out into several published *views* (the sharded web
  /// layer's variable × projection streams). Uses the session's pool; call
  /// from the thread driving next_frame(). Returns nullopt before the
  /// first frame.
  std::optional<ExecuteResult> render_view(const cost::VizRequest& request,
                                           ExecuteOptions options);

  /// Post a steering parameter (takes effect on the next frame). Returns
  /// false only for malformed names the protocol rejects outright.
  void steer(const std::string& name, double value);
  std::map<std::string, double> parameters() const;

  void set_variable(const std::string& variable);
  const std::string& variable() const { return server_.monitored_variable(); }

  /// The session's worker pool, sized to the host: the solver's sweeps and
  /// every pipeline stage run on it. Lend it to other work on the thread
  /// driving next_frame() (the web layer's frame encodes).
  util::ThreadPool& pool() noexcept { return pool_; }
  const util::ThreadPool& pool() const noexcept { return pool_; }

  cost::VizRequest& viz_request() noexcept { return config_.viz; }
  ExecuteOptions& view() noexcept { return view_; }
  hydro::Steerable& simulation() noexcept { return sim_; }
  const cost::NetworkProfile& profile() const noexcept { return profile_; }
  const pipeline::VisualizationRoutingTable& vrt() const noexcept { return vrt_; }
  const cost::CostModels& models() const noexcept { return models_; }

 private:
  SessionConfig config_;
  hydro::HydroSimulation sim_;
  SimulationServer server_;
  util::ThreadPool pool_;
  netsim::Testbed testbed_;
  cost::NetworkProfile profile_;
  cost::CostModels models_;
  core::DpMapper mapper_;
  pipeline::VisualizationRoutingTable vrt_;
  std::uint32_t vrt_version_ = 0;
  ExecuteOptions view_;
  /// Sequence of the session's own messages: steer() runs on the web
  /// server's threads, set_variable() on the monitor loop.
  std::atomic<std::uint32_t> message_seq_{0};
  /// The last frame's volume snapshot, retained so render_view() can fan
  /// one simulation step out into several published views.
  std::shared_ptr<const data::ScalarVolume> last_snapshot_;
};

}  // namespace ricsa::steering
