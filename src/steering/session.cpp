#include "steering/session.hpp"

#include "cost/pipeline_builder.hpp"
#include "data/generators.hpp"
#include "util/stopwatch.hpp"

namespace ricsa::steering {

cost::CostModels calibrate_quick_models() {
  util::Stopwatch timer;
  const data::ScalarVolume jet = data::make_jet(24, 24, 24);
  const data::ScalarVolume rage = data::make_rage(24, 24, 24);
  const double samples_s = timer.elapsed();
  cost::CalibrationOptions opt;
  opt.isovalue_samples = 3;
  opt.raycast_size = 32;
  opt.streamline_seed_grid = 2;
  opt.streamline_max_steps = 50;
  cost::CostModels models = cost::calibrate({&jet, &rage}, opt);
  models.calibration.samples_s = samples_s;
  models.calibration.total_s = timer.elapsed();
  return models;
}

namespace {
/// The shared calibration, done once per process: session construction
/// must stay interactive.
const cost::CostModels& quick_models() {
  static const cost::CostModels models = calibrate_quick_models();
  return models;
}
}  // namespace

SteeringSession::SteeringSession(SessionConfig config)
    : config_(config),
      sim_(config.simulation, config.resolution),
      server_(sim_),
      testbed_(netsim::make_testbed()),
      profile_(cost::NetworkProfile::from_network(*testbed_.net)),
      models_(quick_models()) {
  sim_.solver().set_pool(&pool_);
  // Attach like a client would: a simulation request opens the session.
  server_.post(make_simulation_request(1, sim_.name(), "density"));
  server_.receive_handle_message();
}

void SteeringSession::steer(const std::string& name, double value) {
  Message m = make_steering_params(1, {{name, value}});
  m.sequence = ++message_seq_;
  server_.post(std::move(m));
}

std::map<std::string, double> SteeringSession::parameters() const {
  return sim_.parameters();
}

void SteeringSession::set_variable(const std::string& variable) {
  Message m;
  m.type = MessageType::kVizRequest;
  m.session = 1;
  m.sequence = ++message_seq_;
  m.header["variable"] = variable;
  server_.post(std::move(m));
}

SteeringSession::FrameResult SteeringSession::next_frame() {
  // The Fig. 7 main-loop beat, driven from the monitoring side.
  const int received = server_.receive_handle_message();
  if (received == 1) server_.update_simulation_parameters();
  sim_.advance(config_.cycles_per_frame);
  server_.push_data_to_viz_node();
  auto frame = server_.take_frame();

  FrameResult out;
  out.cycle = frame->cycle;
  out.sim_time = frame->sim_time;
  out.variable = frame->variable;
  // Retain the snapshot for render_view(): extra views re-render this
  // cycle's data instead of advancing the simulation again.
  last_snapshot_ =
      std::make_shared<data::ScalarVolume>(std::move(frame->snapshot));

  // CM side: recompute the VRT for this dataset & operation (footnote 3).
  const auto props = cost::dataset_properties(
      *last_snapshot_, config_.viz.isovalue,
      std::max(4, std::min(16, last_snapshot_->nx() / 4)));
  const auto spec = cost::build_pipeline(config_.viz, props, models_);
  const auto problem = core::MappingProblem::from_pipeline(
      spec, profile_, testbed_.gatech, testbed_.ornl);
  const auto mapping = mapper_.solve(profile_, problem);
  if (mapping.feasible) {
    if (vrt_.groups.empty() ||
        mapping.node_of_module != vrt_.node_of_module()) {
      vrt_ = mapping.to_vrt(++vrt_version_);
    } else {
      vrt_.predicted_delay_s = mapping.delay_s;
    }
  }
  out.vrt = vrt_;

  // Execute the real pipeline on the snapshot.
  ExecuteOptions exec_opt = view_;
  exec_opt.pool = &pool_;
  out.exec = execute_pipeline(*last_snapshot_, config_.viz, exec_opt);
  out.image = out.exec.image;
  return out;
}

std::optional<ExecuteResult> SteeringSession::render_view(
    const cost::VizRequest& request, ExecuteOptions options) {
  if (!last_snapshot_) return std::nullopt;
  options.pool = &pool_;
  return execute_pipeline(*last_snapshot_, request, options);
}

}  // namespace ricsa::steering
