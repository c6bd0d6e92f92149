#include "steering/wan_session.hpp"

#include <cmath>
#include <memory>

#include "steering/message.hpp"
#include "transport/datagram_transport.hpp"
#include "util/strings.hpp"

namespace ricsa::steering {

namespace {

/// Shared mutable state for the asynchronous actor chain.
struct SessionState {
  netsim::Network* net = nullptr;
  WanSessionConfig config;
  core::MappingProblem problem;
  WanResult result;
  double t0 = 0.0;
  double data_start = 0.0;
  std::vector<transport::Flow> flows;  // keep data flows alive
  bool done = false;
};

/// Reliable-enough control message: the wire carries three duplicates (the
/// stabilized control channel of Section 3 guarantees delivery; at the
/// 0.05% testbed loss rate triple-send fails with p ~ 1e-10) and the
/// receiver fires once.
void send_control(SessionState& s, netsim::NodeId from, netsim::NodeId to,
                  std::size_t bytes, std::function<void()> on_arrive) {
  if (from == to) {
    s.net->simulator().after(1e-5, std::move(on_arrive));
    return;
  }
  const int port = transport::allocate_port();
  auto fired = std::make_shared<bool>(false);
  s.net->listen(to, port,
                [&s, to, port, fired, cb = std::move(on_arrive)](const netsim::Packet&) {
                  if (*fired) return;
                  *fired = true;
                  // Copy everything needed onto the stack before unlisten
                  // (which may release this closure's captures).
                  auto callback = cb;
                  netsim::Network* net = s.net;
                  net->unlisten(to, port);
                  callback();
                });
  for (int copy = 0; copy < 3; ++copy) {
    netsim::Packet p;
    p.src = from;
    p.dst = to;
    p.port = port;
    p.wire_bytes = bytes;
    s.net->send(std::move(p));
  }
}

void record(SessionState& s, const std::string& label, int node, double start) {
  s.result.timeline.push_back(
      {label, node, start, s.net->simulator().now()});
}

void execute_group(std::shared_ptr<SessionState> s, std::size_t group_index);

void start_transfer(std::shared_ptr<SessionState> s, std::size_t group_index);

void transfer_to_next(std::shared_ptr<SessionState> s, std::size_t group_index) {
  if (s->config.per_transfer_overhead_s > 0.0) {
    s->net->simulator().after(s->config.per_transfer_overhead_s,
                              [s, group_index] { start_transfer(s, group_index); });
  } else {
    start_transfer(s, group_index);
  }
}

void start_transfer(std::shared_ptr<SessionState> s, std::size_t group_index) {
  const auto& groups = s->result.vrt.groups;
  const auto& g = groups[group_index];
  const auto& next = groups[group_index + 1];
  const std::size_t bytes =
      s->problem.messages[static_cast<std::size_t>(g.last_module)];
  const double start = s->net->simulator().now();

  auto on_done = [s, group_index, g, next, bytes, start](netsim::SimTime) {
    record(*s,
           util::strprintf("transfer %s -> %s (%s)",
                           s->config.profile.name(g.node).c_str(),
                           s->config.profile.name(next.node).c_str(),
                           util::format_bytes(static_cast<double>(bytes)).c_str()),
           g.node, start);
    execute_group(s, group_index + 1);
  };

  if (!s->config.packet_transport) {
    const double delay =
        s->config.profile.transfer_seconds(g.node, next.node, bytes);
    s->net->simulator().after(delay, [on_done, s] {
      on_done(s->net->simulator().now());
    });
    return;
  }

  transport::FlowConfig fc;
  fc.datagram_payload = s->config.datagram_payload;
  // Keep one full window inside the default 512 KB link queue so bursts
  // don't tail-drop themselves even on thin links.
  fc.window = 6;
  transport::RmsaConfig rc;
  rc.target_Bps = s->config.target_share *
                  s->config.profile.link(g.node, next.node).epb_Bps;
  rc.datagram_bytes = fc.datagram_payload;
  rc.window = fc.window;
  // Start the Robbins-Monro controller at the target rate rather than
  // probing up from overload: Ts0 = window_payload / g*.
  rc.initial_sleep_s =
      static_cast<double>(fc.window * fc.datagram_payload) / rc.target_Bps;
  s->flows.push_back(transport::make_message_flow(
      *s->net, g.node, next.node, bytes,
      std::make_unique<transport::RmsaController>(rc), on_done, fc));
}

void execute_group(std::shared_ptr<SessionState> s, std::size_t group_index) {
  const auto& groups = s->result.vrt.groups;
  const auto& g = groups[group_index];

  // Aggregate compute time of the group's modules on this host (Eq. 2's
  // per-group term), plus the cluster distribution overhead when a parallel
  // host activates a non-trivial task (Section 5.3.1's observed penalty).
  double compute = 0.0;
  for (int m = g.first_module; m <= g.last_module; ++m) {
    compute += s->problem.unit_compute[static_cast<std::size_t>(m)] /
               s->config.profile.power(g.node);
  }
  const auto& host = s->net->node(g.node);
  // Matches the model's accounting: entering a cluster node (any non-first
  // group there) pays the data-distribution overhead once.
  if (host.parallel_workers > 1 && group_index > 0) {
    compute += host.distribution_overhead_s;
  }

  const double start = s->net->simulator().now();
  s->net->simulator().after(compute, [s, group_index, g, start] {
    record(*s,
           util::strprintf("compute M%d..M%d @ %s", g.first_module,
                           g.last_module,
                           s->config.profile.name(g.node).c_str()),
           g.node, start);
    const auto& all = s->result.vrt.groups;
    if (group_index + 1 < all.size()) {
      transfer_to_next(s, group_index);
    } else {
      // Image displayed at the client: the loop is closed.
      s->result.completed = true;
      s->result.data_path_s = s->net->simulator().now() - s->data_start;
      s->result.total_s = s->net->simulator().now() - s->t0;
      s->done = true;
    }
  });
}

}  // namespace

WanResult run_wan_session(netsim::Network& net, const WanSessionConfig& config) {
  auto s = std::make_shared<SessionState>();
  s->net = &net;
  s->config = config;

  // The CM's mapping decision (DP or pinned baseline assignment).
  s->problem = core::MappingProblem::from_pipeline(
      config.spec, config.profile, config.data_source, config.client);
  core::Mapping mapping;
  if (config.fixed_assignment) {
    mapping.node_of_module = *config.fixed_assignment;
    mapping.delay_s =
        core::predict_delay(config.profile, s->problem, mapping.node_of_module);
    mapping.feasible = std::isfinite(mapping.delay_s);
  } else {
    mapping = core::DpMapper().solve(config.profile, s->problem);
  }
  if (!mapping.feasible) {
    return s->result;  // completed = false
  }
  s->result.assignment = mapping.node_of_module;
  s->result.vrt = mapping.to_vrt(1);

  // ---- Control phase: client -> CM -> DS, then the data phase ----------
  s->t0 = net.simulator().now();
  const Message request = make_viz_request(1, config.spec.name(), 0.5f, 512, 512);
  const std::size_t request_bytes = request.wire_bytes();
  const std::size_t vrt_bytes = s->result.vrt.serialize().size() + 64;

  const double ctrl_start = net.simulator().now();
  send_control(*s, config.client, config.central_manager, request_bytes, [s, vrt_bytes, ctrl_start] {
    record(*s, "request @ CM", s->config.central_manager, ctrl_start);
    s->net->simulator().after(s->config.cm_compute_s, [s, vrt_bytes] {
      const double vrt_start = s->net->simulator().now();
      send_control(*s, s->config.central_manager, s->config.data_source,
                   vrt_bytes, [s, vrt_start] {
                     record(*s, "VRT installed @ DS", s->config.data_source,
                            vrt_start);
                     s->result.control_s =
                         s->net->simulator().now() - s->t0;
                     s->data_start = s->net->simulator().now();
                     execute_group(s, 0);
                   });
    });
  });

  net.simulator().run();
  // Each flow's completion callback holds `s`, which holds the flows: drop
  // them so the session state is freed.
  s->flows.clear();
  return s->result;
}

}  // namespace ricsa::steering
