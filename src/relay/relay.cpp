#include "relay/relay.hpp"

#include <string_view>
#include <utility>

#include "util/json.hpp"
#include "util/strings.hpp"

namespace ricsa::relay {
namespace {

web::HubRegistry::Config registry_config(const RelayNodeConfig& config) {
  web::HubRegistry::Config out;
  out.hub.window = config.frame_window;
  if (!config.subscriber.views.empty()) {
    out.default_view = config.subscriber.views.front();
  }
  // Downstream clients get the same session/controller stack the origin
  // runs — a relay tier must not turn paced clients back into unpaced ones.
  out.pacing = config.pacing;
  return out;
}

web::FrameService::Setup setup_of(const RelayNodeConfig& config) {
  web::FrameService::Setup setup;
  setup.poll_timeout_s = config.poll_timeout_s;
  setup.reactors = config.reactors;
  setup.max_connections = config.max_connections;
  return setup;
}

}  // namespace

RelayNode::RelayNode(RelayNodeConfig config)
    : config_(std::move(config)),
      service_(registry_config(config_), setup_of(config_), serving_policy(),
               config_.pacing.frame_interval_s),
      subscriber_(config_.subscriber, service_.registry()),
      forward_client_(config_.subscriber.upstream_port) {
  // Control traffic goes upstream: a relay can serve frames, only the
  // origin can steer the simulation or declare views.
  for (const char* path : {"/api/steer", "/api/view"}) {
    service_.route_async(
        "POST", path,
        [this, path](const web::HttpRequest& r,
                     web::FrameService::Reply reply) {
          forwarder_.submit([this, path, r, reply = std::move(reply)] {
            reply(forward_post(r, path));
          });
        });
  }
}

RelayNode::~RelayNode() { stop(); }

web::ServingPolicy RelayNode::serving_policy() {
  web::ServingPolicy policy;
  // The relay owns no cheaper encodings: the session's controller paces
  // and skips, but every body is the full-tier body it received.
  policy.full_tier_only = true;
  policy.request_full = [this](const std::string& view) {
    subscriber_.request_resync(view);
  };
  policy.decorate = [this](std::map<std::string, std::string>& headers) {
    headers["X-Relay-Path"] = relay_path_header();
  };
  policy.refuse =
      [this](const web::HttpRequest& request)
      -> std::optional<web::HttpResponse> {
    if (!request_path_conflicts(request)) return std::nullopt;
    return web::HttpResponse::json(
        "{\"error\":\"relay loop\",\"path\":\"" + relay_path_header() + "\"}",
        409);
  };
  policy.add_stats = [this](util::Json& out) { add_stats(out); };
  return policy;
}

int RelayNode::start() {
  if (started_.exchange(true)) return service_.server().port();
  const int port = service_.server().start(config_.port);
  subscriber_.start();
  return port;
}

void RelayNode::stop() {
  if (!started_.load() || stopped_.exchange(true)) return;
  // Upstream first (no new publishes), then the service: downstream
  // connections close, then the hubs complete any still-parked waiter
  // into a dead sink.
  subscriber_.stop();
  service_.stop();
}

std::string RelayNode::relay_path_header() const {
  std::string out = config_.subscriber.relay_id;
  for (const std::string& hop : subscriber_.upstream_path()) {
    out += "," + hop;
  }
  return out;
}

bool RelayNode::request_path_conflicts(
    const web::HttpRequest& request) const {
  const auto it = request.headers.find("x-relay-path");
  if (it == request.headers.end()) return false;  // a plain browser
  std::vector<std::string> own;
  own.push_back(config_.subscriber.relay_id);
  for (std::string& hop : subscriber_.upstream_path()) {
    own.push_back(std::move(hop));
  }
  for (const std::string& part : util::split(it->second, ',')) {
    const std::string_view id = util::trim(part);
    if (id.empty()) continue;
    for (const std::string& mine : own) {
      if (id == mine) return true;
    }
  }
  return false;
}

void RelayNode::add_stats(util::Json& out) const {
  util::Json relay;
  relay["id"] = config_.subscriber.relay_id;
  relay["upstream_port"] =
      static_cast<double>(config_.subscriber.upstream_port);
  relay["depth"] =
      static_cast<double>(1 + subscriber_.upstream_path().size());
  relay["path"] = relay_path_header();
  relay["failed"] = subscriber_.any_failed();
  out["relay"] = relay;
  util::Json views;
  for (const auto& [view, s] : subscriber_.stats()) {
    util::Json v;
    v["frames"] = static_cast<double>(s.frames);
    v["full_frames"] = static_cast<double>(s.full_frames);
    v["delta_frames"] = static_cast<double>(s.delta_frames);
    v["resyncs"] = static_cast<double>(s.resyncs);
    v["reconnects"] = static_cast<double>(s.reconnects);
    v["epoch_changes"] = static_cast<double>(s.epoch_changes);
    v["restarts"] = static_cast<double>(s.restarts);
    v["last_upstream_seq"] = static_cast<double>(s.last_upstream_seq);
    v["last_local_seq"] = static_cast<double>(s.last_local_seq);
    v["sse"] = s.sse;
    v["failed"] = s.failed;
    if (!s.failure.empty()) v["failure"] = s.failure;
    views[view] = v;
  }
  out["subscriber"] = views;
}

web::HttpResponse RelayNode::forward_post(const web::HttpRequest& request,
                                          const std::string& path) {
  std::string target = path;
  if (!request.query.empty()) target += "?" + request.query;
  try {
    web::HttpClient::RetryPolicy policy;
    policy.max_attempts = 3;
    const web::HttpClient::Response upstream = forward_client_.post_with_retry(
        target, request.body, policy,
        request.headers.count("content-type")
            ? request.headers.at("content-type")
            : "application/json",
        5.0);
    web::HttpResponse response = web::HttpResponse::json(upstream.body);
    response.status = upstream.status;
    return response;
  } catch (const std::exception& e) {
    return web::HttpResponse::json(
        std::string("{\"error\":\"upstream unreachable: ") + e.what() +
            "\"}",
        503);
  }
}

}  // namespace ricsa::relay
