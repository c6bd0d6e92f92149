// Relay node: a full re-publish tier in an HTTP fan-out tree.
//
// The node couples a RelaySubscriber (upstream-facing: consumes frames
// from an origin or another relay) with a web::FrameService
// (downstream-facing: the origin's own serving contract — dashboard,
// /api/poll, /api/stream, /api/state, /api/stats — over a local
// HubRegistry), so browsers and further relays subscribe to a relay
// exactly as they would to the origin. Each tier multiplies capacity: an
// origin serving R relays instead of N browsers carries R keep-alive
// connections and R body copies per frame, while each relay fans the same
// pre-encoded bodies out to its own N/R clients.
//
// The relay's serving policy: bodies go out at the full tier they were
// received in; a downstream client that needs a full snapshot the local
// window cannot provide (fresh join against a delta-only head, or an
// explicit full=1) triggers subscriber.request_resync() — latched
// upstream — while its poll re-parks (its stream skips) until the full
// frame lands; every response carries X-Relay-Path, and requests whose
// chain would close a loop get 409. Control traffic (POST /api/steer,
// /api/view) is forwarded upstream verbatim, one request at a time on the
// node's forwarding thread, so the blocking upstream call never holds a
// reactor: steering always reaches the origin simulation.
#pragma once

#include <atomic>
#include <string>

#include "relay/subscriber.hpp"
#include "util/thread_pool.hpp"
#include "web/frame_service.hpp"
#include "web/http.hpp"
#include "web/registry.hpp"
#include "web/session.hpp"

namespace ricsa::relay {

struct RelayNodeConfig {
  /// Upstream half (port, views, identity, transport, depth cap).
  SubscriberConfig subscriber;
  /// Local HTTP port (0 = ephemeral).
  int port = 0;
  /// Ceiling on downstream long-poll/stream waits.
  double poll_timeout_s = 15.0;
  /// Local frame window (catch-up replay depth for downstream clients).
  std::size_t frame_window = 256;
  std::size_t reactors = 1;
  std::size_t max_connections = 8192;
  /// Per-client adaptive pacing for *downstream* clients, identical to the
  /// origin's: a `client=` id on /api/poll or /api/stream gets a session
  /// whose congestion controller (pacing.controller) paces and skips
  /// frames for that client. The relay serves pre-encoded kFull bodies
  /// only — tier downgrades cannot re-encode here — so the controller
  /// governs the interval/skip axis. frame_interval_s is the cadence
  /// downstream promptness is judged against (the upstream publish rate).
  web::PacingConfig pacing;
};

class RelayNode {
 public:
  explicit RelayNode(RelayNodeConfig config);
  ~RelayNode();
  RelayNode(const RelayNode&) = delete;
  RelayNode& operator=(const RelayNode&) = delete;

  /// Start the HTTP server, then the upstream subscriber. Returns the
  /// bound port.
  int start();
  void stop();
  int port() const noexcept { return service_.server().port(); }

  web::HttpServer& server() noexcept { return service_.server(); }
  web::HubRegistry& registry() noexcept { return service_.registry(); }
  RelaySubscriber& subscriber() noexcept { return subscriber_; }

 private:
  web::ServingPolicy serving_policy();
  web::HttpResponse forward_post(const web::HttpRequest& request,
                                 const std::string& path);
  /// The service's stats blocks for this node: identity and chain, plus
  /// the subscriber's per-view forwarding counters.
  void add_stats(util::Json& out) const;

  /// This node's X-Relay-Path response value: "<own id>,<upstream chain>".
  std::string relay_path_header() const;
  /// True when the request's X-Relay-Path shares an id with this node's
  /// chain — serving it would close a forwarding loop.
  bool request_path_conflicts(const web::HttpRequest& request) const;

  RelayNodeConfig config_;
  web::FrameService service_;
  RelaySubscriber subscriber_;

  /// Upstream control-channel client (steer/view forwarding): one
  /// blocking keep-alive connection, used by the forwarder's thread only.
  web::HttpClient forward_client_;

  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};

  /// The one thread that runs forward_post(). Declared last, so it is
  /// joined before anything its tasks use is destroyed.
  util::ThreadPool forwarder_{1};
};

}  // namespace ricsa::relay
