// The browser-facing serving contract, implemented once for every node
// that serves frames: the origin front end (web/frontend.hpp) and relay
// nodes (relay/relay.hpp).
//
// A FrameService owns the HttpServer + HubRegistry pair and serves
//   GET /            the embedded dashboard
//   GET /api/poll    long-poll for the next frame after `since`
//   GET /api/stream  the same frames pushed as Server-Sent Events
//   GET /api/state   the newest frame's state
//   GET /api/stats   hub, pacing and connection counters
// with one parameter parser, one per-delivery sequence (pacing decision,
// hub wait, body selection, dispatch/drain accounting) and one SSE pump.
// The owning node adds its other routes (the origin's /api/image and
// steering POSTs through route(), the relay's forwarded POSTs through
// route_async()), so they get the same policy refusal and headers.
//
// Where the nodes really differ, the node fills in a ServingPolicy in
// code. The origin serves tiered bodies rendered from pixels; a relay
// serves the pre-encoded bodies it received at Tier::kFull, escalates an
// upstream resync for frames it cannot serve, and stamps X-Relay-Path on
// every response.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "util/json.hpp"
#include "web/http.hpp"
#include "web/hub.hpp"
#include "web/registry.hpp"
#include "web/session.hpp"

namespace ricsa::web {

/// What one node does differently from another behind the same contract.
/// Every hook is optional; the defaults are the origin's behaviour.
struct ServingPolicy {
  /// Serve every body at Tier::kFull and ignore the session's tier
  /// contract: a relay holds only the bodies it received.
  bool full_tier_only = false;
  /// A frame lacks the body a client needs (a relayed delta-only frame for
  /// a client that needs a complete one). The node asks for a full frame;
  /// the poll then re-parks past the frame and the stream skips it.
  std::function<void(const std::string& view)> request_full;
  /// Adds headers to every response of the service, errors included.
  std::function<void(std::map<std::string, std::string>& headers)> decorate;
  /// Answers a request instead of serving it, or nullopt to serve it.
  std::function<std::optional<HttpResponse>(const HttpRequest&)> refuse;
  /// Adds the node's own blocks to /api/stats.
  std::function<void(util::Json& stats)> add_stats;
};

class FrameService {
 public:
  /// Server setup both nodes share.
  struct Setup {
    /// Ceiling on long-poll waits and stream keepalive intervals.
    double poll_timeout_s = 15.0;
    std::size_t reactors = 1;
    std::size_t max_connections = 8192;
  };

  /// `registry` gets the server's reactor and the poll ceiling filled in.
  /// `cadence_s` seeds the publish period pacing judges clients against.
  FrameService(HubRegistry::Config registry, Setup setup,
               ServingPolicy policy, double cadence_s);
  FrameService(const FrameService&) = delete;
  FrameService& operator=(const FrameService&) = delete;

  HttpServer& server() noexcept { return server_; }
  const HttpServer& server() const noexcept { return server_; }
  HubRegistry& registry() noexcept { return registry_; }
  const HubRegistry& registry() const noexcept { return registry_; }

  /// Register one of the node's own routes; its responses pass through
  /// the policy's refusal and headers like the service's. The handler runs
  /// on a reactor and must not block.
  void route(const std::string& method, const std::string& path,
             HttpServer::Handler handler);

  /// Completes one request of a route_async() route, from any thread.
  using Reply = std::function<void(HttpResponse)>;
  /// As route(), for a handler that waits: it returns at once, and the
  /// request is answered when something else calls `reply`.
  void route_async(
      const std::string& method, const std::string& path,
      std::function<void(const HttpRequest&, Reply reply)> handler);

  /// The publish period pacing decisions and delivery accounting use.
  void set_cadence(double seconds) { cadence_s_.store(seconds); }

  /// Shard for a request's `view=` parameter (the default view when
  /// absent). Null for names the publisher never declared, which the
  /// routes answer with 404.
  /// `resolved` receives the view name.
  std::shared_ptr<FrameHub> resolve_view(const HttpRequest& request,
                                         std::string* resolved);

  /// Close every connection, then shut the hubs down (parked waiters
  /// complete into dead sinks).
  void stop();

 private:
  struct Subscription;
  struct Step;
  struct Stream;

  /// Parse the shared query contract into `sub`; an error response when
  /// the request cannot be served.
  std::optional<HttpResponse> open(const HttpRequest& request,
                                   Subscription& sub);
  Step decide(const Subscription& sub) const;
  std::shared_ptr<const std::string> select_body(const Subscription& sub,
                                                 const Step& step,
                                                 const FramePtr& frame) const;
  /// Stamp the dispatch of `bytes` to a paced client; returns the drain
  /// callback that accounts the delivery (null when unpaced).
  std::function<void()> dispatch(const Subscription& sub, const Step& step,
                                 std::size_t bytes,
                                 std::uint64_t frame_seq) const;
  std::optional<HttpResponse> refused(const HttpRequest& request) const;
  HttpResponse decorated(HttpResponse response) const;

  void handle_poll(const HttpRequest& request, HttpServer::ResponseSink sink);
  void park_poll(Subscription sub, const Step& step,
                 HttpServer::ResponseSink sink);
  void handle_stream(const HttpRequest& request, HttpServer::StreamSink sink);
  void pump(const std::shared_ptr<Stream>& s);
  HttpResponse handle_state(const HttpRequest& request);
  HttpResponse handle_stats(const HttpRequest& request);

  const Setup setup_;
  const ServingPolicy policy_;
  std::atomic<double> cadence_s_;
  /// Declared before registry_: the shards register their timeout and
  /// pacing sweeps on the server's reactor, so the server is constructed
  /// first and destroyed last.
  HttpServer server_;
  HubRegistry registry_;
};

}  // namespace ricsa::web
