// Relay subscriber: the upstream-facing half of a relay node.
//
// One reactor thread owns a keep-alive HTTP connection per subscribed view
// against the upstream origin (or another relay), prefers the /api/stream
// SSE push channel with automatic long-poll fallback, and re-publishes
// every received frame body into the local HubRegistry through the
// pre-encoded path — the forwarding-without-decoding idiom: the relay
// never parses pixels, never PNG/base64-encodes, never rebuilds tiles. It
// only splices the body's top-level `seq`/`base_seq` digits into its own
// local seq space, so downstream subscribers ride a strictly increasing
// local window regardless of upstream restarts.
//
// Resync semantics: the subscriber tracks the upstream cursor per view. A
// received seq at or below the cursor (origin restart: seq counting
// re-began), a delta whose base_seq is not the cursor, or an explicit
// request_resync() from the serving side (a downstream client needs a full
// body this relay never received) all converge on the same procedure —
// re-join via /api/state, then ask for one `full=1` frame, and resume
// deltas from it. The resync is latched per view: however many downstream
// clients demand a full frame simultaneously, the upstream sees one
// escalation (no resync storms).
//
// Framing: a response the shared web::ResponseDecoder refuses (bad status
// line, length or chunk size, chunk data without CRLF, an oversized head)
// forwards nothing; like a dropped connection, it costs a reconnect with
// backoff and a re-join from a full frame.
//
// Topology guards: every request carries `X-Relay-Path: <relay id>`;
// every response from a relay carries the server's own chain. Seeing our
// own id in an upstream chain (a cycle) or a chain already at the depth
// cap fails the view instead of building a forwarding loop.
//
// Failed views are supervised, not abandoned: a failure (cycle, depth cap,
// 409 rejection) marks the view failed and schedules a respawn under its
// own capped-exponential backoff — topology errors can be transient (an
// upstream relay restarting under a different chain). The view stays
// *reported* failed (stats/any_failed) through failing respawn attempts
// and clears only once a re-join actually succeeds, so monitoring sees a
// persistent outage as persistent.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/reactor.hpp"
#include "web/registry.hpp"

namespace ricsa::relay {

struct SubscriberConfig {
  /// Upstream HTTP port (origin or another relay) on loopback.
  int upstream_port = 0;
  /// Upstream view names to subscribe; re-published under the same names.
  /// A repeated name is subscribed once.
  std::vector<std::string> views;
  /// This relay's identity in X-Relay-Path hop headers. Must be unique
  /// within a relay tree; commas are reserved (the chain separator).
  std::string relay_id = "relay";
  /// "auto" (SSE, falling back to long-poll when the upstream refuses the
  /// stream route), "sse", or "poll".
  std::string transport = "auto";
  /// Maximum relay chain length including this node. A response whose
  /// chain is already max_depth - 1 hops deep fails the subscription.
  std::size_t max_depth = 4;
  /// Long-poll wait handed to the upstream (also the SSE keepalive bound).
  double poll_timeout_s = 15.0;
  /// Reconnect backoff schedule: initial * 2^failures, capped.
  double backoff_initial_s = 0.05;
  double backoff_max_s = 2.0;
  /// Supervisor respawn schedule for *failed* subscriptions (cycle /
  /// depth cap / 409 rejection): initial * 2^(restarts-1), capped. Much
  /// longer than the reconnect backoff — a structural failure usually
  /// needs the upstream topology to change before a retry can succeed.
  double respawn_initial_s = 0.5;
  double respawn_max_s = 10.0;
};

/// Per-view forwarding counters (loop-thread owned, snapshotted for stats).
struct SubscriberViewStats {
  std::uint64_t frames = 0;        // frames re-published locally
  std::uint64_t full_frames = 0;   // of which complete snapshots
  std::uint64_t delta_frames = 0;  // of which delta bodies
  std::uint64_t resyncs = 0;       // full=1 escalations issued upstream
  std::uint64_t reconnects = 0;    // TCP reconnects (backoff cycles)
  std::uint64_t epoch_changes = 0; // upstream seq regressions observed
  std::uint64_t last_upstream_seq = 0;
  std::uint64_t last_local_seq = 0;
  std::uint64_t restarts = 0;  // supervisor respawns of a failed view
  bool sse = false;     // currently riding /api/stream
  bool failed = false;  // failing now (cycle / depth / 409); clears on rejoin
  std::string failure;
};

class RelaySubscriber {
 public:
  RelaySubscriber(SubscriberConfig config, web::HubRegistry& registry);
  ~RelaySubscriber();
  RelaySubscriber(const RelaySubscriber&) = delete;
  RelaySubscriber& operator=(const RelaySubscriber&) = delete;

  /// Declare the subscribed views in the local registry and start the
  /// reactor thread; each view begins its join/subscribe cycle immediately.
  void start();
  /// Stop the reactor thread and close every upstream connection.
  /// Idempotent; safe to call from any thread.
  void stop();

  /// Escalate one full-frame resync for `view` upstream — the serving
  /// side calls this when a downstream client needs a full body the local
  /// window cannot provide. Latched per view: while a resync is already
  /// pending, further requests are no-ops. Safe from any thread; a no-op
  /// after stop().
  void request_resync(const std::string& view);

  const SubscriberConfig& config() const noexcept { return config_; }
  /// Per-view counters, in config order.
  std::vector<std::pair<std::string, SubscriberViewStats>> stats() const;
  /// Upstream relay chain learned from response X-Relay-Path headers
  /// (nearest hop first); empty when subscribed directly to an origin.
  std::vector<std::string> upstream_path() const;
  /// True while any view is in the failed state (cycle / depth /
  /// rejection). Stays true across failing supervisor respawns; clears
  /// when the view successfully re-joins its upstream.
  bool any_failed() const;

 private:
  struct Conn;  // upstream connection state machine (subscriber.cpp)

  // All of the following run on the reactor loop thread.
  void conn_event(Conn* conn, std::uint32_t events);
  void schedule_connect(Conn* conn, double delay_s);
  void start_connect(Conn* conn);
  void teardown(Conn* conn);
  /// Transient failure: count it, reconnect and re-join from a full frame.
  void retry(Conn* conn, bool backoff = true);
  void fail_subscription(Conn* conn, const std::string& why);
  void schedule_respawn(Conn* conn);
  void begin_resync(Conn* conn, bool teardown_connection);
  void send_next_request(Conn* conn);
  void flush(Conn* conn);
  void on_readable(Conn* conn);
  /// Relay policy on a response head: topology guards, the 409
  /// rejection, non-200 backoff or transport downgrade, chunked streams.
  void handle_headers(Conn* conn);
  void handle_response(Conn* conn, std::string body);
  void consume_stream(Conn* conn, std::string payload);
  /// One received poll body / SSE event. Returns false when the
  /// connection must be torn down (resync through reconnect).
  bool handle_body(Conn* conn, std::string body);
  void publish_body(Conn* conn, std::string body, bool is_full,
                    bool has_base);
  void note_relay_path(Conn* conn, const std::string& header);
  void arm_watchdog(Conn* conn);

  SubscriberConfig config_;
  web::HubRegistry& registry_;
  net::Reactor reactor_;
  std::thread thread_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  std::vector<std::unique_ptr<Conn>> conns_;

  /// Guards the cross-thread views of loop-thread state: per-view stats
  /// snapshots and the learned upstream chain.
  mutable std::mutex stats_mutex_;
  std::vector<std::string> upstream_path_;
};

}  // namespace ricsa::relay
