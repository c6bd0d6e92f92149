// Relay fan-out subsystem tests: the pre-encoded hub publish path,
// end-to-end frame forwarding through a relay node (seq rebasing, delta
// continuity, the never-decodes counters), contract parity between the
// origin and a relay, resync through an upstream restart, serving-side
// escalation latching, topology guards (cycle and depth-cap aborts), the
// long-poll transport fallback, connection and framing faults from a
// scripted upstream, and the hardened HttpClient retry schedule.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "hub_loop.hpp"
#include "net/socket.hpp"
#include "relay/relay.hpp"
#include "relay/subscriber.hpp"
#include "scripted_server.hpp"
#include "time_scale.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "viz/image.hpp"
#include "web/frontend.hpp"
#include "web/http.hpp"
#include "web/registry.hpp"

namespace w = ricsa::web;
namespace r = ricsa::relay;
using ricsa::util::Json;

namespace {

/// First top-level `"seq":` digit run in a compact poll body.
std::uint64_t body_seq(const std::string& body) {
  const std::size_t pos = body.find("\"seq\":");
  if (pos == std::string::npos) return 0;
  return std::strtoull(body.c_str() + pos + 6, nullptr, 10);
}

std::uint64_t body_base_seq(const std::string& body) {
  const std::size_t pos = body.find("\"base_seq\":");
  if (pos == std::string::npos) return 0;
  return std::strtoull(body.c_str() + pos + 11, nullptr, 10);
}

bool body_is_full(const std::string& body) {
  return body.find("\"delta\":false") != std::string::npos;
}

w::FrontEndConfig small_origin() {
  w::FrontEndConfig config;
  config.session.resolution = 16;
  config.session.cycles_per_frame = 1;
  config.session.viz.image_width = 32;
  config.session.viz.image_height = 32;
  config.frame_interval_s = 0.03;
  return config;
}

r::RelayNodeConfig small_relay(int upstream_port,
                               const std::string& id = "relay-under-test") {
  r::RelayNodeConfig config;
  config.subscriber.upstream_port = upstream_port;
  config.subscriber.views = {"main"};
  config.subscriber.relay_id = id;
  config.subscriber.backoff_initial_s = 0.02;
  config.subscriber.backoff_max_s = 0.25;
  config.poll_timeout_s = 5.0;
  return config;
}

void wait_for_relay_head(r::RelayNode& relay, std::uint64_t seq,
                         int budget_ms = 5000) {
  const auto hub = relay.registry().find("main");
  ASSERT_NE(hub, nullptr);
  for (int i = 0; i < budget_ms / 10 && hub->seq() < seq; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GE(hub->seq(), seq);
}

}  // namespace

// ----------------------------------------------- pre-encoded publishes ----

TEST(PublishEncoded, RoundTripsBodiesWithoutTouchingAnEncoder) {
  ricsa_test::HubLoop loop;
  w::FrameHub::Config config;
  config.window = 8;
  config.reactor = loop.get();
  w::FrameHub hub(config);

  w::FrameHub::PreEncoded full;
  full.full_body = "{\"delta\":false,\"seq\":1,\"x\":\"full-one\"}";
  EXPECT_EQ(hub.publish_encoded(std::move(full)), 1u);

  w::FrameHub::PreEncoded delta;
  delta.delta_body = "{\"base_seq\":1,\"delta\":true,\"seq\":2,\"x\":\"d\"}";
  EXPECT_EQ(hub.publish_encoded(std::move(delta)), 2u);

  const w::FramePtr first = hub.next_after(0);
  ASSERT_NE(first, nullptr);
  ASSERT_EQ(first->seq, 1u);
  EXPECT_EQ(first->body(w::Tier::kFull, false),
            "{\"delta\":false,\"seq\":1,\"x\":\"full-one\"}");
  // A full-only pre-encoded frame has no delta body.
  EXPECT_EQ(first->body(w::Tier::kFull, true), "");
  const w::FramePtr second = hub.next_after(1);
  ASSERT_NE(second, nullptr);
  ASSERT_EQ(second->seq, 2u);
  EXPECT_EQ(second->body(w::Tier::kFull, true),
            "{\"base_seq\":1,\"delta\":true,\"seq\":2,\"x\":\"d\"}");
  EXPECT_EQ(second->body(w::Tier::kFull, false), "");

  const w::FrameHub::Stats stats = hub.stats();
  EXPECT_EQ(stats.published, 2u);
  EXPECT_EQ(stats.preencoded_publishes, 2u);
  EXPECT_EQ(stats.image_encodes, 0u);
  hub.shutdown();
}

TEST(PublishEncoded, RegistryPathDeclaresViewsAndSkipsDecimation) {
  ricsa_test::HubLoop loop;
  w::HubRegistry::Config config;
  config.hub.window = 8;
  config.hub.reactor = loop.get();
  config.idle_reap_s = 0.0;
  w::HubRegistry registry(config);
  for (std::uint64_t i = 1; i <= 6; ++i) {
    w::FrameHub::PreEncoded pre;
    pre.full_body = "{\"delta\":false,\"seq\":" + std::to_string(i) + "}";
    EXPECT_EQ(registry.publish_encoded("relayed", std::move(pre)), i);
  }
  EXPECT_EQ(registry.find("relayed")->seq(), 6u);
  registry.shutdown();
}

// ------------------------------------------------- end-to-end forward ----

TEST(RelayNode, ForwardsFramesWithLocalSeqsAndNeverDecodes) {
  w::AjaxFrontEnd origin(small_origin());
  const int origin_port = origin.start();
  r::RelayNode relay(small_relay(origin_port));
  relay.start();
  wait_for_relay_head(relay, 3);

  // Downstream joins the relay exactly as it would the origin.
  const auto state = w::http_get(relay.port(), "/api/state");
  EXPECT_EQ(state.status, 200);
  std::uint64_t since = body_seq(state.body);
  EXPECT_GE(since, 3u);

  // Sequential polls ride rebased deltas: strictly +1 local seqs, each
  // delta anchored on the previous local frame.
  int full_bodies = 0;
  for (int i = 0; i < 5; ++i) {
    const auto poll = w::http_get(
        relay.port(),
        "/api/poll?since=" + std::to_string(since) + "&delta=1&timeout=5");
    ASSERT_EQ(poll.status, 200);
    const std::uint64_t seq = body_seq(poll.body);
    EXPECT_EQ(seq, since + 1);
    if (body_is_full(poll.body)) {
      ++full_bodies;
    } else if (poll.body.find("\"base_seq\":") != std::string::npos) {
      // Sequential deltas are anchored implicitly (base = seq - 1) and
      // omit base_seq; when present it must name the client's cursor.
      EXPECT_EQ(body_base_seq(poll.body), since);
    }
    since = seq;
  }
  // Steady state is all deltas (the join frame was the only full).
  EXPECT_EQ(full_bodies, 0);

  // The never-decodes proof: every relay publish was pre-encoded and the
  // relay never touched a PNG/base64 encoder.
  const auto hub = relay.registry().find("main");
  const w::FrameHub::Stats stats = hub->stats();
  EXPECT_EQ(stats.image_encodes, 0u);
  EXPECT_EQ(stats.preencoded_publishes, stats.published);
  EXPECT_GT(stats.published, 0u);

  // Relay identity in /api/stats, X-Relay-Path on responses.
  const auto st = w::http_get(relay.port(), "/api/stats");
  EXPECT_EQ(st.status, 200);
  EXPECT_NE(st.body.find("\"relay\""), std::string::npos);
  EXPECT_NE(st.body.find("relay-under-test"), std::string::npos);
  ASSERT_TRUE(st.headers.count("x-relay-path"));
  EXPECT_EQ(st.headers.at("x-relay-path"), "relay-under-test");

  // The subscriber negotiated the SSE stream (transport auto).
  const auto sub_stats = relay.subscriber().stats();
  ASSERT_EQ(sub_stats.size(), 1u);
  EXPECT_TRUE(sub_stats[0].second.sse);
  EXPECT_FALSE(sub_stats[0].second.failed);

  relay.stop();
  origin.stop();
}

TEST(RelayNode, LongPollTransportForwardsToo) {
  w::AjaxFrontEnd origin(small_origin());
  const int origin_port = origin.start();
  r::RelayNodeConfig config = small_relay(origin_port, "poll-relay");
  config.subscriber.transport = "poll";
  config.subscriber.poll_timeout_s = 1.0;
  r::RelayNode relay(config);
  relay.start();
  wait_for_relay_head(relay, 3);

  const auto state = w::http_get(relay.port(), "/api/state");
  const std::uint64_t since = body_seq(state.body);
  const auto poll = w::http_get(
      relay.port(),
      "/api/poll?since=" + std::to_string(since) + "&delta=1&timeout=5");
  ASSERT_EQ(poll.status, 200);
  EXPECT_EQ(body_seq(poll.body), since + 1);

  const auto sub_stats = relay.subscriber().stats();
  ASSERT_EQ(sub_stats.size(), 1u);
  EXPECT_FALSE(sub_stats[0].second.sse);
  EXPECT_GT(sub_stats[0].second.frames, 0u);

  relay.stop();
  origin.stop();
}

// ------------------------------------------------- contract parity ----

namespace {

/// HEAD /api/stream over a raw connection, read until the server closes
/// it. `closed` reports whether it did within the read timeout.
std::string head_stream_wire(int port, bool* closed) {
  *closed = false;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  timeval tv{3, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  const std::string request = "HEAD /api/stream HTTP/1.1\r\nHost: x\r\n\r\n";
  w::detail::write_all(fd, request.data(), request.size());
  std::string wire;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    wire.append(buf, static_cast<std::size_t>(n));
  }
  *closed = n == 0;
  ::close(fd);
  return wire;
}

}  // namespace

TEST(RelayNode, ServesTheOriginContract) {
  // One table of requests against an origin and a relay in front of it:
  // the same status and body kind from both, and X-Relay-Path on every
  // relay response (errors included).
  w::AjaxFrontEnd origin(small_origin());
  const int origin_port = origin.start();
  r::RelayNode relay(small_relay(origin_port, "parity-relay"));
  relay.start();
  wait_for_relay_head(relay, 3);

  struct Row {
    std::string target;
    int status;
    std::string kind;  // Content-Type prefix
    std::string body_has;
  };
  // Rows run in order on each node: the stats row after the client= poll
  // sees that client's pacing session.
  const std::vector<Row> rows = {
      {"/", 200, "text/html", "EventSource"},
      {"/api/poll?since=-1", 400, "text/plain", ""},
      {"/api/poll?since=0&timeout=nan", 400, "text/plain", ""},
      {"/api/stream?since=-1", 400, "text/plain", ""},
      {"/api/stream?since=0&timeout=nan", 400, "text/plain", ""},
      {"/api/poll?since=0&view=nope", 404, "text/plain", ""},
      {"/api/stream?since=0&view=nope", 404, "text/plain", ""},
      {"/api/state?view=nope", 404, "text/plain", ""},
      {"/api/stats?view=nope", 404, "text/plain", ""},
      {"/api/state", 200, "application/json", "\"state\""},
      {"/api/poll?since=0&delta=1&full=1&timeout=5", 200, "application/json",
       "\"delta\":false"},
      {"/api/poll?since=0&timeout=5&client=parity-client", 200,
       "application/json", "\"seq\""},
      {"/api/stats", 200, "application/json", "\"client\":\"parity-client\""},
  };
  for (const int port : {origin_port, relay.port()}) {
    const bool is_relay = port == relay.port();
    for (const Row& row : rows) {
      const std::string where =
          std::string(is_relay ? "relay " : "origin ") + row.target;
      const auto response = w::http_get(port, row.target);
      EXPECT_EQ(response.status, row.status) << where;
      const auto type = response.headers.find("content-type");
      ASSERT_NE(type, response.headers.end()) << where;
      EXPECT_EQ(type->second.rfind(row.kind, 0), 0u)
          << where << ": " << type->second;
      EXPECT_NE(response.body.find(row.body_has), std::string::npos) << where;
      EXPECT_EQ(response.headers.count("x-relay-path"), is_relay ? 1u : 0u)
          << where;
    }

    // Steering reaches the origin through either node.
    const auto steer = w::http_post(port, "/api/steer", "{\"gamma\":1.4}");
    EXPECT_EQ(steer.status, 200) << (is_relay ? "relay" : "origin");
    EXPECT_NE(steer.body.find("gamma"), std::string::npos);
    EXPECT_EQ(steer.headers.count("x-relay-path"), is_relay ? 1u : 0u);

    // HEAD on the stream answers its headers and closes: it never
    // converts the connection into an endless body.
    bool closed = false;
    const std::string wire = head_stream_wire(port, &closed);
    const std::string where = is_relay ? "relay HEAD" : "origin HEAD";
    EXPECT_TRUE(closed) << where;
    EXPECT_EQ(wire.rfind("HTTP/1.1 200", 0), 0u) << where << ": " << wire;
    EXPECT_NE(wire.find("Content-Type: text/event-stream"), std::string::npos)
        << where;
    ASSERT_GE(wire.size(), 4u) << where;
    EXPECT_EQ(wire.substr(wire.size() - 4), "\r\n\r\n") << where;
    EXPECT_EQ(wire.find("X-Relay-Path: parity-relay") != std::string::npos,
              is_relay)
        << where;
  }

  EXPECT_EQ(origin.steer_count(), 2u);

  relay.stop();
  origin.stop();
}

// ------------------------------------------------ restart resync path ----

TEST(RelayNode, UpstreamRestartPropagatesAsCleanResync) {
  auto origin = std::make_unique<w::AjaxFrontEnd>(small_origin());
  const int origin_port = origin->start();
  r::RelayNode relay(small_relay(origin_port, "restart-relay"));
  relay.start();
  wait_for_relay_head(relay, 3);

  std::uint64_t since = body_seq(w::http_get(relay.port(), "/api/state").body);
  ASSERT_GT(since, 0u);

  // Kill the origin mid-stream. The relay's upstream connection breaks and
  // its reconnect loop starts spinning against a dead port.
  origin->stop();
  origin.reset();

  // Restart the origin on the same port (listen_loopback sets
  // SO_REUSEADDR), with a fresh seq space starting at 1 — an epoch change
  // the relay must absorb.
  w::FrontEndConfig again = small_origin();
  again.port = origin_port;
  origin = std::make_unique<w::AjaxFrontEnd>(again);
  ASSERT_EQ(origin->start(), origin_port);

  // Downstream keeps polling its local cursor and must see: strictly
  // increasing local seqs, a full-frame resync (never a misanchored
  // delta), and then flowing frames — zero gaps, zero errors.
  bool saw_full_resync = false;
  int frames_after_restart = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (frames_after_restart < 5 &&
         std::chrono::steady_clock::now() < deadline) {
    const auto poll = w::http_get(
        relay.port(),
        "/api/poll?since=" + std::to_string(since) + "&delta=1&timeout=2");
    ASSERT_EQ(poll.status, 200);
    if (poll.body.find("\"timeout\":true") != std::string::npos) continue;
    const std::uint64_t seq = body_seq(poll.body);
    ASSERT_GT(seq, since);
    if (body_is_full(poll.body)) {
      saw_full_resync = true;
    } else if (poll.body.find("\"base_seq\":") != std::string::npos) {
      // A cursor-anchored delta must name the previous local frame;
      // sequential deltas omit base_seq (anchored implicitly at seq - 1).
      EXPECT_EQ(body_base_seq(poll.body), since);
    }
    if (saw_full_resync) ++frames_after_restart;
    since = seq;
  }
  EXPECT_TRUE(saw_full_resync);
  EXPECT_GE(frames_after_restart, 5);

  // The subscriber recorded the outage as reconnects and a resync-worthy
  // event, and still never decoded a frame.
  const auto hub = relay.registry().find("main");
  const w::FrameHub::Stats stats = hub->stats();
  EXPECT_EQ(stats.image_encodes, 0u);
  EXPECT_EQ(stats.preencoded_publishes, stats.published);
  const auto sub_stats = relay.subscriber().stats();
  EXPECT_GT(sub_stats[0].second.reconnects, 0u);
  EXPECT_FALSE(sub_stats[0].second.failed);

  relay.stop();
  origin->stop();
}

// ---------------------------------------------- escalation is latched ----

TEST(RelayNode, FullFrameEscalationServesSnapshotsAndLatches) {
  w::AjaxFrontEnd origin(small_origin());
  const int origin_port = origin.start();
  r::RelayNode relay(small_relay(origin_port, "escalate-relay"));
  relay.start();
  wait_for_relay_head(relay, 4);

  const std::uint64_t head =
      body_seq(w::http_get(relay.port(), "/api/state").body);
  ASSERT_GT(head, 1u);
  const std::uint64_t resyncs_before =
      relay.subscriber().stats()[0].second.resyncs;

  // Several clients demand a full snapshot at once. The relay head is a
  // delta-only frame (steady state), so the relay must escalate upstream —
  // once, thanks to the latch — and every client must still get a full
  // body before its deadline.
  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  std::atomic<int> full_served{0};
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      const auto poll = w::http_get(
          relay.port(), "/api/poll?since=" + std::to_string(head - 1) +
                            "&full=1&timeout=5");
      if (poll.status == 200 && body_is_full(poll.body) &&
          body_seq(poll.body) >= head) {
        ++full_served;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(full_served.load(), kClients);

  // The latch kept the upstream escalation count below the client count:
  // the four concurrent demands collapse into one resync (a straggler
  // arriving after the first resync completed may add another).
  const std::uint64_t escalations =
      relay.subscriber().stats()[0].second.resyncs - resyncs_before;
  EXPECT_GE(escalations, 1u);
  EXPECT_LE(escalations, 3u);

  relay.stop();
  origin.stop();
}

// ------------------------------------------------- topology guards ----

TEST(RelayNode, SelfSubscriptionIsRejectedAsACycle) {
  // A relay pointed at itself: its own X-Relay-Path id comes straight
  // back, the server side answers 409 at the join, and the subscriber
  // aborts permanently instead of building a forwarding loop. The
  // self-loop needs the port known up front (subscriber config is
  // captured at construction), so reserve an ephemeral port by binding
  // and closing a listener, then bind the relay to it explicitly.
  const int port = [] {
    auto probe = ricsa::net::Socket::listen_loopback(0);
    return probe.local_port();
  }();
  r::RelayNodeConfig self = small_relay(port, "ouroboros");
  self.port = port;
  r::RelayNode node(self);
  ASSERT_EQ(node.start(), port);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!node.subscriber().any_failed() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(node.subscriber().any_failed());
  const auto stats = node.subscriber().stats();
  EXPECT_TRUE(stats[0].second.failed);
  EXPECT_FALSE(stats[0].second.failure.empty());
  node.stop();
}

TEST(RelayNode, DepthCapAbortsTheSubscription) {
  w::AjaxFrontEnd origin(small_origin());
  const int origin_port = origin.start();
  r::RelayNode tier1(small_relay(origin_port, "tier-1"));
  tier1.start();
  wait_for_relay_head(tier1, 2);

  // tier-2 would be the second relay hop; with max_depth 1 its own
  // presence already exceeds the cap once it sees tier-1 in the response
  // chain.
  r::RelayNodeConfig config = small_relay(tier1.port(), "tier-2");
  config.subscriber.max_depth = 1;
  r::RelayNode tier2(config);
  tier2.start();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!tier2.subscriber().any_failed() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(tier2.subscriber().any_failed());
  const auto stats = tier2.subscriber().stats();
  EXPECT_NE(stats[0].second.failure.find("depth"), std::string::npos);

  // A deep-enough cap chains fine: tier-3 at the default depth cap serves
  // frames three hops from the origin.
  r::RelayNodeConfig ok = small_relay(tier1.port(), "tier-2-ok");
  r::RelayNode tier2ok(ok);
  tier2ok.start();
  {
    const auto hub = tier2ok.registry().find("main");
    ASSERT_NE(hub, nullptr);
    for (int i = 0; i < 500 && hub->seq() < 2; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_GE(hub->seq(), 2u);
  }
  // The learned chain names the upstream relay, depth included in stats.
  const auto chain = tier2ok.subscriber().upstream_path();
  ASSERT_EQ(chain.size(), 1u);
  EXPECT_EQ(chain[0], "tier-1");

  tier2ok.stop();
  tier2.stop();
  tier1.stop();
  origin.stop();
}

// ------------------------------------- faults from a scripted upstream ----

namespace {

using Reply = ricsa_test::ScriptedServer::Reply;
using After = ricsa_test::ScriptedServer::After;

const std::string kStreamHead =
    "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n"
    "Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n";

/// One full frame as an SSE event: what /api/stream sends after full=1.
std::string frame_event(std::uint64_t seq) {
  const std::string id = std::to_string(seq);
  return "id: " + id + "\ndata: {\"delta\":false,\"seq\":" + id +
         ",\"state\":{}}\n\n";
}

std::string chunk_size(std::size_t bytes) {
  return ricsa::util::strprintf("%zx", bytes);
}

Reply state_reply(std::uint64_t seq) {
  const std::string body = "{\"seq\":" + std::to_string(seq) + "}";
  return {"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
          "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n" +
          body};
}

/// A well-framed stream that forwards one frame, then stays open.
Reply stream_reply(std::uint64_t seq) {
  std::string bytes = kStreamHead;
  w::detail::append_chunk(bytes, frame_event(seq));
  return {bytes};
}

r::SubscriberViewStats relay_stats(r::RelayNode& relay) {
  return relay.subscriber().stats().at(0).second;
}

template <typename Pred>
bool wait_until(Pred pred, int native_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + ricsa_test::scaled_ms(native_ms);
  while (!pred() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

/// A relay joined to a scripted upstream that answers `route` with
/// `broken` until the relay has reconnected, and well-framed answers from
/// then on: the broken answer forwards nothing and costs a reconnect
/// within 1 s, and the next good frame is forwarded.
void expect_refused_then_recovered(const std::string& route, Reply broken) {
  std::atomic<bool> good{false};
  ricsa_test::ScriptedServer upstream([&](const w::HttpRequest& request) {
    if (!good.load() && request.path == route) return broken;
    return request.path == "/api/state" ? state_reply(5) : stream_reply(6);
  });
  r::RelayNode relay(small_relay(upstream.port()));
  relay.start();
  EXPECT_TRUE(wait_until([&] { return relay_stats(relay).reconnects > 0; },
                         1000));
  EXPECT_EQ(relay_stats(relay).frames, 0u);
  good.store(true);
  EXPECT_TRUE(
      wait_until([&] { return relay_stats(relay).frames > 0; }, 3000));
  EXPECT_EQ(relay.registry().find("main")->seq(), relay_stats(relay).frames);
  relay.stop();
}

}  // namespace

TEST(RelayNode, LastUpstreamSeqNamesTheFrameJustForwarded) {
  // Join at seq 5, then one full event with seq 6: the subscriber block
  // of /api/stats must name upstream frame 6, not the cursor before it.
  ricsa_test::ScriptedServer upstream([](const w::HttpRequest& request) {
    return request.path == "/api/state" ? state_reply(5) : stream_reply(6);
  });
  r::RelayNode relay(small_relay(upstream.port()));
  relay.start();
  ASSERT_TRUE(wait_until([&] { return relay_stats(relay).frames > 0; }, 3000));
  const r::SubscriberViewStats stats = relay_stats(relay);
  EXPECT_EQ(stats.frames, 1u);
  EXPECT_EQ(stats.last_upstream_seq, 6u);
  EXPECT_EQ(stats.last_local_seq, relay.registry().find("main")->seq());
  relay.stop();
}

TEST(RelayNode, NegativeChunkSizeIsRefusedAndReconnects) {
  expect_refused_then_recovered(
      "/api/stream", {kStreamHead + "-1\r\n" + frame_event(6) + "\r\n"});
}

TEST(RelayNode, ChunkDataWithoutCrlfIsRefusedAndReconnects) {
  const std::string event = frame_event(6);
  expect_refused_then_recovered(
      "/api/stream",
      {kStreamHead + chunk_size(event.size()) + "\r\n" + event + "XY"});
}

TEST(RelayNode, JunkAfterChunkSizeIsRefusedAndReconnects) {
  const std::string event = frame_event(6);
  expect_refused_then_recovered(
      "/api/stream",
      {kStreamHead + chunk_size(event.size()) + "zz\r\n" + event + "\r\n"});
}

TEST(RelayNode, NegativeContentLengthOnJoinIsRefusedAndReconnects) {
  expect_refused_then_recovered(
      "/api/state",
      {"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n{\"seq\":5}"});
}

TEST(RelayNode, ConflictingContentLengthsOnJoinAreRefused) {
  expect_refused_then_recovered(
      "/api/state", {"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n"
                     "Content-Length: 90\r\n\r\n{\"seq\":5}"});
}

TEST(RelayNode, UnterminatedHeaderBlockOverOneMebibyteIsRefused) {
  expect_refused_then_recovered(
      "/api/state",
      {"HTTP/1.1 200 OK\r\nX-Pad: " + std::string((1u << 20) + 4096, 'p')});
}

TEST(RelayNode, StreamsBrokenAfterGoodJoinsBackOff) {
  // Every join succeeds and every stream then sends chunk size -1. The
  // good join must not reset the failure count: the relay backs off as
  // from any other failure, doubling from 0.02 s to at most 2 s, which
  // fits about seven reconnects into 2 s. Reset on every join, it would
  // re-join every 0.02 s, about 90 times. Then the upstream turns good and
  // the next frame is forwarded.
  std::atomic<bool> good{false};
  ricsa_test::ScriptedServer upstream([&](const w::HttpRequest& request) {
    if (request.path == "/api/state") return state_reply(5);
    if (good.load()) return stream_reply(6);
    return Reply{kStreamHead + "-1\r\n" + frame_event(6) + "\r\n"};
  });
  r::RelayNodeConfig config = small_relay(upstream.port());
  config.subscriber.backoff_max_s = 2.0;
  r::RelayNode relay(config);
  relay.start();
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (std::chrono::steady_clock::now() < until) {
    ASSERT_LE(relay_stats(relay).reconnects, 12u);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(relay_stats(relay).reconnects, 2u);
  EXPECT_EQ(relay_stats(relay).frames, 0u);
  good.store(true);
  EXPECT_TRUE(
      wait_until([&] { return relay_stats(relay).frames > 0; }, 5000));
  EXPECT_EQ(relay.registry().find("main")->seq(), relay_stats(relay).frames);
  relay.stop();
}

TEST(RelayNode, ResetHalfwayThroughAnEventReconnects) {
  const std::string event = frame_event(6);
  expect_refused_then_recovered(
      "/api/stream", {kStreamHead + chunk_size(event.size()) + "\r\n" +
                          event.substr(0, event.size() / 2),
                      After::kReset});
}

// ----------------------------------------------- HttpClient hardening ----

TEST(HttpClientRetry, RetriesBareFiveOhThreesWithCappedBackoff) {
  w::HttpServer server;
  std::atomic<int> hits{0};
  server.route("GET", "/flaky", [&](const w::HttpRequest&) {
    // Two bare 503s (no Retry-After), then success: the retry schedule
    // must carry the caller across without help from the server.
    if (++hits <= 2) return w::HttpResponse::text("busy", 503);
    return w::HttpResponse::text("ok");
  });
  const int port = server.start();

  w::HttpClient client(port);
  w::HttpClient::RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_s = 0.01;
  policy.max_backoff_s = 0.05;
  const auto response = client.get_with_retry("/flaky", policy);
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "ok");
  EXPECT_EQ(hits.load(), 3);

  // Attempts exhausted: the final 503 comes back instead of an exception.
  hits = -100;
  const auto still_busy = client.get_with_retry("/flaky", policy);
  EXPECT_EQ(still_busy.status, 503);
  server.stop();
}

TEST(HttpClientRetry, HttpDateRetryAfterFallsBackToSchedule) {
  w::HttpServer server;
  std::atomic<int> hits{0};
  server.route("GET", "/flaky", [&](const w::HttpRequest&) {
    // RFC 7231 allows Retry-After to be an HTTP-date (or any junk, from a
    // misbehaving server). Neither is a delay in seconds: a client that
    // runs them through strtod reads 0 off the day name (a hot retry
    // loop) and "nan" even survives std::min against the backoff cap. A
    // non-numeric header must fall back to the capped exponential
    // schedule as if it were absent.
    const int hit = ++hits;
    if (hit <= 2) {
      auto resp = w::HttpResponse::text("busy", 503);
      resp.headers["Retry-After"] =
          hit == 1 ? "Fri, 08 Aug 2026 12:00:00 GMT" : "nan";
      return resp;
    }
    return w::HttpResponse::text("ok");
  });
  const int port = server.start();

  w::HttpClient client(port);
  w::HttpClient::RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_s = 0.05;
  policy.max_backoff_s = 0.1;
  const auto t0 = std::chrono::steady_clock::now();
  const auto response = client.get_with_retry("/flaky", policy);
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(hits.load(), 3);
  // Both failed attempts waited out the schedule (0.05 s + 0.1 s): not the
  // zero-delay hot loop of a mis-parsed date, and nowhere near the stall a
  // nan backoff would produce.
  EXPECT_GE(elapsed_s, 0.15);
  EXPECT_LT(elapsed_s, 5.0);
  server.stop();
}

TEST(HttpClientRetry, SurfacesConnectErrorsDistinctly) {
  // A port with nothing behind it: grab an ephemeral port and close it.
  const int dead_port = [] {
    auto probe = ricsa::net::Socket::listen_loopback(0);
    return probe.local_port();
  }();
  w::HttpClient client(dead_port);
  w::HttpClient::RetryPolicy policy;
  policy.max_attempts = 2;
  policy.initial_backoff_s = 0.01;
  policy.max_backoff_s = 0.02;
  try {
    client.get_with_retry("/", policy, 1.0);
    FAIL() << "expected HttpError";
  } catch (const w::HttpError& e) {
    EXPECT_EQ(e.kind(), w::HttpError::Kind::kConnect);
  }
}
