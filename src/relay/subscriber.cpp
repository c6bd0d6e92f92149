#include "relay/subscriber.hpp"

#include <sys/epoll.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <string_view>

#include "net/socket.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"
#include "web/http.hpp"
#include "web/hub.hpp"

namespace ricsa::relay {
namespace {

using Clock = std::chrono::steady_clock;
using Event = web::ResponseDecoder::Event;

/// Scan the first occurrence of `"token":` in a compact JSON body and parse
/// the unsigned integer that follows. The first occurrence of `"seq":` is
/// always the top-level frame seq: `"base_seq"` does not match (the quote
/// anchors the key start), base64 payloads contain no quotes, and the
/// nested `state` object carries no seq-like keys.
bool scan_u64(const std::string& body, std::string_view key,
              std::uint64_t& out) {
  const std::size_t pos = body.find(key);
  if (pos == std::string::npos) return false;
  const char* start = body.c_str() + pos + key.size();
  if (!std::isdigit(static_cast<unsigned char>(*start))) return false;
  out = std::strtoull(start, nullptr, 10);
  return true;
}

/// Replace the digit run after the first `"token":` with `value` in place.
/// util::Json prints integral numbers as plain digit runs, so this rebases
/// the top-level seq without parsing (or even copying) the body.
bool splice_u64(std::string& body, std::string_view key, std::uint64_t value) {
  const std::size_t pos = body.find(key);
  if (pos == std::string::npos) return false;
  const std::size_t start = pos + key.size();
  std::size_t end = start;
  while (end < body.size() &&
         std::isdigit(static_cast<unsigned char>(body[end]))) {
    ++end;
  }
  if (end == start) return false;
  body.replace(start, end - start, std::to_string(value));
  return true;
}

double backoff_delay_s(const SubscriberConfig& config, int failures) {
  double delay = config.backoff_initial_s;
  for (int i = 1; i < failures && delay < config.backoff_max_s; ++i) {
    delay *= 2.0;
  }
  return std::min(delay, config.backoff_max_s);
}

double respawn_delay_s(const SubscriberConfig& config, int respawns) {
  double delay = config.respawn_initial_s;
  for (int i = 1; i < respawns && delay < config.respawn_max_s; ++i) {
    delay *= 2.0;
  }
  return std::min(delay, config.respawn_max_s);
}

}  // namespace

/// Upstream connection state machine; every field is owned by the
/// subscriber's reactor loop thread except `stats`, whose writes and
/// cross-thread snapshots are guarded by RelaySubscriber::stats_mutex_.
struct RelaySubscriber::Conn : net::EventHandler {
  explicit Conn(RelaySubscriber* owner_in) : owner(owner_in) {}
  void on_event(std::uint32_t events) override { owner->conn_event(this, events); }

  RelaySubscriber* owner;
  std::string view;

  net::Socket sock;
  bool registered = false;   // fd is in the reactor's interest set
  bool connecting = false;   // awaiting EPOLLOUT + connect_error()
  bool connected_once = false;

  std::string out;  // unsent request bytes
  web::ResponseDecoder decoder;  // the socket's read buffer and framing
  web::SseSplitter sse;          // events of a /api/stream body
  std::string body;              // the poll/state response read so far

  enum class Pending { kNone, kState, kPoll, kStream };
  Pending pending = Pending::kNone;
  bool streaming = false;  // 200 on /api/stream: body is an endless SSE feed

  // Forwarding protocol state.
  bool use_sse = true;         // transport preference (auto-negotiated)
  bool joined = false;         // /api/state answered; since_up is valid
  bool resync_pending = true;  // next frame must be a full snapshot
  bool failed = false;         // failing now (loop-thread mirror)
  std::uint64_t since_up = 0;     // upstream cursor (last seq consumed)
  std::uint64_t last_local = 0;   // local hub seq of our last publish

  int failures = 0;  // consecutive connect/IO failures (backoff exponent)
  int respawns = 0;  // consecutive supervisor respawns (backoff exponent)
  std::uint64_t retry_timer = 0;
  std::uint64_t watchdog_timer = 0;
  Clock::time_point last_activity{};

  SubscriberViewStats stats;  // guarded by owner->stats_mutex_
};

RelaySubscriber::RelaySubscriber(SubscriberConfig config,
                                 web::HubRegistry& registry)
    : config_(std::move(config)), registry_(registry) {
  if (config_.views.empty()) {
    config_.views.push_back(registry_.default_view_name());
  }
  if (config_.max_depth == 0) config_.max_depth = 1;
  // One upstream connection per view: two would publish every frame into
  // the one local shard twice.
  std::vector<std::string> unique;
  for (const std::string& view : config_.views) {
    if (std::find(unique.begin(), unique.end(), view) == unique.end()) {
      unique.push_back(view);
    }
  }
  config_.views = std::move(unique);
  for (const std::string& view : config_.views) {
    auto conn = std::make_unique<Conn>(this);
    conn->view = view;
    conn->use_sse = config_.transport != "poll";
    conns_.push_back(std::move(conn));
  }
}

RelaySubscriber::~RelaySubscriber() { stop(); }

void RelaySubscriber::start() {
  if (started_.exchange(true)) return;
  // Declare the target shards up front: the local hubs must exist before
  // the first downstream request, which would otherwise be a 404.
  for (const std::string& view : config_.views) registry_.declare(view);
  reactor_.post([this] {
    for (const auto& conn : conns_) schedule_connect(conn.get(), 0.0);
  });
  thread_ = std::thread([this] { reactor_.run(); });
}

void RelaySubscriber::stop() {
  if (!started_.load() || stopped_.exchange(true)) return;
  reactor_.stop();
  if (thread_.joinable()) thread_.join();
}

void RelaySubscriber::request_resync(const std::string& view) {
  // post() refuses after the loop exits, so this is naturally a no-op
  // after stop().
  reactor_.post([this, view] {
    for (const auto& conn : conns_) {
      if (conn->view != view) continue;
      Conn* c = conn.get();
      // The latch: one escalation per outage, however many downstream
      // clients demand a full frame while it is in flight.
      if (c->failed || c->resync_pending) return;
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++c->stats.resyncs;
      }
      // Tear the connection down even on the poll path: the in-flight
      // long poll may be parked upstream for seconds, and downstream
      // waiters need the full frame now, not after that poll drains.
      begin_resync(c, /*teardown_connection=*/true);
      return;
    }
  });
}

std::vector<std::pair<std::string, SubscriberViewStats>>
RelaySubscriber::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  std::vector<std::pair<std::string, SubscriberViewStats>> out;
  out.reserve(conns_.size());
  for (const auto& conn : conns_) out.emplace_back(conn->view, conn->stats);
  return out;
}

std::vector<std::string> RelaySubscriber::upstream_path() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return upstream_path_;
}

bool RelaySubscriber::any_failed() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  for (const auto& conn : conns_) {
    if (conn->stats.failed) return true;
  }
  return false;
}

void RelaySubscriber::conn_event(Conn* c, std::uint32_t events) {
  if (c->failed || !c->sock.valid()) return;
  if (c->connecting) {
    if ((events & (EPOLLERR | EPOLLHUP)) != 0 || c->sock.connect_error() != 0) {
      c->failures = std::min(c->failures + 1, 16);
      teardown(c);
      schedule_connect(c, backoff_delay_s(config_, c->failures));
      return;
    }
    c->connecting = false;
    c->connected_once = true;
    c->last_activity = Clock::now();
    send_next_request(c);
    return;
  }
  if ((events & EPOLLOUT) != 0) flush(c);
  if (!c->sock.valid() || c->failed) return;
  if ((events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) on_readable(c);
}

void RelaySubscriber::schedule_connect(Conn* c, double delay_s) {
  if (c->failed || stopped_.load() || c->retry_timer != 0) return;
  c->retry_timer = reactor_.run_after(delay_s, [this, c] {
    c->retry_timer = 0;
    start_connect(c);
  });
}

void RelaySubscriber::start_connect(Conn* c) {
  if (c->failed || stopped_.load()) return;
  if (c->connected_once) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++c->stats.reconnects;
  }
  c->sock = net::Socket::connect_loopback(config_.upstream_port);
  if (!c->sock.valid() ||
      !reactor_.add(c->sock.fd(), EPOLLOUT, c)) {
    c->sock.close();
    c->failures = std::min(c->failures + 1, 16);
    schedule_connect(c, backoff_delay_s(config_, c->failures));
    return;
  }
  c->registered = true;
  c->connecting = true;
  c->last_activity = Clock::now();
  arm_watchdog(c);
}

void RelaySubscriber::teardown(Conn* c) {
  if (c->retry_timer != 0) {
    reactor_.cancel(c->retry_timer);
    c->retry_timer = 0;
  }
  if (c->watchdog_timer != 0) {
    reactor_.cancel(c->watchdog_timer);
    c->watchdog_timer = 0;
  }
  if (c->registered) {
    reactor_.remove(c->sock.fd());
    c->registered = false;
  }
  c->sock.close();
  c->connecting = false;
  c->out.clear();
  c->decoder.reset();
  c->sse.reset();
  c->body.clear();
  c->pending = Conn::Pending::kNone;
  c->streaming = false;
}

void RelaySubscriber::retry(Conn* c, bool backoff) {
  c->failures = std::min(c->failures + 1, 16);
  c->joined = false;
  c->resync_pending = true;
  teardown(c);
  schedule_connect(c, backoff ? backoff_delay_s(config_, c->failures) : 0.0);
}

void RelaySubscriber::fail_subscription(Conn* c, const std::string& why) {
  teardown(c);
  c->failed = true;
  util::log_message(util::LogLevel::kError, "relay",
                    "view '" + c->view + "' failed: " + why);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    c->stats.failed = true;
    c->stats.failure = why;
  }
  schedule_respawn(c);
}

void RelaySubscriber::schedule_respawn(Conn* c) {
  // The supervisor: instead of latching the failure forever, re-run the
  // whole join cycle under a capped backoff of its own. The view stays
  // *reported* failed (stats.failed / any_failed) across respawn attempts
  // that fail again; only a successful re-join clears it — so a persistent
  // topology error reads as a persistent outage, with a climbing restart
  // counter, not as a flapping one.
  if (stopped_.load() || c->retry_timer != 0) return;
  c->respawns = std::min(c->respawns + 1, 16);
  c->retry_timer =
      reactor_.run_after(respawn_delay_s(config_, c->respawns), [this, c] {
        c->retry_timer = 0;
        if (stopped_.load()) return;
        {
          std::lock_guard<std::mutex> lock(stats_mutex_);
          ++c->stats.restarts;
        }
        // Lift the loop-thread abort latch and start from scratch: fresh
        // connect, /api/state re-join, full-frame resync.
        c->failed = false;
        c->failures = 0;
        c->joined = false;
        c->resync_pending = true;
        start_connect(c);
      });
}

void RelaySubscriber::begin_resync(Conn* c, bool teardown_connection) {
  c->resync_pending = true;
  c->joined = false;
  if (teardown_connection || c->streaming || !c->sock.valid() ||
      c->connecting) {
    teardown(c);
    schedule_connect(c, 0.0);
  } else {
    // Keep-alive intact and the previous response fully consumed: re-join
    // on the same connection.
    send_next_request(c);
  }
}

void RelaySubscriber::send_next_request(Conn* c) {
  std::string target;
  if (!c->joined) {
    c->pending = Conn::Pending::kState;
    target = "/api/state?view=" + c->view;
  } else {
    const std::string cursor =
        "?view=" + c->view + "&since=" + std::to_string(c->since_up) +
        "&delta=1&timeout=" + util::strprintf("%.3f", config_.poll_timeout_s) +
        (c->resync_pending ? "&full=1" : "");
    if (c->use_sse) {
      c->pending = Conn::Pending::kStream;
      target = "/api/stream" + cursor;
    } else {
      c->pending = Conn::Pending::kPoll;
      target = "/api/poll" + cursor;
    }
  }
  c->streaming = false;
  c->out += "GET " + target +
            " HTTP/1.1\r\nHost: relay\r\nConnection: keep-alive\r\n"
            "X-Relay-Path: " + config_.relay_id + "\r\n\r\n";
  flush(c);
}

void RelaySubscriber::flush(Conn* c) {
  while (!c->out.empty()) {
    std::size_t written = 0;
    const net::IoStatus st =
        c->sock.write_some(c->out.data(), c->out.size(), written);
    if (written > 0) c->out.erase(0, written);
    if (st == net::IoStatus::kWouldBlock) break;
    if (st == net::IoStatus::kError) {
      retry(c);
      return;
    }
    if (written == 0) break;
  }
  reactor_.modify(c->sock.fd(),
                  EPOLLIN | (c->out.empty() ? 0u : EPOLLOUT));
}

void RelaySubscriber::on_readable(Conn* c) {
  bool eof = false;
  for (;;) {
    const net::IoStatus st = c->sock.read_some(c->decoder.buffer());
    if (st == net::IoStatus::kOk) {
      c->last_activity = Clock::now();
      continue;
    }
    if (st == net::IoStatus::kWouldBlock) break;
    eof = true;  // kEof or kError: the peer is gone either way
    break;
  }
  // Decode every complete response / stream event from the buffer.
  while (c->sock.valid() && !c->failed) {
    const Event event = c->decoder.next();
    if (event == Event::kNeedMore) break;
    if (event == Event::kBad) {
      // A framing error: nothing more on this connection can be trusted.
      retry(c);
      return;
    }
    if (event == Event::kHead) {
      handle_headers(c);
    } else if (event == Event::kData && c->streaming) {
      consume_stream(c, c->decoder.take_data());
    } else if (event == Event::kData) {
      c->body += c->decoder.take_data();
    } else if (c->streaming) {
      // The upstream ended the stream (shutdown or restart): treat it as a
      // potential new epoch and re-join from scratch.
      retry(c, /*backoff=*/false);
    } else {
      handle_response(c, std::exchange(c->body, std::string()));
    }
  }
  if (eof && c->sock.valid() && !c->failed) {
    // Peer closed mid-exchange (origin stop/restart, keep-alive cut):
    // reconnect with backoff and re-join from a fresh full frame.
    retry(c);
  }
}

void RelaySubscriber::handle_headers(Conn* c) {
  const auto& headers = c->decoder.headers();
  const auto path = headers.find("x-relay-path");
  note_relay_path(c, path == headers.end() ? std::string() : path->second);
  if (c->failed) return;  // a cycle or the depth cap
  const int status = c->decoder.status();
  if (status == 409) {
    fail_subscription(c, "upstream rejected the subscription (409 conflict)");
    return;
  }
  if (status != 200) {
    if (c->pending == Conn::Pending::kStream && config_.transport == "auto" &&
        (status == 400 || status == 405 || status == 501)) {
      // The upstream has no usable stream route: settle on long-poll.
      // (404 is excluded — it means the *view* is not declared yet, and
      // downgrading the transport would not help.)
      c->use_sse = false;
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        c->stats.sse = false;
      }
      retry(c, /*backoff=*/false);
    } else {
      // 503 (overload), 404 (view not yet published), or anything else
      // transient: retry the same transport with backoff.
      retry(c);
    }
    return;
  }
  if (c->pending == Conn::Pending::kStream) {
    if (headers.count("transfer-encoding") == 0) {
      // A 200 stream must be chunked; anything else is not our protocol.
      retry(c);
      return;
    }
    c->streaming = true;
    std::lock_guard<std::mutex> lock(stats_mutex_);
    c->stats.sse = true;
  }
}

void RelaySubscriber::handle_response(Conn* c, std::string body) {
  const Conn::Pending pending = c->pending;
  c->pending = Conn::Pending::kNone;
  c->last_activity = Clock::now();
  if (pending == Conn::Pending::kState) {
    // Join at the upstream head: ask for head-1 so the first subscribed
    // frame is the head itself (full, because resync_pending is set).
    std::uint64_t head = 0;
    scan_u64(body, "\"seq\":", head);
    c->since_up = head > 0 ? head - 1 : 0;
    c->joined = true;
    c->resync_pending = true;
    if (c->respawns != 0) {
      // A supervised respawn made it through the join: the failure is
      // over. Clear the reported state so any_failed() reflects now.
      c->respawns = 0;
      std::lock_guard<std::mutex> lock(stats_mutex_);
      c->stats.failed = false;
      c->stats.failure.clear();
    }
    send_next_request(c);
    return;
  }
  const bool ok = handle_body(c, std::move(body));
  if (c->failed || !c->sock.valid()) return;
  if (!ok) {
    // Epoch change / base mismatch: re-join. The response was consumed in
    // full, so the keep-alive connection is reusable.
    begin_resync(c, /*teardown_connection=*/false);
    return;
  }
  // A poll completed cleanly: the backoff starts over. A join alone never
  // resets it, or an upstream that joins fine but breaks every stream
  // would be re-joined at the initial delay forever.
  c->failures = 0;
  if (!c->decoder.keep_alive()) {
    teardown(c);
    schedule_connect(c, 0.0);
    return;
  }
  send_next_request(c);
}

void RelaySubscriber::consume_stream(Conn* c, std::string payload) {
  c->sse.feed(std::move(payload));
  web::SseSplitter::Event event;
  for (;;) {
    const web::SseSplitter::Result result = c->sse.next(event);
    if (result == web::SseSplitter::Result::kNeedMore) return;
    if (result == web::SseSplitter::Result::kBad) {
      retry(c);
      return;
    }
    c->last_activity = Clock::now();
    if (event.data.empty()) continue;  // ": keepalive" comment
    if (!handle_body(c, std::move(event.data))) {
      // A stream cannot move its cursor mid-flight: resync by reconnect.
      begin_resync(c, /*teardown_connection=*/true);
      return;
    }
    if (c->failed || !c->sock.valid()) return;
  }
}

bool RelaySubscriber::handle_body(Conn* c, std::string body) {
  // Order matters: the long-poll timeout body is {"seq":<since>,
  // "timeout":true} — it contains "seq" and would otherwise read as an
  // epoch regression.
  if (body.find("\"timeout\":true") != std::string::npos) return true;
  std::uint64_t seq = 0;
  if (!scan_u64(body, "\"seq\":", seq)) return true;  // not a frame body
  const bool is_full = body.find("\"delta\":false") != std::string::npos;
  std::uint64_t base_seq = 0;
  const bool has_base = scan_u64(body, "\"base_seq\":", base_seq);
  if (c->resync_pending) {
    // We asked for full=1; anything else means the request raced an
    // upstream restart — run the resync again.
    if (!is_full) return false;
    c->resync_pending = false;
    c->since_up = seq;
    publish_body(c, std::move(body), /*is_full=*/true, /*has_base=*/false);
    return true;
  }
  if (seq <= c->since_up) {
    // Upstream seq went backwards: the origin restarted and its counting
    // re-began. Propagate as a clean full-frame resync, not a gap.
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++c->stats.epoch_changes;
    }
    return false;
  }
  if (has_base && base_seq != c->since_up) {
    // A delta against a base we never consumed cannot be rebased.
    return false;
  }
  // First: publish_body reports since_up as the frame's upstream seq.
  c->since_up = seq;
  publish_body(c, std::move(body), is_full, has_base && !is_full);
  return true;
}

void RelaySubscriber::publish_body(Conn* c, std::string body, bool is_full,
                                   bool has_base) {
  c->failures = 0;  // a frame made it through: the backoff starts over
  // Rebase the body into the local seq space: downstream subscribers must
  // see a strictly increasing window regardless of upstream restarts.
  const std::uint64_t local = c->last_local + 1;
  splice_u64(body, "\"seq\":", local);
  if (has_base) splice_u64(body, "\"base_seq\":", c->last_local);
  web::FrameHub::PreEncoded pre;
  if (is_full) {
    pre.full_body = std::move(body);
  } else {
    pre.delta_body = std::move(body);
  }
  const std::uint64_t seq = registry_.publish_encoded(c->view, std::move(pre));
  if (seq == 0) return;  // registry shutting down
  if (seq != local) {
    // Something else published into the local shard: its seq space no
    // longer matches our rebased bodies. Re-anchor and fetch a fresh full
    // frame so the next publish is coherent at the hub's actual head.
    c->resync_pending = true;
  }
  c->last_local = seq;
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++c->stats.frames;
  if (is_full) {
    ++c->stats.full_frames;
  } else {
    ++c->stats.delta_frames;
  }
  c->stats.last_upstream_seq = c->since_up;
  c->stats.last_local_seq = seq;
}

void RelaySubscriber::note_relay_path(Conn* c, const std::string& header) {
  if (header.empty()) return;  // direct origin: no chain to learn
  std::vector<std::string> chain;
  for (const std::string& part : util::split(header, ',')) {
    const std::string_view id = util::trim(part);
    if (!id.empty()) chain.emplace_back(id);
  }
  for (const std::string& id : chain) {
    if (id == config_.relay_id) {
      fail_subscription(c, "relay cycle: own id '" + id +
                               "' appears in the upstream path");
      return;
    }
  }
  if (chain.size() + 1 > config_.max_depth) {
    fail_subscription(
        c, util::strprintf("relay depth cap exceeded: %zu upstream hops, "
                           "max_depth %zu",
                           chain.size(), config_.max_depth));
    return;
  }
  std::lock_guard<std::mutex> lock(stats_mutex_);
  upstream_path_ = std::move(chain);
}

void RelaySubscriber::arm_watchdog(Conn* c) {
  const double period = std::max(1.0, config_.poll_timeout_s);
  c->watchdog_timer = reactor_.run_after(period, [this, c] {
    c->watchdog_timer = 0;
    if (c->failed || !c->sock.valid()) return;
    // A live upstream produces at least keepalives/timeout bodies every
    // poll_timeout_s; twice that plus slack means it silently hung.
    const double budget = 2.0 * config_.poll_timeout_s + 5.0;
    const double idle =
        std::chrono::duration<double>(Clock::now() - c->last_activity).count();
    if (idle > budget) {
      retry(c);
      return;
    }
    arm_watchdog(c);
  });
}

}  // namespace ricsa::relay
