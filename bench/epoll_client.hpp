// Epoll-based bench *client* harness: one reactor thread drives thousands
// of long-poll clients.
//
// A thread-per-client load generator (one blocking HttpClient + one
// std::thread per emulated browser) is itself the bottleneck at 4k+
// clients on small machines: thousands of generator threads contend for
// the same cores as the server under test, and their scheduling jitter
// shows up as tail latency the report then attributes to the server. This
// harness inverts the client side exactly like src/net inverted the server
// side — every emulated browser is a little connection state machine
// (connect → join at the live head → long-poll loop or SSE stream)
// registered on one net::Reactor, so the whole load fleet costs one thread
// regardless of client count, and slow-client think time is a reactor
// timer instead of a sleeping thread. It is the one client harness of
// ajax_fanout: every scenario that runs a server runs its clients here.
#pragma once

#include <sys/epoll.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "net/reactor.hpp"
#include "net/socket.hpp"
#include "util/json.hpp"
#include "web/http.hpp"

namespace benchweb {

/// Per-client tallies (summed into the round report).
struct ClientResult {
  std::vector<double> delivery_ms;  // publish stamp -> response received
  std::vector<double> rtt_ms;       // poll request -> response
  std::uint64_t frames = 0;
  std::uint64_t polls = 0;
  std::uint64_t gaps = 0;   // seq advanced by more than one (unpaced)
  std::uint64_t skips = 0;  // paced clients: frames deliberately jumped
  std::uint64_t timeouts = 0;  // empty polls; for SSE, keepalive comments
  std::uint64_t errors = 0;
  std::uint64_t bytes = 0;  // response body bytes received
  /// Raw bytes on the wire, both directions: request lines, response
  /// headers, chunk framing, SSE event framing, bodies. wire_bytes - bytes
  /// is the transport's framing overhead — the long-poll vs SSE
  /// head-to-head number the transport scenario reports per frame.
  std::uint64_t wire_bytes = 0;
  // Frame/byte counts by served quality tier (full, half, state-only).
  std::array<std::uint64_t, 3> tier_frames{};
  std::array<std::uint64_t, 3> tier_bytes{};
  // Image-delta protocol accounting (delta scenario).
  std::uint64_t tile_frames = 0;  // bodies carrying a `tiles` array
  std::uint64_t tiles_received = 0;
  std::uint64_t image_frames = 0;  // bodies carrying a full image_b64
  std::uint64_t delta_breaks = 0;  // tiles whose base_seq != composited seq
  int reconnects = 0;
  // Error breakdown (summed into `errors` by the harnesses that track it):
  // HTTP 503s (connection cap), other non-200s, JSON/protocol failures,
  // connect/IO failures.
  std::uint64_t errors_503 = 0;
  std::uint64_t errors_http = 0;
  std::uint64_t errors_parse = 0;
  std::uint64_t errors_io = 0;
};

inline std::size_t tier_index(const std::string& name) {
  if (name == "half") return 1;
  if (name == "state") return 2;
  return 0;
}

inline double bench_now_unix_ms() {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::microseconds>(
                 std::chrono::system_clock::now().time_since_epoch())
                 .count()) /
         1000.0;
}

/// The accounting fields of one poll body, extracted by token scan. The
/// fleet deliberately does NOT JSON-parse responses: after each publish,
/// hundreds of bodies land on the single loop thread back to back, and a
/// full parse per body queues the later ones long enough to show up as
/// tail latency — the exact artifact this harness exists to remove. The
/// scan relies on the server's compact dump format (`"key":value`) and on
/// the poll schema keeping these top-level keys unique (note `"seq":`
/// cannot match inside `"base_seq":` — the preceding character differs).
struct PollBodyFields {
  bool timeout = false;
  bool has_seq = false;
  std::uint64_t seq = 0;
  bool has_base_seq = false;
  std::uint64_t base_seq = 0;
  bool has_published = false;
  double published_ms = 0.0;
  bool has_tiles = false;
  std::size_t tile_count = 0;
  bool has_image = false;
  std::string tier;  // empty = absent
};

inline bool scan_number(const std::string& body, const char* token,
                        double* out) {
  const std::size_t pos = body.find(token);
  if (pos == std::string::npos) return false;
  *out = std::atof(body.c_str() + pos + std::strlen(token));
  return true;
}

inline PollBodyFields scan_poll_body(const std::string& body) {
  PollBodyFields f;
  f.timeout = body.find("\"timeout\":") != std::string::npos;
  double number = 0.0;
  if ((f.has_seq = scan_number(body, "\"seq\":", &number))) {
    f.seq = static_cast<std::uint64_t>(number);
  }
  if ((f.has_base_seq = scan_number(body, "\"base_seq\":", &number))) {
    f.base_seq = static_cast<std::uint64_t>(number);
  }
  f.has_published = scan_number(body, "\"published_ms\":", &f.published_ms);
  const std::size_t tiles_pos = body.find("\"tiles\":[");
  f.has_tiles = tiles_pos != std::string::npos;
  if (f.has_tiles) {
    std::size_t pos = tiles_pos;
    while ((pos = body.find("\"png_b64\":", pos)) != std::string::npos) {
      ++f.tile_count;
      pos += 10;
    }
  }
  f.has_image = body.find("\"image_b64\":") != std::string::npos;
  const std::size_t tier_pos = body.find("\"tier\":\"");
  if (tier_pos != std::string::npos) {
    const std::size_t start = tier_pos + 8;
    const std::size_t end = body.find('"', start);
    if (end != std::string::npos) f.tier = body.substr(start, end - start);
  }
  return f;
}

/// One emulated browser of the epoll fleet.
struct ClientSpec {
  std::string view;       // "" = the default view (no view= parameter)
  std::string client_id;  // non-empty opts into adaptive pacing
  /// Slow-consumer think time; a client with one is excluded from the
  /// round's fast-client percentiles.
  double inter_poll_delay_s = 0.0;
  bool force_full = false;          // tile-delta opt-out (full=1)
  /// Ride the /api/stream SSE push channel instead of the long-poll loop:
  /// one request, then an unbounded chunked event stream. Frame/tier/delta
  /// accounting is identical to the poll mode; for slow consumers the
  /// think time becomes a read-side pause (TCP backpressure) instead of a
  /// delay between polls.
  bool sse = false;
  /// Per-client server port override (0 = the fleet's port). The relay
  /// scenario spreads one fleet across several relay nodes with this.
  int port = 0;
};

/// Drives every ClientSpec against one server on a single reactor thread.
class EpollClientFleet {
 public:
  EpollClientFleet(int port, std::vector<ClientSpec> specs)
      : port_(port), specs_(std::move(specs)) {}

  /// Run the fleet for `duration_s` on the calling thread (which becomes
  /// the reactor loop). Single-shot. Returns one result per spec, in spec
  /// order.
  std::vector<ClientResult> run(double duration_s) {
    std::vector<ClientResult> results(specs_.size());
    ricsa::net::Reactor reactor;
    std::vector<std::unique_ptr<Conn>> conns;
    conns.reserve(specs_.size());
    // Setup runs as a posted task: fd registration and timers are
    // loop-thread operations, and run() drains pre-posted tasks first.
    reactor.post([&] {
      for (std::size_t i = 0; i < specs_.size(); ++i) {
        conns.push_back(
            std::make_unique<Conn>(reactor, port_, specs_[i], results[i]));
        conns.back()->start();
      }
      reactor.run_after(duration_s, [&] {
        for (auto& conn : conns) conn->finish();
        reactor.stop();
      });
    });
    reactor.run();
    return results;
  }

 private:
  /// Connection state machine: kConnect (await writability, check
  /// SO_ERROR) -> join at the live head (GET /api/state) -> long-poll loop
  /// (kRequest: flush the request; kResponse: feed the shared response
  /// decoder until the response ends; kDelay: think-time timer for slow
  /// consumers) -> kDone. Errors reconnect with the cursor preserved.
  class Conn : public ricsa::net::EventHandler {
   public:
    Conn(ricsa::net::Reactor& reactor, int port, const ClientSpec& spec,
         ClientResult& out)
        : reactor_(reactor),
          port_(spec.port > 0 ? spec.port : port),
          spec_(spec),
          out_(out) {}
    ~Conn() override { deregister(); }

    void start() {
      decoder_.reset();
      sse_.reset();
      body_.clear();
      sock_ = ricsa::net::Socket::connect_loopback(port_);
      if (!sock_.valid()) {
        ++out_.errors;
        ++out_.errors_io;
        retry_later();
        return;
      }
      phase_ = Phase::kConnect;
      if (!reactor_.add(sock_.fd(), EPOLLOUT, this)) {
        // Watch-table exhaustion: this client simply drops out.
        ++out_.errors;
        sock_.close();
        phase_ = Phase::kDone;
      }
    }

    void finish() {
      cancel_timer();
      deregister();
      phase_ = Phase::kDone;
    }

    void on_event(std::uint32_t events) override {
      if (phase_ == Phase::kDone) return;
      if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
        reconnect();
        return;
      }
      if (phase_ == Phase::kConnect) {
        if (sock_.connect_error() != 0) {
          ++out_.errors;
          ++out_.errors_io;
          reconnect();
          return;
        }
        phase_ = Phase::kRequest;
        queue_request();
      }
      if (phase_ == Phase::kRequest && (events & EPOLLOUT) != 0) flush();
      if (phase_ == Phase::kResponse && (events & EPOLLIN) != 0) drain();
    }

   private:
    enum class Phase { kConnect, kRequest, kResponse, kDelay, kDone };

    void deregister() {
      if (sock_.valid()) {
        reactor_.remove(sock_.fd());
        sock_.close();
      }
    }

    void cancel_timer() {
      if (timer_ != 0) {
        reactor_.cancel(timer_);
        timer_ = 0;
      }
    }

    void retry_later() {
      // Connect failures and dropped connections back off briefly instead
      // of spinning the loop: an instant re-SYN against a server at its
      // connection cap (503 + half-close) would turn one transient
      // rejection into a self-sustaining storm.
      phase_ = Phase::kDelay;
      timer_ = reactor_.run_after(0.05, [this] {
        timer_ = 0;
        if (phase_ != Phase::kDone) start();
      });
    }

    void reconnect() {
      deregister();
      ++out_.reconnects;
      retry_later();
    }

    void queue_request() {
      streaming_ = false;
      if (!joined_) {
        outbuf_ = "GET /api/state" +
                  (spec_.view.empty() ? std::string()
                                      : "?view=" + spec_.view) +
                  " HTTP/1.1\r\nHost: bench\r\n\r\n";
      } else {
        std::string query = "since=" + std::to_string(since_) +
                            "&delta=1&timeout=2";
        if (spec_.force_full) query += "&full=1";
        if (!spec_.client_id.empty()) query += "&client=" + spec_.client_id;
        if (!spec_.view.empty()) query += "&view=" + spec_.view;
        if (spec_.sse) {
          // One subscribe, then an unbounded event stream: `polls` counts
          // stream (re)subscriptions, which is exactly where the
          // per-frame request overhead of long-polling disappears.
          outbuf_ =
              "GET /api/stream?" + query + " HTTP/1.1\r\nHost: bench\r\n\r\n";
          streaming_ = true;
          ++out_.polls;
        } else {
          outbuf_ =
              "GET /api/poll?" + query + " HTTP/1.1\r\nHost: bench\r\n\r\n";
        }
        t0_ms_ = bench_now_unix_ms();
      }
      outpos_ = 0;
      phase_ = Phase::kRequest;
      reactor_.modify(sock_.fd(), EPOLLOUT);
      flush();
    }

    void flush() {
      while (outpos_ < outbuf_.size()) {
        std::size_t written = 0;
        const ricsa::net::IoStatus status = sock_.write_some(
            outbuf_.data() + outpos_, outbuf_.size() - outpos_, written);
        outpos_ += written;
        out_.wire_bytes += written;
        if (status == ricsa::net::IoStatus::kWouldBlock) return;
        if (status == ricsa::net::IoStatus::kError) {
          reconnect();
          return;
        }
      }
      phase_ = Phase::kResponse;
      reactor_.modify(sock_.fd(), EPOLLIN);
    }

    void drain() {
      for (;;) {
        std::string& in = decoder_.buffer();
        const std::size_t before = in.size();
        const ricsa::net::IoStatus status = sock_.read_some(in);
        if (status == ricsa::net::IoStatus::kWouldBlock) break;
        if (status != ricsa::net::IoStatus::kOk) {
          reconnect();
          return;
        }
        out_.wire_bytes += in.size() - before;
        if (!decode()) return;  // the connection moved on
        if (streaming_ && spec_.inter_poll_delay_s > 0.0) {
          // Slow SSE consumer: the think time becomes a read pause, so
          // unread events back up in the socket — the TCP backpressure a
          // real saturated browser applies to the push channel.
          pause_stream_reads();
          return;
        }
      }
      // Level-triggered read drained without a full response yet: wait.
    }

    void pause_stream_reads() {
      phase_ = Phase::kDelay;
      reactor_.modify(sock_.fd(), 0);
      timer_ = reactor_.run_after(spec_.inter_poll_delay_s, [this] {
        timer_ = 0;
        if (phase_ != Phase::kDelay) return;
        phase_ = Phase::kResponse;
        reactor_.modify(sock_.fd(), EPOLLIN);
      });
    }

    /// Decode what arrived. False when the connection moved on (next
    /// request, delay timer, or reconnect).
    bool decode() {
      using Event = ricsa::web::ResponseDecoder::Event;
      for (Event event; (event = decoder_.next()) != Event::kNeedMore;) {
        if (event == Event::kBad ||
            (event == Event::kHead && streaming_ && decoder_.status() != 200)) {
          count_error(event == Event::kBad ? 0 : decoder_.status());
          reconnect();
          return false;
        }
        if (event == Event::kData && !streaming_) {
          body_ += decoder_.take_data();
        } else if (event == Event::kData) {
          if (!split_events()) return false;
        } else if (event == Event::kDone) {
          if (streaming_) {
            // Terminal chunk: the server ended the stream (shutdown).
            // Resubscribe from the preserved cursor.
            reconnect();
          } else if (!joined_) {
            handle_join(decoder_.status(), body_);
          } else {
            handle_poll(decoder_.status(), body_);
          }
          body_.clear();
          return false;
        }
      }
      return true;
    }

    /// A failed response: framing (status 0), a 503, or another non-200.
    void count_error(int status) {
      ++out_.errors;
      ++(status == 0 ? out_.errors_parse
                     : status == 503 ? out_.errors_503 : out_.errors_http);
    }

    /// Split one chunk of the SSE stream into events and account each.
    /// Returns false when the connection was torn down.
    bool split_events() {
      sse_.feed(decoder_.take_data());
      ricsa::web::SseSplitter::Event event;
      ricsa::web::SseSplitter::Result result;
      while ((result = sse_.next(event)) ==
             ricsa::web::SseSplitter::Result::kEvent) {
        if (event.comment) {
          // Keepalive comment: the push channel's "no frame yet", counted
          // where a long-poll's empty 200 would land.
          ++out_.timeouts;
        } else if (event.data.empty()) {
          count_error(0);
        } else {
          account_frame(event.data, bench_now_unix_ms());
        }
      }
      if (result == ricsa::web::SseSplitter::Result::kNeedMore) return true;
      count_error(0);
      reconnect();
      return false;
    }

    void handle_join(int status, const std::string& body) {
      joined_ = true;  // a failed join just starts polling from 0
      if (status == 200) {
        double seq = 0.0;
        if (scan_number(body, "\"seq\":", &seq)) {
          since_ = static_cast<std::uint64_t>(seq);
        }
      }
      queue_request();
    }

    void handle_poll(int status, const std::string& body) {
      const double t1 = bench_now_unix_ms();
      ++out_.polls;
      if (status != 200) {
        count_error(status);
        if (status == 503) {
          // Connection cap: the server half-closed after the 503, so the
          // connection is dead — reconnect with backoff instead of writing
          // the next poll into an EOF.
          reconnect();
          return;
        }
        // Other persistent non-200s (e.g. a misconfigured view's 404)
        // must not re-poll at wire speed either: throttle the retry.
        phase_ = Phase::kDelay;
        reactor_.modify(sock_.fd(), 0);
        timer_ = reactor_.run_after(0.05, [this] {
          timer_ = 0;
          if (phase_ == Phase::kDelay) queue_request();
        });
        return;
      }
      if (account_frame(body, t1)) out_.rtt_ms.push_back(t1 - t0_ms_);
      next_poll();
    }

    /// Shared accounting for one frame body, whether it arrived as a poll
    /// response or as an SSE event payload. Returns true when the body
    /// advanced the cursor (a new frame, not a timeout/stale/parse miss).
    bool account_frame(const std::string& body, double t1) {
      const PollBodyFields fields = scan_poll_body(body);
      if (fields.timeout) {
        ++out_.timeouts;
        return false;
      }
      if (!fields.has_seq) {
        count_error(0);
        return false;
      }
      if (fields.seq <= since_) return false;
      // Adaptive sessions skip frames by design (latest_only pacing);
      // count those separately so `gaps` stays the hub-correctness signal.
      if (since_ != 0 && fields.seq != since_ + 1) {
        if (spec_.client_id.empty()) {
          ++out_.gaps;
        } else {
          out_.skips += fields.seq - since_ - 1;
        }
      }
      // Tile-delta protocol accounting. `since_` doubles as the composited
      // cursor: a gap-free client composites every frame, so tiles must
      // always anchor at exactly the previous frame received.
      if (fields.has_tiles) {
        ++out_.tile_frames;
        out_.tiles_received += fields.tile_count;
        if (!fields.has_base_seq || fields.base_seq != since_) {
          ++out_.delta_breaks;
        }
      } else if (fields.has_image) {
        ++out_.image_frames;
      }
      since_ = fields.seq;
      ++out_.frames;
      out_.bytes += body.size();
      const std::size_t tier =
          fields.tier.empty() ? 0 : tier_index(fields.tier);
      ++out_.tier_frames[tier];
      out_.tier_bytes[tier] += body.size();
      if (fields.has_published) {
        out_.delivery_ms.push_back(t1 - fields.published_ms);
      }
      return true;
    }

    void next_poll() {
      if (phase_ == Phase::kDone) return;
      if (spec_.inter_poll_delay_s > 0.0) {
        // Slow-consumer think time: a timer, not a sleeping thread. The fd
        // stays registered with no interest bits; the server's idle-read
        // deadline comfortably exceeds the delay.
        phase_ = Phase::kDelay;
        reactor_.modify(sock_.fd(), 0);
        timer_ = reactor_.run_after(spec_.inter_poll_delay_s, [this] {
          timer_ = 0;
          if (phase_ == Phase::kDelay) queue_request();
        });
        return;
      }
      queue_request();
    }

    ricsa::net::Reactor& reactor_;
    const int port_;
    const ClientSpec spec_;
    ClientResult& out_;
    ricsa::net::Socket sock_;
    Phase phase_ = Phase::kDone;
    bool joined_ = false;
    bool streaming_ = false;
    ricsa::web::ResponseDecoder decoder_;  // the socket's read buffer
    ricsa::web::SseSplitter sse_;          // events of a /api/stream body
    std::string body_;                     // poll/join response so far
    std::uint64_t since_ = 0;
    std::string outbuf_;
    std::size_t outpos_ = 0;
    double t0_ms_ = 0.0;
    std::uint64_t timer_ = 0;
  };

  int port_;
  std::vector<ClientSpec> specs_;
};

}  // namespace benchweb
