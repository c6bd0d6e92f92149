// Minimal HTTP/1.1 server and client over loopback TCP.
//
// The paper's front end serves the GWT-built Ajax application and answers
// XMLHttpRequest calls (Section 5.1); this is the equivalent embedded web
// server. Since the epoll port it is *event-driven*: N net::Reactor
// threads (a ReactorPool, default 1) multiplex the connections — accept,
// request parsing, and response writes are state machines advanced by
// readiness events — and a small worker pool runs the route handlers.
// Every connection is owned end-to-end by the reactor that accepted it
// on its own SO_REUSEPORT listener, so the wire path needs no
// cross-reactor locks; responses leave through a refcounted BufferChain
// gathered into writev, so a frame body fanned out to N clients is never
// copied per client. An idle long-poll client costs one fd plus a few
// hundred bytes of connection state instead of a parked thread stack,
// which is what pushes fan-out from ~1k clients to 10k+.
// No TLS, loopback-oriented.
//
// Long-poll endpoints use *async routes*: the handler receives a
// ResponseSink instead of returning a response. Whichever thread later
// invokes the sink — typically the hub's completion task on reactor 0 —
// posts the response to the connection's reactor, where it becomes a
// write-readiness event. Requests pipelined behind an in-flight response
// are parsed only after that response is serialized, so responses always
// leave in request order.
//
// *Stream routes* go one step further: the handler receives a StreamSink
// and the response is an unbounded sequence of HTTP/1.1 chunks
// (Transfer-Encoding: chunked) — the wire format Server-Sent Events rides
// on. A streaming response converts the connection: it never returns to
// request parsing (bytes pipelined behind the converting request are
// drained and discarded), partial chunk writes resume on EPOLLOUT like any
// response, and the producer paces itself off the drained callback, so a
// slow consumer exerts TCP backpressure instead of growing the buffer.
//
// HTTP/1.1 surface: keep-alive with pipelining, HEAD (headers +
// Content-Length, no body), chunked streaming responses, 405 + Allow for
// known paths asked with the wrong or an unknown method, 503 when the
// connection cap (or the process's fd table) is exhausted, 501 + close
// for a request carrying Transfer-Encoding (bodies need Content-Length).
//
// Client side: every reader of responses (HttpClient, the relay
// subscriber, the bench fleet, the tests) goes through one ResponseDecoder
// and, for event streams, one SseSplitter. Header fields are parsed by the
// request parser's code, so both directions are delimited by one rule.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "net/buffer_chain.hpp"
#include "net/reactor.hpp"
#include "net/reactor_pool.hpp"
#include "net/socket.hpp"
#include "util/thread_pool.hpp"

namespace ricsa::web {

struct HttpRequest {
  std::string method;
  std::string path;        // without the query string
  std::string query;       // raw query string (after '?')
  std::map<std::string, std::string> headers;  // lower-cased keys
  std::string body;
  /// Remote peer of the connection this request arrived on ("ip:port") —
  /// a per-connection identity handlers can use as a client-session key.
  std::string peer;

  /// Value of a query parameter (URL-decoded), or fallback.
  std::string query_param(const std::string& key,
                          const std::string& fallback = "") const;
};

struct HttpResponse {
  int status = 200;
  std::map<std::string, std::string> headers;
  std::string body;
  /// Zero-copy body: when set, the response *references* this immutable
  /// string instead of carrying bytes in `body` (which is then ignored).
  /// The connection's buffer chain appends it as a shared segment, so a
  /// frame body fanned out to N subscribers is serialized with N small
  /// header blocks and zero body copies.
  std::shared_ptr<const std::string> shared_body;

  std::size_t body_size() const noexcept {
    return shared_body ? shared_body->size() : body.size();
  }

  static HttpResponse text(std::string body, int status = 200);
  static HttpResponse json(std::string body, int status = 200);
  /// JSON response referencing `body` without copying — the fan-out path
  /// for hub frame bodies shared across every subscriber of a frame.
  static HttpResponse json_shared(std::shared_ptr<const std::string> body,
                                  int status = 200);
  static HttpResponse html(std::string body);
  static HttpResponse binary(std::vector<std::uint8_t> bytes,
                             std::string content_type);
  static HttpResponse not_found();
  static HttpResponse bad_request(const std::string& why);
};

class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  /// Deferred reply for async routes. Copyable; the first invocation wins
  /// (it posts the response to the reactor, which writes it when the
  /// connection is writable), later invocations are no-ops. Every sink
  /// handed to an async handler should eventually be invoked; otherwise
  /// the client side of the poll hangs until its timeout. Safe to invoke
  /// from any thread, including after the server stopped (the response is
  /// then dropped).
  class ResponseSink {
   public:
    void operator()(const HttpResponse& response) const;
    /// As operator(), plus a one-shot `drained` callback fired on the
    /// connection's reactor thread once the response has fully drained
    /// into the kernel socket buffer — the long-poll twin of the
    /// StreamSink chunk callback (TCP backpressure shows up as drain
    /// latency). Never fired when the connection died before the drain.
    void operator()(const HttpResponse& response,
                    std::function<void()> drained) const;

   private:
    friend class HttpServer;
    std::shared_ptr<struct AsyncReply> reply_;
  };
  using AsyncHandler = std::function<void(const HttpRequest&, ResponseSink)>;

  /// Producer handle for a streaming (chunked) response. Copyable; safe to
  /// use from any thread — every operation posts to the reactor, where the
  /// connection state lives. Lifecycle: begin() once (first call wins),
  /// then chunk() repeatedly, then end(); the connection always closes
  /// when the stream finishes (a converted connection never parses another
  /// request, so keep-alive would strand it).
  class StreamSink {
   public:
    /// Send the status line + headers and convert the connection to stream
    /// mode (Transfer-Encoding: chunked, Connection: close). For a HEAD
    /// request the headers are sent as-is and the connection closes —
    /// head_only() turns true and chunk() refuses — so streaming resources
    /// answer HEAD instead of parking an infinite suppressed body.
    void begin(std::map<std::string, std::string> headers = {},
               int status = 200) const;
    /// Queue one chunk of payload (already application-framed; this only
    /// adds the chunked-transfer envelope). `drained`, if given, fires on
    /// the loop thread once the connection's output buffer has fully
    /// drained to the socket — the producer's backpressure signal; issue
    /// the next chunk from there and a slow consumer paces the stream via
    /// TCP instead of ballooning server memory. Returns false once the
    /// stream is dead (connection gone or end() called): the producer
    /// should stop. Empty payloads are dropped (a zero-length chunk is the
    /// terminator on the wire — only end() may emit it).
    bool chunk(std::string payload,
               std::function<void()> drained = nullptr) const;
    /// Zero-copy variant: the payload arrives as a pre-assembled buffer
    /// chain (e.g. SSE framing around a shared frame body); only the
    /// chunked-transfer envelope is added around it. Same return/drained
    /// semantics as the string overload.
    bool chunk(net::BufferChain payload,
               std::function<void()> drained = nullptr) const;
    /// Terminal zero-length chunk; the connection closes once it drains.
    void end() const;
    /// The connection can still accept chunks. Advisory (the connection
    /// can die between the check and the write); chunk()'s return is the
    /// authoritative signal.
    bool alive() const;
    /// True once begin() ran for a HEAD request: the response is complete
    /// and the handler should produce nothing.
    bool head_only() const;

   private:
    friend class HttpServer;
    std::shared_ptr<struct StreamReply> reply_;
  };
  using StreamHandler = std::function<void(const HttpRequest&, StreamSink)>;

  HttpServer();
  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Route an exact path for a method ("GET", "POST"). Longest-prefix
  /// fallback routes can be added with `prefix = true`. HEAD requests fall
  /// back to the matching GET route with the body suppressed.
  void route(const std::string& method, const std::string& path,
             Handler handler, bool prefix = false);

  /// Route whose handler completes asynchronously via the ResponseSink.
  void route_async(const std::string& method, const std::string& path,
                   AsyncHandler handler);

  /// Route whose handler produces a chunked streaming response via the
  /// StreamSink. HEAD requests reach the handler too (head_only() sinks).
  void route_stream(const std::string& method, const std::string& path,
                    StreamHandler handler);

  /// Bind loopback:port (0 = ephemeral), start the reactor thread and the
  /// worker pool. Returns the bound port. Throws std::runtime_error on
  /// failure. Single-shot: a stopped server cannot be restarted.
  int start(int port = 0);
  void stop();
  int port() const noexcept { return port_; }
  bool running() const noexcept { return running_.load(); }
  std::uint64_t requests_served() const noexcept { return served_.load(); }
  /// Total bytes written to client sockets (headers + bodies, all
  /// connections). The relay bench's origin-egress measurement.
  std::uint64_t bytes_sent() const noexcept { return bytes_sent_.load(); }
  /// Connections accepted with a 503 (connection cap / fd exhaustion).
  std::uint64_t connections_rejected() const noexcept {
    return rejected_.load();
  }
  /// Connections currently open (reading, handling, or parked async).
  std::size_t connections_open() const noexcept {
    return connections_open_.load();
  }

  /// Idle read deadline: a connection that receives no bytes for this long
  /// is closed, whether it is between requests, trickling a partial request
  /// (slow-loris), or waiting on an async response. The application derives
  /// this from its route configuration (see AjaxFrontEnd) so a legal
  /// long-poll wait is never killed mid-poll; call before start().
  void set_idle_read_timeout(double seconds);
  double idle_read_timeout_s() const noexcept { return read_timeout_s_; }

  /// Handler worker-pool size (the only thread count that scales with
  /// load; connections never get threads). Call before start().
  void set_workers(std::size_t workers);
  std::size_t workers() const noexcept { return workers_; }

  /// Accepted-connection cap: connections beyond it receive 503 and are
  /// closed immediately. Call before start(). With several reactors the
  /// cap is enforced against a shared atomic count, so a simultaneous
  /// accept burst on two reactors can overshoot it by a few connections.
  void set_max_connections(std::size_t max_connections);

  /// Reactor thread count (call before start()). With n > 1 the wire path
  /// shards: every reactor accepts on its own SO_REUSEPORT listener (the
  /// kernel balances new connections across them) and *owns* the
  /// connections it accepted — their buffers, timers, and epoll
  /// registration all live on that loop thread, and completions from
  /// elsewhere post to the connection's home reactor. No cross-reactor
  /// locking anywhere on the wire path.
  void set_reactors(std::size_t n);
  std::size_t reactor_count() const noexcept { return reactors_.size(); }

  /// Fix SO_SNDBUF on every accepted connection (0 = kernel default with
  /// autotuning). Bounding the kernel's send backlog makes write-side
  /// backpressure from a slow consumer surface after `bytes` of queued
  /// data instead of after megabytes of autotuned buffering — which is
  /// what lets the per-session pacing meters react within a few frames.
  /// Call before start().
  void set_sndbuf(int bytes);

  /// The *primary* event loop (reactor 0). Valid for the server's
  /// lifetime; loop threads run between start() and stop(). Exposed so
  /// co-located subsystems (FrameHub sweeps and completions) run on a
  /// server loop instead of spawning threads of their own.
  net::Reactor& reactor() noexcept { return reactors_.reactor(0); }

 private:
  struct Connection;
  struct Shard;
  friend struct AsyncReply;
  friend struct StreamReply;

  struct AcceptHandler : net::EventHandler {
    Shard* shard = nullptr;
    void on_event(std::uint32_t events) override;
  };

  // All of the following run on the owning shard's loop thread only.
  void on_acceptable(Shard* shard);
  void adopt_connection(Shard* shard, net::Socket sock, std::string peer);
  void reject_with_503(Shard* shard, net::Socket socket);
  void conn_event(Connection* conn, std::uint32_t events);
  void finish_after_eof(const std::shared_ptr<Connection>& conn);
  net::Reactor::Clock::time_point read_deadline_from_now() const;
  void try_dispatch(const std::shared_ptr<Connection>& conn);
  void dispatch(const std::shared_ptr<Connection>& conn, HttpRequest request);
  void enqueue_response(const std::shared_ptr<Connection>& conn,
                        HttpResponse response, bool keep_alive,
                        bool suppress_body,
                        std::function<void()> drained = nullptr);
  void begin_stream(const std::shared_ptr<Connection>& conn,
                    const std::shared_ptr<StreamReply>& reply, int status,
                    const std::map<std::string, std::string>& headers);
  void stream_chunk(const std::shared_ptr<StreamReply>& reply,
                    net::BufferChain payload, std::function<void()> drained);
  void end_stream(const std::shared_ptr<StreamReply>& reply);
  void continue_write(const std::shared_ptr<Connection>& conn);
  void update_events(const std::shared_ptr<Connection>& conn);
  void arm_idle_timer(const std::shared_ptr<Connection>& conn);
  void close_conn(const std::shared_ptr<Connection>& conn);

  std::map<std::pair<std::string, std::string>, Handler> exact_;
  std::map<std::pair<std::string, std::string>, AsyncHandler> async_;
  std::map<std::pair<std::string, std::string>, StreamHandler> stream_;
  std::vector<std::tuple<std::string, std::string, Handler>> prefix_;
  std::mutex routes_mutex_;

  /// The event loops. Reactor 0 exists from construction (pre-start timer
  /// registration); set_reactors() grows the pool before start().
  net::ReactorPool reactors_;
  /// Per-reactor accept/connection state; built at start(), stable
  /// addresses for the server's lifetime (Connections point into it).
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<util::ThreadPool> pool_;
  int sndbuf_ = 0;

  int port_ = 0;
  double read_timeout_s_ = 30.0;
  std::size_t workers_ = 4;
  std::size_t max_connections_ = 8192;
  bool started_ = false;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::size_t> connections_open_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
};

/// Client-side failure with the phase it happened in: callers that retry
/// (the relay subscriber, the bench fleet) treat a refused connect or a
/// broken exchange as transient but a malformed response as fatal. Derives
/// from std::runtime_error, so existing catch sites keep working.
class HttpError : public std::runtime_error {
 public:
  enum class Kind {
    kConnect,   // could not establish the connection
    kIo,        // send/recv failed or the peer vanished mid-response
    kProtocol,  // response arrived but could not be parsed
  };
  HttpError(Kind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}
  Kind kind() const noexcept { return kind_; }

 private:
  Kind kind_;
};

/// Incremental HTTP/1.1 response decoder. Append received bytes to
/// buffer() (net::Socket::read_some's target), then call next() until it
/// returns kNeedMore. Framing is strict: a status line "HTTP/1.x NNN",
/// header fields parsed as requests' are (two different Content-Length
/// values refused), and a body delimited by exactly one of a digits-only
/// Content-Length or `Transfer-Encoding: chunked` — hex chunk sizes with an
/// optional `;extension`, chunk data closed by CRLF, no trailers. Answers
/// to HEAD and 1xx, 204 and 304 responses have no body; any other response
/// without a length is refused. The header block is capped at 1 MiB and
/// each body or chunk at 64 MiB; a stream's total length is unbounded.
class ResponseDecoder {
 public:
  enum class Event {
    kHead,      // status() and headers() describe the new response
    kData,      // take_data(): a whole Content-Length body, or one chunk
    kDone,      // the response ended; leftover bytes start the next one
    kBad,       // framing error, error() says why; sticky until reset()
    kNeedMore,  // append more bytes to buffer()
  };

  std::string& buffer() noexcept { return buffer_; }
  Event next();
  int status() const noexcept { return status_; }
  /// Lower-cased names; valid from kHead until the next response's kHead.
  const std::map<std::string, std::string>& headers() const noexcept {
    return headers_;
  }
  std::string take_data() { return std::move(data_); }
  const std::string& error() const noexcept { return error_; }
  /// False when the response carries `Connection: close`.
  bool keep_alive() const;
  /// The next response answers a HEAD request, so it carries no body.
  void expect_head() noexcept { head_request_ = true; }
  /// Drop every buffered byte and all state: a new connection.
  void reset() { *this = ResponseDecoder(); }

 private:
  enum class State { kHead, kBody, kChunkSize, kChunkData, kEnd, kBad };
  Event parse_head(std::string_view head);
  Event fail(const char* why);

  std::string buffer_;
  std::size_t pos_ = 0;  // first byte of buffer_ not yet decoded
  /// Bytes from pos_ searched for the end of the header block in vain.
  std::size_t scanned_ = 0;
  State state_ = State::kHead;
  bool head_request_ = false;
  int status_ = 0;
  std::map<std::string, std::string> headers_;
  std::size_t left_ = 0;  // length of the pending body or chunk
  std::string data_;
  std::string error_;
};

/// Splits the de-chunked payload of an event stream into Server-Sent
/// Events: the text before each blank line. Its `id: ` and `data: ` lines
/// are kept (the last data line wins); a line starting with ':' marks a
/// comment, such as the server's keepalive. An unterminated event longer
/// than 64 MiB is refused.
class SseSplitter {
 public:
  struct Event {
    std::string id;
    std::string data;
    bool comment = false;
  };
  enum class Result { kEvent, kNeedMore, kBad };

  void feed(std::string payload);
  Result next(Event& out);
  void reset() { *this = SseSplitter(); }

 private:
  std::string buffer_;
  std::size_t pos_ = 0;  // first byte of buffer_ not yet split off
  /// Bytes from pos_ searched for the end of the event in vain.
  std::size_t scanned_ = 0;
};

/// Blocking HTTP/1.1 client. Keeps its connection alive across requests
/// (reconnecting transparently when the server closed it), so a long-poll
/// loop costs one TCP connection total instead of one per poll.
class HttpClient {
 public:
  explicit HttpClient(int port) : port_(port) {}
  ~HttpClient();
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;
  HttpClient(HttpClient&& other) noexcept;

  struct Response {
    int status = 0;
    std::map<std::string, std::string> headers;
    std::string body;
  };

  /// Throws HttpError (an std::runtime_error) on connect/IO failure,
  /// timeout or a malformed response; kind() says which phase failed.
  Response get(const std::string& path_and_query, double timeout_s = 30.0);
  Response post(const std::string& path, const std::string& body,
                const std::string& content_type = "application/json",
                double timeout_s = 30.0);

  /// Capped-exponential retry schedule for transient failures: refused
  /// connects, broken exchanges, and 503 responses. A 503 carrying a
  /// fully numeric Retry-After is honored (capped at max_backoff_s); one
  /// without it — including the HTTP-date form, which is not parsed —
  /// falls back to the schedule. Protocol errors never retry.
  struct RetryPolicy {
    int max_attempts = 4;  // total attempts, including the first
    double initial_backoff_s = 0.05;
    double max_backoff_s = 1.0;
  };
  /// get()/post() wrapped in the retry schedule. Returns the final
  /// response (which may still be a 503 when attempts ran out); throws the
  /// last HttpError when every attempt failed below HTTP.
  Response get_with_retry(const std::string& path_and_query,
                          const RetryPolicy& policy, double timeout_s = 30.0);
  Response post_with_retry(const std::string& path, const std::string& body,
                           const RetryPolicy& policy,
                           const std::string& content_type = "application/json",
                           double timeout_s = 30.0);
  void close();
  int reconnects() const noexcept { return reconnects_; }

  /// Raw request exchange (a text starting with "HEAD " expects no body).
  Response exchange(const std::string& request_text, double timeout_s,
                    bool retry_on_stale);

 private:
  void ensure_connected(double timeout_s);

  int port_ = 0;
  int fd_ = -1;
  int reconnects_ = -1;      // first connect is not a reconnect
  ResponseDecoder decoder_;  // holds bytes read past the previous response
};

/// One-shot helpers (Connection: close) for tests and simple tooling.
HttpClient::Response http_get(int port, const std::string& path_and_query,
                              double timeout_s = 10.0);
HttpClient::Response http_post(
    int port, const std::string& path, const std::string& body,
    const std::string& content_type = "application/json",
    double timeout_s = 10.0);

std::string url_decode(const std::string& text);

namespace detail {
/// Append one HTTP/1.1 chunk (hex size line, payload, CRLF) to `out`.
/// Empty payloads are dropped: a zero-length chunk is the stream
/// terminator on the wire, which only append_last_chunk may emit.
void append_chunk(std::string& out, const std::string& payload);
/// Append the terminal zero-length chunk ("0\r\n\r\n", no trailers).
void append_last_chunk(std::string& out);
/// Serialize `response` onto a connection's buffer chain: one small copied
/// header block, then the body as its own segment — shared (zero-copy)
/// when the response carries a shared_body, moved into a refcounted
/// segment otherwise. Header and body are never concatenated into a fresh
/// string. HEAD (suppress_body) keeps the suppressed body's Content-Length
/// and appends zero body segments.
void append_response_chain(net::BufferChain& out, HttpResponse response,
                           bool keep_alive, bool suppress_body);
/// send() loop for *blocking* sockets (HttpClient and tests): retries EINTR
/// (a signal is not a dead peer) and keeps writing across send-timeout
/// expiries (EAGAIN under SO_SNDTIMEO) as long as the peer keeps accepting
/// bytes — only a full timeout with zero progress drops the connection.
/// The reactor server does not use this; its writes are readiness-driven.
bool write_all(int fd, const char* data, std::size_t n);

enum class ParseResult { kOk, kNeedMore, kBad, kNotImplemented };
/// Parse one untrusted request off the front of `buffer`: kOk consumes it,
/// kNeedMore leaves the buffer intact, kNotImplemented means the request
/// carries Transfer-Encoding. `scanned`, kept by the buffer's owner (0 for
/// a new or emptied buffer), is how far earlier calls searched for the end
/// of the header block; the search resumes three bytes before it, so a
/// head arriving in many small reads costs linear time.
ParseResult parse_request(std::string& buffer, HttpRequest& out,
                          std::size_t& scanned);
/// One call on a buffer that no earlier call has searched.
inline ParseResult parse_request(std::string& buffer, HttpRequest& out) {
  std::size_t scanned = 0;
  return parse_request(buffer, out, scanned);
}
}  // namespace detail

}  // namespace ricsa::web
