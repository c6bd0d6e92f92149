#include "web/http.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "util/strings.hpp"

namespace ricsa::web {

namespace detail {

bool write_all(int fd, const char* data, std::size_t n) {
  std::size_t sent = 0;
  bool stalled = false;  // hit a send timeout with no progress since
  int timeouts = 0;      // total SO_SNDTIMEO expiries for this response
  while (sent < n) {
    const ssize_t w = ::send(fd, data + sent, n - sent, MSG_NOSIGNAL);
    if (w > 0) {
      sent += static_cast<std::size_t>(w);
      stalled = false;
      continue;
    }
    if (w < 0 && errno == EINTR) continue;  // a signal is not a dead peer
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // SO_SNDTIMEO expired. One retry after progress keeps a slow-but-
      // steady consumer alive; a second consecutive timeout with zero
      // bytes accepted means the peer is gone. The total budget is capped
      // so a peer trickling one byte per timeout window cannot pin the
      // calling thread forever.
      if (stalled || ++timeouts > 2) return false;
      stalled = true;
      continue;
    }
    return false;
  }
  return true;
}

void append_chunk(std::string& out, const std::string& payload) {
  if (payload.empty()) return;  // "0\r\n" would terminate the stream
  char size_line[32];
  const int n = std::snprintf(size_line, sizeof(size_line), "%zx\r\n",
                              payload.size());
  out.append(size_line, static_cast<std::size_t>(n));
  out += payload;
  out += "\r\n";
}

void append_last_chunk(std::string& out) { out += "0\r\n\r\n"; }

}  // namespace detail

namespace {

using detail::ParseResult;
using detail::write_all;

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 206: return "Partial Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 416: return "Range Not Satisfiable";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

/// Strict digits-only Content-Length parse. A malformed header from a
/// remote peer must reject the request, never throw.
bool parse_content_length(const std::string& text, std::size_t& out) {
  if (text.empty() || text.size() > 12) return false;
  std::size_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::size_t>(c - '0');
  }
  out = value;
  return true;
}

constexpr std::size_t kMaxHeaderBytes = 1u << 20;
/// A request body, like its header block, is capped at 1 MiB: handlers
/// parse it on the reactor. Responses keep the larger kMaxBodyBytes,
/// which relayed frames need.
constexpr std::size_t kMaxRequestBodyBytes = 1u << 20;
constexpr std::size_t kMaxBodyBytes = 64u << 20;
/// Bytes a client may pipeline behind an in-flight response before the
/// connection is dropped (nothing is parsed while a response is pending,
/// so this is the only bound on that buffer).
constexpr std::size_t kMaxPipelinedBytes = 1u << 20;
/// Ceiling on unsent bytes queued to a streaming connection. A producer
/// honoring the drained callback stays far below this; hitting it means
/// the producer ignores backpressure while the consumer is effectively
/// dead, and the connection is dropped rather than growing without bound.
constexpr std::size_t kMaxStreamBuffered = 16u << 20;

/// iovec batch per sendmsg. Far above a typical response's segment count
/// (header + body = 2); a long streaming backlog just loops.
constexpr int kMaxWriteIov = 64;

bool is_known_method(const std::string& method) {
  static const std::set<std::string> kKnown = {
      "GET", "HEAD", "POST", "PUT", "DELETE", "OPTIONS", "PATCH", "TRACE"};
  return kKnown.count(method) > 0;
}

/// A chunk-size line longer than this is not one our servers send.
constexpr std::size_t kMaxChunkLine = 256;

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// Pop the first line off `text`. Lines end at '\n' with one trailing
/// '\r' dropped, in requests and responses alike.
std::string_view take_line(std::string_view& text) {
  const std::size_t nl = text.find('\n');
  std::string_view line = text.substr(0, nl);
  text = nl == std::string_view::npos ? std::string_view()
                                      : text.substr(nl + 1);
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

/// The header fields of a request or a response: lower-cased names,
/// trimmed values, the last of repeated fields kept; a line without a
/// colon is skipped. False when the head is refused: two different
/// Content-Length values leave the body's end ambiguous.
bool parse_header_fields(std::string_view fields,
                         std::map<std::string, std::string>& out) {
  while (!fields.empty()) {
    const std::string_view line = take_line(fields);
    const auto colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    std::string key = util::to_lower(util::trim(line.substr(0, colon)));
    std::string value(util::trim(line.substr(colon + 1)));
    const auto it = out.find(key);
    if (it == out.end()) {
      out.emplace(std::move(key), std::move(value));
    } else if (key == "content-length" && it->second != value) {
      return false;
    } else {
      it->second = std::move(value);
    }
  }
  return true;
}

/// The body length a head announces: 0 without Content-Length. False when
/// the field is not digits-only or exceeds kMaxBodyBytes.
bool content_length_of(const std::map<std::string, std::string>& headers,
                       std::size_t& out) {
  out = 0;
  const auto it = headers.find("content-length");
  return it == headers.end() ||
         (parse_content_length(it->second, out) && out <= kMaxBodyBytes);
}

}  // namespace

namespace detail {

ParseResult parse_request(std::string& buffer, HttpRequest& out,
                          std::size_t& scanned) {
  // A terminator that ends past `scanned` may start in its last 3 bytes.
  const std::size_t header_end =
      buffer.find("\r\n\r\n", scanned > 3 ? scanned - 3 : 0);
  if (header_end == std::string::npos) {
    scanned = buffer.size();
    return buffer.size() > kMaxHeaderBytes ? ParseResult::kBad
                                           : ParseResult::kNeedMore;
  }
  scanned = header_end;
  if (header_end > kMaxHeaderBytes) return ParseResult::kBad;

  std::string_view fields(buffer.data(), header_end);
  {
    std::istringstream first{std::string(take_line(fields))};
    std::string target, version;
    if (!(first >> out.method >> target >> version)) return ParseResult::kBad;
    const auto q = target.find('?');
    if (q == std::string::npos) {
      out.path = target;
    } else {
      out.path = target.substr(0, q);
      out.query = target.substr(q + 1);
    }
  }
  if (!parse_header_fields(fields, out.headers)) return ParseResult::kBad;
  // Only Content-Length delimits a body here. A chunked (or otherwise
  // transfer-coded) body would be misread as the next request.
  if (out.headers.count("transfer-encoding") != 0) {
    return ParseResult::kNotImplemented;
  }

  std::size_t content_length = 0;
  if (!content_length_of(out.headers, content_length) ||
      content_length > kMaxRequestBodyBytes) {
    return ParseResult::kBad;
  }
  const std::size_t total = header_end + 4 + content_length;
  if (buffer.size() < total) return ParseResult::kNeedMore;
  out.body = buffer.substr(header_end + 4, content_length);
  buffer.erase(0, total);
  scanned = 0;
  return ParseResult::kOk;
}

void append_response_chain(net::BufferChain& out, HttpResponse response,
                           bool keep_alive, bool suppress_body) {
  std::string head = util::strprintf(
      "HTTP/1.1 %d %s\r\nContent-Length: %zu\r\nConnection: %s\r\n",
      response.status, status_text(response.status), response.body_size(),
      keep_alive ? "keep-alive" : "close");
  for (const auto& [key, value] : response.headers) {
    head += key + ": " + value + "\r\n";
  }
  head += "\r\n";
  out.append_copy(head);
  if (suppress_body) return;  // HEAD: zero body segments
  if (response.shared_body) {
    out.append_shared(std::move(response.shared_body));
  } else if (!response.body.empty()) {
    out.append_shared(
        std::make_shared<const std::string>(std::move(response.body)));
  }
}

}  // namespace detail

// ----------------------------------------------------- response decoding --

ResponseDecoder::Event ResponseDecoder::next() {
  const std::size_t avail = buffer_.size() - pos_;
  switch (state_) {
    case State::kBad:
      return Event::kBad;
    case State::kHead: {
      // Unterminated, the block may still end in its last three bytes, so
      // the next search resumes there.
      const std::size_t end = buffer_.find(
          "\r\n\r\n", pos_ + (scanned_ > 3 ? scanned_ - 3 : 0));
      if (end == std::string::npos ? avail > kMaxHeaderBytes + 3
                                   : end - pos_ > kMaxHeaderBytes) {
        return fail("header block too large");
      }
      if (end == std::string::npos) {
        scanned_ = avail;
        break;
      }
      scanned_ = 0;
      const std::string_view head(buffer_.data() + pos_, end - pos_);
      pos_ = end + 4;
      return parse_head(head);
    }
    case State::kBody:
      if (avail < left_) break;
      data_.assign(buffer_, pos_, left_);
      pos_ += left_;
      state_ = State::kEnd;
      return Event::kData;
    case State::kChunkSize: {
      const std::size_t eol = buffer_.find("\r\n", pos_);
      if (eol == std::string::npos ? avail > kMaxChunkLine + 1
                                   : eol - pos_ > kMaxChunkLine) {
        return fail("chunk size line too long");
      }
      if (eol == std::string::npos) break;
      std::size_t size = 0;
      std::size_t i = pos_;
      for (int digit; i < eol && (digit = hex_value(buffer_[i])) >= 0; ++i) {
        size = size * 16 + static_cast<std::size_t>(digit);
        if (size > kMaxBodyBytes) return fail("chunk too large");
      }
      if (i == pos_ || (i < eol && buffer_[i] != ';')) {
        return fail("bad chunk size");
      }
      if (size == 0) {
        // The last chunk: a blank line must follow, no trailer fields.
        if (buffer_.size() < eol + 4) break;
        if (buffer_.compare(eol + 2, 2, "\r\n") != 0) {
          return fail("trailer after the last chunk");
        }
        pos_ = eol + 4;
        state_ = State::kEnd;
        return next();
      }
      pos_ = eol + 2;
      left_ = size;
      state_ = State::kChunkData;
      return next();
    }
    case State::kChunkData:
      if (avail < left_ + 2) break;
      if (buffer_.compare(pos_ + left_, 2, "\r\n") != 0) {
        return fail("chunk data not followed by CRLF");
      }
      data_.assign(buffer_, pos_, left_);
      pos_ += left_ + 2;
      state_ = State::kChunkSize;
      return Event::kData;
    case State::kEnd:
      buffer_.erase(0, pos_);
      pos_ = 0;
      state_ = State::kHead;
      head_request_ = false;
      return Event::kDone;
  }
  // Decoded bytes leave the buffer here and when a response ends — never
  // once per chunk, which would move a pipelined burst once per event.
  buffer_.erase(0, pos_);
  pos_ = 0;
  return Event::kNeedMore;
}

ResponseDecoder::Event ResponseDecoder::parse_head(std::string_view head) {
  // "HTTP/1.x NNN", then the end of the line or a space and a reason.
  const std::string_view line = take_line(head);
  if (line.size() < 12 || line.compare(0, 7, "HTTP/1.") != 0 ||
      !is_digit(line[7]) || line[8] != ' ' || !is_digit(line[9]) ||
      !is_digit(line[10]) || !is_digit(line[11]) ||
      (line.size() > 12 && line[12] != ' ')) {
    return fail("bad status line");
  }
  status_ = (line[9] - '0') * 100 + (line[10] - '0') * 10 + (line[11] - '0');
  headers_.clear();
  if (!parse_header_fields(head, headers_)) return fail("conflicting lengths");
  std::size_t length = 0;
  if (!content_length_of(headers_, length)) return fail("bad Content-Length");
  const bool has_length = headers_.count("content-length") != 0;
  const auto coding = headers_.find("transfer-encoding");
  const bool chunked = coding != headers_.end();
  if (chunked && (!util::iequals(coding->second, "chunked") || has_length)) {
    return fail("bad Transfer-Encoding");
  }
  if (head_request_ || status_ < 200 || status_ == 204 || status_ == 304) {
    state_ = State::kEnd;
  } else if (chunked) {
    state_ = State::kChunkSize;
  } else if (has_length) {
    left_ = length;
    state_ = length > 0 ? State::kBody : State::kEnd;
  } else {
    return fail("no Content-Length or chunked framing");
  }
  return Event::kHead;
}

ResponseDecoder::Event ResponseDecoder::fail(const char* why) {
  state_ = State::kBad;
  error_ = why;
  return Event::kBad;
}

bool ResponseDecoder::keep_alive() const {
  const auto it = headers_.find("connection");
  return it == headers_.end() || !util::iequals(it->second, "close");
}

void SseSplitter::feed(std::string payload) {
  // The usual case, one event per chunk, moves the payload in; the rest
  // of an unfinished event grows in place.
  if (pos_ == buffer_.size()) {
    buffer_ = std::move(payload);
    pos_ = 0;
    scanned_ = 0;
  } else {
    buffer_.append(payload);
  }
}

SseSplitter::Result SseSplitter::next(Event& out) {
  // Resume the search for the blank line one byte before the last one
  // ended, so an event arriving in small payloads is scanned once.
  const std::size_t end =
      buffer_.find("\n\n", pos_ + (scanned_ > 0 ? scanned_ - 1 : 0));
  if (end == std::string::npos) {
    buffer_.erase(0, pos_);
    pos_ = 0;
    scanned_ = buffer_.size();
    return buffer_.size() > kMaxBodyBytes ? Result::kBad : Result::kNeedMore;
  }
  if (end - pos_ > kMaxBodyBytes) return Result::kBad;
  std::string_view block(buffer_.data() + pos_, end - pos_);
  pos_ = end + 2;
  scanned_ = 0;
  out = Event();
  while (!block.empty()) {
    const std::string_view line = take_line(block);
    if (util::starts_with(line, "data: ")) out.data.assign(line.substr(6));
    if (util::starts_with(line, "id: ")) out.id.assign(line.substr(4));
    if (util::starts_with(line, ":")) out.comment = true;
  }
  return Result::kEvent;
}

std::string url_decode(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '%' && i + 2 < text.size()) {
      const int hi = hex_value(text[i + 1]), lo = hex_value(text[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>(hi * 16 + lo));
        i += 2;
        continue;
      }
    }
    out.push_back(text[i] == '+' ? ' ' : text[i]);
  }
  return out;
}

std::string HttpRequest::query_param(const std::string& key,
                                     const std::string& fallback) const {
  for (const std::string& pair : util::split(query, '&')) {
    if (pair.empty()) continue;
    const auto eq = pair.find('=');
    // Decode before comparing: %66ull=1 names the parameter "full". A
    // valueless key (?foo&bar=1) is present with the empty value, not
    // absent — and never its own name as the value.
    const std::string name =
        url_decode(eq == std::string::npos ? pair : pair.substr(0, eq));
    if (name != key) continue;
    return eq == std::string::npos ? std::string()
                                   : url_decode(pair.substr(eq + 1));
  }
  return fallback;
}

HttpResponse HttpResponse::text(std::string body, int status) {
  HttpResponse r;
  r.status = status;
  r.headers["Content-Type"] = "text/plain; charset=utf-8";
  r.body = std::move(body);
  return r;
}

HttpResponse HttpResponse::json(std::string body, int status) {
  HttpResponse r;
  r.status = status;
  r.headers["Content-Type"] = "application/json";
  r.body = std::move(body);
  return r;
}

HttpResponse HttpResponse::json_shared(std::shared_ptr<const std::string> body,
                                       int status) {
  HttpResponse r;
  r.status = status;
  r.headers["Content-Type"] = "application/json";
  r.shared_body = std::move(body);
  return r;
}

HttpResponse HttpResponse::html(std::string body) {
  HttpResponse r;
  r.headers["Content-Type"] = "text/html; charset=utf-8";
  r.body = std::move(body);
  return r;
}

HttpResponse HttpResponse::binary(std::vector<std::uint8_t> bytes,
                                  std::string content_type) {
  HttpResponse r;
  r.headers["Content-Type"] = std::move(content_type);
  r.body.assign(bytes.begin(), bytes.end());
  return r;
}

HttpResponse HttpResponse::not_found() { return text("not found", 404); }
HttpResponse HttpResponse::bad_request(const std::string& why) {
  return text("bad request: " + why, 400);
}

// ---------------------------------------------------------------- server --

/// One client connection: a state machine advanced by the reactor. All
/// fields are loop-thread-only; completions from other threads (async and
/// stream sinks) re-enter via Reactor::post. The fd closes with
/// the object, so a sink holding a weak_ptr can never write into a reused
/// descriptor.
struct HttpServer::Connection : net::EventHandler,
                                std::enable_shared_from_this<Connection> {
  HttpServer* server = nullptr;
  /// Home shard: the reactor that accepted (or adopted) this connection
  /// owns it exclusively — buffers, timers, epoll registration. Never
  /// changes after adoption.
  Shard* shard = nullptr;
  net::Socket sock;
  std::string peer;     // remote "ip:port", fixed at accept
  std::string in;       // received bytes not yet parsed (pipelining-safe)
  /// Bytes of `in` parse_request has searched for a header terminator.
  std::size_t in_scanned = 0;
  /// Unsent response bytes: refcounted segments (copied header blocks,
  /// shared frame bodies, chunk framing) gathered into writev.
  net::BufferChain out;
  std::uint32_t events = EPOLLIN | EPOLLRDHUP;
  /// A handler or async sink is outstanding for the current request; the
  /// next pipelined request is not parsed until its response is enqueued,
  /// which keeps responses in request order.
  bool response_pending = false;
  bool close_after_write = false;
  bool closed = false;
  /// Peer half-closed its write side (EOF/EPOLLRDHUP). Requests already
  /// received are still served — a request-then-FIN client is legal HTTP —
  /// and the connection closes once the last response has drained.
  bool peer_eof = false;
  /// Re-entrancy guard: an inline response (a sync handler's, a 404/405)
  /// re-enters try_dispatch via enqueue_response; the outer parse loop
  /// continues instead of recursing once per pipelined request.
  bool dispatching = false;
  /// Streaming (chunked) response in progress: the connection never
  /// returns to request parsing. Further received bytes are drained and
  /// discarded, the idle read deadline is retired (an SSE subscriber
  /// legally sends nothing for hours), and the stream ends by closing.
  bool streaming = false;
  /// The stream's producer handle state; close paths mark it dead so the
  /// producer stops. Set together with `streaming`.
  std::shared_ptr<StreamReply> stream;
  /// One-shot callback fired when `out` fully drains to the socket — the
  /// streaming producer's cue to build the next chunk (TCP backpressure).
  std::function<void()> on_drain;
  /// Closes when no bytes arrive by this instant — covers idle keep-alive
  /// gaps, slow-loris partial requests, and clients gone mid-long-poll.
  net::Reactor::Clock::time_point read_deadline{};
  std::uint64_t idle_timer = 0;

  void on_event(std::uint32_t ev) override { server->conn_event(this, ev); }
};

/// Per-reactor slice of the server: the listener (when this shard
/// accepts), the connections this reactor owns, and the EMFILE reserve
/// descriptor. Everything here except `reactor` itself is touched only on
/// the shard's loop thread.
struct HttpServer::Shard {
  HttpServer* server = nullptr;
  std::size_t index = 0;
  std::shared_ptr<net::Reactor> reactor;
  AcceptHandler accept_handler;
  net::Socket listen;  // closed at stop(), or when its watch failed
  /// Reserve descriptor: on EMFILE it is closed so the offending
  /// connection can still be accepted, told 503, and closed — instead of
  /// the listener spinning on an un-acceptable backlog.
  int reserve_fd = -1;
  /// Open connections owned by this reactor, keyed by fd.
  std::unordered_map<int, std::shared_ptr<Connection>> conns;
};

/// Shared state of one in-flight async response. Holds the reactor (not
/// the server's loop thread) alive so a sink fired after stop() still has
/// a queue to post into — the task is then simply never run.
struct AsyncReply {
  std::shared_ptr<net::Reactor> reactor;
  HttpServer* server = nullptr;
  std::weak_ptr<HttpServer::Connection> conn;
  bool keep_alive = true;
  bool suppress_body = false;
  std::atomic<bool> written{false};
};

void HttpServer::ResponseSink::operator()(const HttpResponse& response) const {
  (*this)(response, nullptr);
}

void HttpServer::ResponseSink::operator()(
    const HttpResponse& response, std::function<void()> drained) const {
  if (!reply_) return;
  AsyncReply& r = *reply_;
  if (r.written.exchange(true)) return;
  // The completion becomes a task on the connection's reactor:
  // serialization and the actual write happen on the loop thread where the
  // connection state lives, driven by write readiness from there on.
  r.reactor->post([server = r.server, conn = r.conn, keep_alive = r.keep_alive,
                   suppress = r.suppress_body, response,
                   drained = std::move(drained)]() mutable {
    if (const auto c = conn.lock()) {
      server->enqueue_response(c, std::move(response), keep_alive, suppress,
                               std::move(drained));
    }
  });
}

/// Shared state of one streaming response. Like AsyncReply it holds the
/// reactor alive so a producer firing after stop() posts into a drained
/// queue instead of a destroyed one. `dead` flows loop→producer only: any
/// close path sets it, and the producer reads it through alive()/chunk().
struct StreamReply {
  std::shared_ptr<net::Reactor> reactor;
  HttpServer* server = nullptr;
  std::weak_ptr<HttpServer::Connection> conn;
  bool head = false;  // HEAD request: begin() answers headers and closes
  std::atomic<bool> begun{false};
  std::atomic<bool> ended{false};
  std::atomic<bool> dead{false};
};

void HttpServer::StreamSink::begin(std::map<std::string, std::string> headers,
                                   int status) const {
  if (!reply_) return;
  StreamReply& r = *reply_;
  if (r.begun.exchange(true)) return;
  const bool posted =
      r.reactor->post([server = r.server, reply = reply_, status,
                       headers = std::move(headers)] {
        const auto c = reply->conn.lock();
        if (!c || c->closed) {
          reply->dead.store(true);
          return;
        }
        server->begin_stream(c, reply, status, headers);
      });
  // Reactor already drained (mid-shutdown): there is no loop to serve this
  // stream; mark it dead so alive()/chunk() refuse instead of the producer
  // spinning against a silently dropped task.
  if (!posted) r.dead.store(true);
}

bool HttpServer::StreamSink::chunk(std::string payload,
                                   std::function<void()> drained) const {
  net::BufferChain chain;
  if (!payload.empty()) {
    chain.append_shared(
        std::make_shared<const std::string>(std::move(payload)));
  }
  return chunk(std::move(chain), std::move(drained));
}

bool HttpServer::StreamSink::chunk(net::BufferChain payload,
                                   std::function<void()> drained) const {
  if (!reply_) return false;
  StreamReply& r = *reply_;
  if (r.dead.load() || r.ended.load() || !r.begun.load()) return false;
  const bool posted =
      r.reactor->post([server = r.server, reply = reply_,
                       payload = std::move(payload),
                       drained = std::move(drained)]() mutable {
        server->stream_chunk(reply, std::move(payload), std::move(drained));
      });
  if (!posted) {
    // The connection's home reactor exited (server stopping): the chunk
    // can never be written. Fail cleanly — dead, false — so the producer
    // stops instead of believing the chunk was queued.
    r.dead.store(true);
    return false;
  }
  return true;
}

void HttpServer::StreamSink::end() const {
  if (!reply_) return;
  StreamReply& r = *reply_;
  if (r.ended.exchange(true)) return;
  const bool posted = r.reactor->post(
      [server = r.server, reply = reply_] { server->end_stream(reply); });
  if (!posted) r.dead.store(true);
}

bool HttpServer::StreamSink::alive() const {
  return reply_ && !reply_->dead.load() && !reply_->ended.load();
}

bool HttpServer::StreamSink::head_only() const {
  return reply_ && reply_->head && reply_->begun.load();
}

HttpServer::HttpServer() = default;

HttpServer::~HttpServer() { stop(); }

void HttpServer::route(const std::string& method, const std::string& path,
                       Handler handler) {
  add_route(method, path, std::move(handler));
}

void HttpServer::route_async(const std::string& method, const std::string& path,
                             AsyncHandler handler) {
  add_route(method, path, std::move(handler));
}

void HttpServer::route_stream(const std::string& method,
                              const std::string& path, StreamHandler handler) {
  add_route(method, path, std::move(handler));
}

void HttpServer::add_route(const std::string& method, const std::string& path,
                           RouteHandler handler) {
  // The reactors read the table without a lock once they run.
  if (started_) throw std::logic_error("http: route added after start()");
  routes_[{method, path}] = std::move(handler);
}

void HttpServer::set_idle_read_timeout(double seconds) {
  if (seconds > 0.0) read_timeout_s_ = seconds;
}

void HttpServer::set_max_connections(std::size_t max_connections) {
  if (max_connections > 0) max_connections_ = max_connections;
}

void HttpServer::set_reactors(std::size_t n) {
  if (!started_) reactors_.resize(n);
}

void HttpServer::set_sndbuf(int bytes) {
  if (!started_ && bytes >= 0) sndbuf_ = bytes;
}

int HttpServer::start(int port) {
  if (started_) throw std::runtime_error("http: server cannot be restarted");
  started_ = true;
  const std::size_t n = reactors_.size();
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->server = this;
    shard->index = i;
    shard->reactor = reactors_.reactor_ptr(i);
    shard->accept_handler.shard = shard.get();
    shards_.push_back(std::move(shard));
  }
  // Every shard binds its own listener on the same port, with SO_REUSEPORT
  // when there are several (the option must be set on all of them,
  // including the first): the kernel spreads connections across the group.
  shards_[0]->listen = net::Socket::listen_loopback(port, 1024, n > 1);
  port_ = shards_[0]->listen.local_port();
  for (std::size_t i = 1; i < n; ++i) {
    shards_[i]->listen = net::Socket::listen_loopback(port_, 1024, true);
  }
  running_.store(true);
  for (const auto& owner : shards_) {
    Shard* shard = owner.get();
    shard->reserve_fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    shard->reactor->post([shard] {
      if (!shard->reactor->add(shard->listen.fd(), EPOLLIN,
                               &shard->accept_handler)) {
        // No watch for the listener means no acceptor on this shard: close
        // it so the REUSEPORT group stops routing connections here.
        shard->listen.close();
      }
    });
  }
  reactors_.start();
  return port_;
}

void HttpServer::stop() {
  if (!running_.exchange(false)) return;
  // Teardown runs where the state lives: each loop closes its listener and
  // its own connections, then stops itself (Reactor::run drains tasks
  // posted before stop, so these are guaranteed to execute).
  for (const auto& owner : shards_) {
    Shard* shard = owner.get();
    shard->reactor->post([this, shard] {
      if (shard->listen.valid()) {
        shard->reactor->remove(shard->listen.fd());
        shard->listen.close();
      }
      std::vector<std::shared_ptr<Connection>> open;
      open.reserve(shard->conns.size());
      for (const auto& [fd, conn] : shard->conns) open.push_back(conn);
      for (const auto& conn : open) close_conn(conn);
      shard->reactor->stop();
    });
  }
  reactors_.stop();  // joins every loop thread
  for (const auto& owner : shards_) {
    if (owner->reserve_fd >= 0) {
      ::close(owner->reserve_fd);
      owner->reserve_fd = -1;
    }
  }
}

void HttpServer::AcceptHandler::on_event(std::uint32_t) {
  shard->server->on_acceptable(shard);
}

net::Reactor::Clock::time_point HttpServer::read_deadline_from_now() const {
  return net::Reactor::Clock::now() +
         std::chrono::duration_cast<net::Reactor::Clock::duration>(
             std::chrono::duration<double>(read_timeout_s_));
}

void HttpServer::on_acceptable(Shard* shard) {
  for (;;) {
    net::Socket sock;
    std::string peer;
    int err = 0;
    const net::IoStatus status = shard->listen.accept(sock, peer, err);
    if (status == net::IoStatus::kWouldBlock) return;
    if (status == net::IoStatus::kError) {
      if (err == EMFILE || err == ENFILE) {
        // fd table exhausted. Release the reserve descriptor so the
        // connection can still be accepted, told 503, and closed — the
        // alternative is a backlog the listener can never drain.
        if (shard->reserve_fd >= 0) {
          ::close(shard->reserve_fd);
          shard->reserve_fd = -1;
        }
        if (shard->listen.accept(sock, peer, err) == net::IoStatus::kOk) {
          reject_with_503(shard, std::move(sock));
          shard->reserve_fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
          continue;
        }
        shard->reserve_fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
        return;  // still exhausted; level-triggered epoll will retry
      }
      if (err == ECONNABORTED || err == EINTR) continue;
      return;
    }
    // The cap reads the cross-shard counter: exact with one reactor,
    // approximate (racy by at most a few accepts) across many — an
    // admission limit, not an invariant.
    if (connections_open_.load() >= max_connections_) {
      reject_with_503(shard, std::move(sock));
      continue;
    }
    adopt_connection(shard, std::move(sock), std::move(peer));
  }
}

/// Register an accepted socket with the shard that accepted it, on that
/// shard's loop thread.
void HttpServer::adopt_connection(Shard* shard, net::Socket sock,
                                  std::string peer) {
  if (!running_.load()) return;  // raced with stop(); RAII closes the fd
  sock.set_send_buffer(sndbuf_);
  auto conn = std::make_shared<Connection>();
  conn->server = this;
  conn->shard = shard;
  conn->sock = std::move(sock);
  conn->peer = std::move(peer);
  conn->read_deadline = read_deadline_from_now();
  const int fd = conn->sock.fd();
  if (!shard->reactor->add(fd, conn->events, conn.get())) {
    // epoll watch exhaustion (fs.epoll.max_user_watches): the fd would
    // never receive events, so tell the client 503 instead of tracking
    // a connection that can only hang.
    reject_with_503(shard, std::move(conn->sock));
    return;
  }
  shard->conns[fd] = conn;
  connections_open_.fetch_add(1);
  arm_idle_timer(conn);
}

void HttpServer::reject_with_503(Shard* shard, net::Socket sock) {
  rejected_.fetch_add(1);
  net::BufferChain wire;
  detail::append_response_chain(
      wire, HttpResponse::text("service unavailable: connection limit", 503),
      /*keep_alive=*/false, /*suppress_body=*/false);
  struct iovec iov[kMaxWriteIov];
  std::size_t written = 0;
  sock.writev(iov, wire.fill_iov(iov, kMaxWriteIov), written);  // fits
  // Half-close instead of close: an immediate close() with the client's
  // request sitting unread in our receive buffer turns into an RST that
  // can destroy the 503 before the client reads it. The fd is closed
  // shortly after; under EMFILE pressure that delay is the price of the
  // client seeing an answer at all. The socket rides the timer closure as
  // a shared_ptr so server teardown (which destroys pending timers
  // without running them) still closes the fd via RAII.
  ::shutdown(sock.fd(), SHUT_WR);
  auto held = std::make_shared<net::Socket>(std::move(sock));
  shard->reactor->run_after(1.0, [held] { held->close(); });
}

void HttpServer::arm_idle_timer(const std::shared_ptr<Connection>& conn) {
  if (conn->closed || conn->idle_timer != 0) return;
  // One timer per connection, re-armed lazily: received bytes just move
  // read_deadline; the callback chases it instead of rescheduling per byte.
  conn->idle_timer = conn->shard->reactor->run_at(
      conn->read_deadline, [this, weak = std::weak_ptr<Connection>(conn)] {
        const auto c = weak.lock();
        if (!c || c->closed) return;
        c->idle_timer = 0;
        // A streaming subscriber legally sends nothing for the stream's
        // whole life; its death shows up as a write error or HUP instead.
        if (c->streaming) return;
        if (net::Reactor::Clock::now() >= c->read_deadline) {
          close_conn(c);
        } else {
          arm_idle_timer(c);
        }
      });
}

void HttpServer::close_conn(const std::shared_ptr<Connection>& conn) {
  if (conn->closed) return;
  conn->closed = true;
  if (conn->stream) {
    // Tell the producer its consumer is gone; the next chunk() refuses.
    conn->stream->dead.store(true);
    conn->stream.reset();
  }
  conn->on_drain = nullptr;
  if (conn->idle_timer != 0) {
    conn->shard->reactor->cancel(conn->idle_timer);
    conn->idle_timer = 0;
  }
  conn->shard->reactor->remove(conn->sock.fd());
  conn->shard->conns.erase(conn->sock.fd());
  conn->sock.close();
  connections_open_.fetch_sub(1);
}

void HttpServer::conn_event(Connection* raw, std::uint32_t events) {
  // Keep the connection alive across close_conn (which drops the registry
  // reference) for the rest of this dispatch.
  const std::shared_ptr<Connection> conn = raw->shared_from_this();
  if (conn->closed) return;
  if (events & EPOLLERR) {
    close_conn(conn);
    return;
  }
  if (events & EPOLLIN) {
    bool got_bytes = false;
    // Bounded burst so one firehose connection cannot starve the loop.
    for (int burst = 0; burst < 8; ++burst) {
      const net::IoStatus status = conn->sock.read_some(conn->in);
      if (status == net::IoStatus::kOk) {
        got_bytes = true;
        continue;
      }
      if (status == net::IoStatus::kWouldBlock) break;
      if (status == net::IoStatus::kEof) {
        // Half-close, not abandonment: a request-then-FIN client still
        // expects its responses. Serve what arrived, then close below.
        conn->peer_eof = true;
        break;
      }
      close_conn(conn);
      return;
    }
    if (got_bytes) {
      conn->read_deadline = read_deadline_from_now();
      if (conn->streaming || conn->close_after_write) {
        // A converted or closing connection never parses again: bytes
        // pipelined behind its last request are drained and discarded,
        // never interpreted as requests against a response channel that
        // no longer exists.
        conn->in.clear();
        conn->in_scanned = 0;
      } else if (!conn->response_pending) {
        try_dispatch(conn);
        if (conn->closed) return;
      } else if (conn->in.size() > kMaxPipelinedBytes) {
        close_conn(conn);  // flooding behind a parked response
        return;
      }
    }
  }
  // EPOLLRDHUP only wakes the loop; EOF itself is detected by recv()
  // returning 0 above, which guarantees every byte the peer sent before
  // its FIN has been drained first (level-triggered EPOLLIN re-fires
  // until then, so a burst-capped read never loses the tail).
  if (conn->peer_eof) {
    finish_after_eof(conn);
    if (conn->closed) return;
    // Drop read interest: an EOF'd fd stays readable under level-triggered
    // epoll and would spin the loop for as long as a response is pending.
    update_events(conn);
  }
  if (events & EPOLLHUP) {
    // Both directions gone: nothing can be delivered anymore.
    close_conn(conn);
    return;
  }
  if (events & EPOLLOUT) continue_write(conn);
}

/// Reconcile the epoll interest mask with the connection's state: reads
/// while the peer can still send, writes while output is queued.
void HttpServer::update_events(const std::shared_ptr<Connection>& conn) {
  if (conn->closed) return;
  std::uint32_t want = conn->peer_eof ? 0u : (EPOLLIN | EPOLLRDHUP);
  if (!conn->out.empty()) want |= EPOLLOUT;
  if (want != conn->events) {
    conn->events = want;
    conn->shard->reactor->modify(conn->sock.fd(), want);
  }
}

/// A half-closed peer sends no further requests: once nothing is in
/// flight, close as soon as the output buffer drains. Complete requests
/// already buffered keep being served first (try_dispatch runs before
/// this on every path that can make response_pending false).
void HttpServer::finish_after_eof(const std::shared_ptr<Connection>& conn) {
  if (conn->closed || !conn->peer_eof) return;
  if (conn->streaming) {
    // A streaming peer that half-closed is gone for our purposes: the only
    // traffic left flows our way, and EventSource aborts by closing.
    close_conn(conn);
    return;
  }
  if (conn->response_pending) return;
  if (conn->out.empty()) {
    close_conn(conn);
  } else {
    conn->close_after_write = true;
  }
}

void HttpServer::try_dispatch(const std::shared_ptr<Connection>& conn) {
  if (conn->dispatching) return;
  conn->dispatching = true;
  while (!conn->closed && !conn->response_pending && !conn->streaming &&
         !conn->close_after_write) {
    HttpRequest request;
    const ParseResult result =
        detail::parse_request(conn->in, request, conn->in_scanned);
    if (result == ParseResult::kNeedMore) break;
    if (result == ParseResult::kBad) {
      close_conn(conn);
      break;
    }
    if (result == ParseResult::kNotImplemented) {
      // The request's body cannot be delimited, so nothing after its
      // headers is parsed: answer 501 and close once it is written.
      conn->in.clear();
      conn->in_scanned = 0;
      enqueue_response(conn,
                       HttpResponse::text("transfer-encoding not supported",
                                          501),
                       /*keep_alive=*/false, /*suppress_body=*/false);
      break;
    }
    request.peer = conn->peer;
    conn->response_pending = true;
    dispatch(conn, std::move(request));
  }
  conn->dispatching = false;
  // Only now: a half-closed peer's pipelined requests are all answered or
  // pending, even those behind a response the loop wrote inline.
  finish_after_eof(conn);
}

void HttpServer::dispatch(const std::shared_ptr<Connection>& conn,
                          HttpRequest request) {
  const bool keep_alive =
      !util::iequals(request.headers.count("connection")
                         ? request.headers.at("connection")
                         : "keep-alive",
                     "close");
  const bool is_head = request.method == "HEAD";

  auto route = routes_.find({request.method, request.path});
  // HEAD falls back to the GET route with the body suppressed. For a
  // stream route the sink answers HEAD itself (headers, then close) — it
  // must never park a suppressed infinite body.
  if (route == routes_.end() && is_head) {
    route = routes_.find({"GET", request.path});
  }
  if (route == routes_.end()) {
    std::set<std::string> methods;  // the path's routes under other methods
    for (const auto& [key, handler] : routes_) {
      if (key.second == request.path) methods.insert(key.first);
    }
    if (methods.count("GET")) methods.insert("HEAD");
    std::string allow;
    for (const std::string& m : methods) {
      allow += (allow.empty() ? "" : ", ") + m;
    }
    HttpResponse response;
    if (!allow.empty()) {
      // The resource exists, the method is wrong (RFC 7231 §6.5.5).
      response = HttpResponse::text("method not allowed", 405);
      response.headers["Allow"] = allow;
    } else if (!is_known_method(request.method)) {
      // An unrecognized method is a method problem, not a missing page.
      response = HttpResponse::text("method not allowed", 405);
    } else {
      response = HttpResponse::not_found();
    }
    enqueue_response(conn, std::move(response), keep_alive, is_head);
    return;
  }

  // The handler runs here, on the connection's reactor.
  if (const auto* handler = std::get_if<StreamHandler>(&route->second)) {
    auto reply = std::make_shared<StreamReply>();
    reply->reactor = conn->shard->reactor;
    reply->server = this;
    reply->conn = conn;
    reply->head = is_head;
    StreamSink sink;
    sink.reply_ = std::move(reply);
    try {
      (*handler)(request, sink);
    } catch (const std::exception&) {
      // Best effort: an empty chunked 500 if the stream never began, a
      // truncating terminator if it did. begin() is a no-op once begun.
      sink.begin({{"Content-Type", "text/plain; charset=utf-8"}}, 500);
      sink.end();
    }
    return;
  }

  if (const auto* handler = std::get_if<AsyncHandler>(&route->second)) {
    auto reply = std::make_shared<AsyncReply>();
    reply->reactor = conn->shard->reactor;
    reply->server = this;
    reply->conn = conn;
    reply->keep_alive = keep_alive;
    reply->suppress_body = is_head;
    ResponseSink sink;
    sink.reply_ = std::move(reply);
    try {
      (*handler)(request, sink);
    } catch (const std::exception& e) {
      sink(HttpResponse::text(std::string("internal error: ") + e.what(),
                              500));
    }
    return;
  }

  HttpResponse response;
  try {
    response = std::get<Handler>(route->second)(request);
  } catch (const std::exception& e) {
    response =
        HttpResponse::text(std::string("internal error: ") + e.what(), 500);
  }
  enqueue_response(conn, std::move(response), keep_alive, is_head);
}

void HttpServer::enqueue_response(const std::shared_ptr<Connection>& conn,
                                  HttpResponse response, bool keep_alive,
                                  bool suppress_body,
                                  std::function<void()> drained) {
  if (conn->closed) return;
  detail::append_response_chain(conn->out, std::move(response), keep_alive,
                                suppress_body);
  served_.fetch_add(1);
  conn->response_pending = false;
  // Same latest-wins slot the streaming producers use; a non-stream
  // connection has at most one response in flight, so there is no contest.
  if (drained) conn->on_drain = std::move(drained);
  if (!keep_alive) conn->close_after_write = true;
  // The response window is over; the client gets a fresh full read timeout
  // for its next request (matches the old per-recv SO_RCVTIMEO behaviour).
  conn->read_deadline = read_deadline_from_now();
  continue_write(conn);
  // A pipelined request may already be buffered; its response will simply
  // append behind the bytes still draining.
  if (!conn->closed) try_dispatch(conn);
}

void HttpServer::begin_stream(
    const std::shared_ptr<Connection>& conn,
    const std::shared_ptr<StreamReply>& reply, int status,
    const std::map<std::string, std::string>& headers) {
  // The stream head: chunked framing delimits the body, so no
  // Content-Length; Connection: close because a converted connection
  // never parses another request — keep-alive would strand the client.
  std::string head = util::strprintf(
      "HTTP/1.1 %d %s\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n",
      status, status_text(status));
  for (const auto& [key, value] : headers) {
    head += key + ": " + value + "\r\n";
  }
  head += "\r\n";
  conn->out.append_copy(head);
  served_.fetch_add(1);
  conn->response_pending = false;
  if (reply->head) {
    // HEAD of a streaming resource: the headers it would carry, then
    // close. The producer sees head_only()/refused chunks and stops.
    reply->dead.store(true);
    conn->close_after_write = true;
    continue_write(conn);
    return;
  }
  conn->streaming = true;
  conn->stream = reply;
  // Bytes pipelined behind the converting request are discarded, never
  // parsed into a stream-mode connection (conn_event drains later ones).
  conn->in.clear();
  conn->in_scanned = 0;
  if (conn->idle_timer != 0) {
    conn->shard->reactor->cancel(conn->idle_timer);
    conn->idle_timer = 0;
  }
  continue_write(conn);
  // A peer that already half-closed is gone (see finish_after_eof); close
  // now rather than holding an un-watched fd forever.
  if (!conn->closed && conn->peer_eof) close_conn(conn);
}

void HttpServer::stream_chunk(const std::shared_ptr<StreamReply>& reply,
                              net::BufferChain payload,
                              std::function<void()> drained) {
  const auto conn = reply->conn.lock();
  if (!conn || conn->closed || !conn->streaming) {
    reply->dead.store(true);
    return;
  }
  if (conn->out.size() + payload.size() > kMaxStreamBuffered) {
    close_conn(conn);  // producer ignoring backpressure on a dead consumer
    return;
  }
  if (!payload.empty()) {
    // Chunk framing brackets the payload chain in place — the body segments
    // (often shared frame buffers) are never copied into a wire string.
    char size_line[32];
    const int n = std::snprintf(size_line, sizeof(size_line), "%zx\r\n",
                                payload.size());
    conn->out.append_copy(std::string_view(size_line,
                                           static_cast<std::size_t>(n)));
    conn->out.append_chain(std::move(payload));
    conn->out.append_copy("\r\n");
  }
  // Latest-wins: the producer re-arms one continuation per burst of
  // chunks; pacing decisions belong to it, not to a callback queue.
  if (drained) conn->on_drain = std::move(drained);
  continue_write(conn);
}

void HttpServer::end_stream(const std::shared_ptr<StreamReply>& reply) {
  const auto conn = reply->conn.lock();
  reply->dead.store(true);
  if (!conn || conn->closed || !conn->streaming) return;
  conn->out.append_copy("0\r\n\r\n");
  conn->on_drain = nullptr;
  conn->close_after_write = true;
  continue_write(conn);
}

void HttpServer::continue_write(const std::shared_ptr<Connection>& conn) {
  if (conn->closed) return;
  while (!conn->out.empty()) {
    struct iovec iov[kMaxWriteIov];
    const int iovcnt = conn->out.fill_iov(iov, kMaxWriteIov);
    std::size_t written = 0;
    const net::IoStatus status = conn->sock.writev(iov, iovcnt, written);
    // consume() releases fully-drained segments (dropping their refcounts)
    // and advances the offset inside a partially-written one, so a resumed
    // write picks up mid-segment without shifting bytes.
    conn->out.consume(written);
    bytes_sent_.fetch_add(written, std::memory_order_relaxed);
    if (status == net::IoStatus::kError) {
      close_conn(conn);
      return;
    }
    if (status == net::IoStatus::kWouldBlock || written == 0) break;
  }
  if (conn->out.empty()) {
    if (conn->on_drain) {
      // Everything queued reached the kernel: the streaming producer's
      // cue for the next chunk, or a response's drain accounting. Fired
      // before any close-after-write below so the final response of a
      // closing connection is still accounted. One-shot; any further work
      // it wants arrives as reactor posts, so firing inline cannot
      // recurse here.
      const auto drained = std::move(conn->on_drain);
      conn->on_drain = nullptr;
      drained();
    }
    if (conn->close_after_write && !conn->response_pending) {
      close_conn(conn);
      return;
    }
  }
  update_events(conn);
}

// ---------------------------------------------------------------- client --

namespace {

void set_recv_timeout(int fd, double timeout_s) {
  timeval tv{static_cast<time_t>(timeout_s),
             static_cast<suseconds_t>(
                 (timeout_s - static_cast<time_t>(timeout_s)) * 1e6)};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

}  // namespace

HttpClient::~HttpClient() { close(); }

HttpClient::HttpClient(HttpClient&& other) noexcept
    : port_(other.port_),
      fd_(other.fd_),
      reconnects_(other.reconnects_),
      decoder_(std::move(other.decoder_)) {
  other.fd_ = -1;
}

void HttpClient::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  decoder_.reset();
}

void HttpClient::ensure_connected(double timeout_s) {
  if (fd_ >= 0) return;
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw HttpError(HttpError::Kind::kConnect, "http client: socket() failed");
  }
  set_recv_timeout(fd_, timeout_s);
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port_));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd_);
    fd_ = -1;
    throw HttpError(HttpError::Kind::kConnect, "http client: connect() failed");
  }
  ++reconnects_;
  decoder_.reset();
}

HttpClient::Response HttpClient::exchange(const std::string& request_text,
                                          double timeout_s,
                                          bool retry_on_stale) {
  ensure_connected(timeout_s);
  set_recv_timeout(fd_, timeout_s);
  if (!write_all(fd_, request_text.data(), request_text.size())) {
    // Server closed the idle keep-alive connection; retry on a fresh one.
    close();
    if (retry_on_stale) return exchange(request_text, timeout_s, false);
    throw HttpError(HttpError::Kind::kIo, "http client: send failed");
  }

  if (util::starts_with(request_text, "HEAD ")) decoder_.expect_head();

  Response out;
  bool got_bytes = !decoder_.buffer().empty();
  char chunk[8192];
  for (;;) {
    switch (decoder_.next()) {
      case ResponseDecoder::Event::kHead:
        out.status = decoder_.status();
        out.headers = decoder_.headers();
        break;
      case ResponseDecoder::Event::kData:
        out.body += decoder_.take_data();
        break;
      case ResponseDecoder::Event::kDone:
        if (!decoder_.keep_alive()) close();
        return out;
      case ResponseDecoder::Event::kBad: {
        const std::string why = decoder_.error();
        close();
        throw HttpError(HttpError::Kind::kProtocol, "http client: " + why);
      }
      case ResponseDecoder::Event::kNeedMore: {
        const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n <= 0) {
          const bool stale = n == 0 || errno == ECONNRESET;
          close();
          if (!got_bytes && retry_on_stale && stale) {
            // EOF/reset before any response byte: a stale keep-alive.
            return exchange(request_text, timeout_s, false);
          }
          throw HttpError(HttpError::Kind::kIo,
                          got_bytes ? "http client: truncated response"
                                    : "http client: no response");
        }
        got_bytes = true;
        decoder_.buffer().append(chunk, static_cast<std::size_t>(n));
        break;
      }
    }
  }
}

HttpClient::Response HttpClient::get(const std::string& path_and_query,
                                     double timeout_s) {
  const std::string req =
      "GET " + path_and_query +
      " HTTP/1.1\r\nHost: localhost\r\nConnection: keep-alive\r\n\r\n";
  return exchange(req, timeout_s, true);
}

HttpClient::Response HttpClient::post(const std::string& path,
                                      const std::string& body,
                                      const std::string& content_type,
                                      double timeout_s) {
  const std::string req =
      util::strprintf(
          "POST %s HTTP/1.1\r\nHost: localhost\r\nConnection: keep-alive\r\n"
          "Content-Type: %s\r\nContent-Length: %zu\r\n\r\n",
          path.c_str(), content_type.c_str(), body.size()) +
      body;
  return exchange(req, timeout_s, true);
}

namespace {

/// Backoff before attempt `attempt` (1-based count of failures so far):
/// initial * 2^(attempt-1), capped. A 503's numeric Retry-After overrides
/// the schedule but stays under the same cap — a relay must not let an
/// overloaded origin park it for minutes. Only a fully numeric value
/// counts: the HTTP-date form ("Fri, 08 Aug 2026 …") and any other junk
/// fall back to the exponential schedule. A lax strtod here is an actual
/// bug, twice over — a date's leading day-of-month would parse as a
/// seconds value, and "nan" would survive the cap (std::min(nan, cap)
/// returns nan) and poison the sleep.
double retry_delay_s(const HttpClient::RetryPolicy& policy, int attempt,
                     const HttpClient::Response* response) {
  double delay = policy.initial_backoff_s;
  for (int i = 1; i < attempt; ++i) delay *= 2.0;
  if (response != nullptr) {
    const auto it = response->headers.find("retry-after");
    if (it != response->headers.end()) {
      const char* s = it->second.c_str();
      char* end = nullptr;
      const double after = std::strtod(s, &end);
      while (end != nullptr && (*end == ' ' || *end == '\t')) ++end;
      const bool fully_numeric =
          end != s && end != nullptr && *end == '\0' && std::isfinite(after);
      if (fully_numeric && after >= 0.0) delay = after;
    }
  }
  return std::min(delay, policy.max_backoff_s);
}

HttpClient::Response exchange_with_retry(
    const HttpClient::RetryPolicy& policy,
    const std::function<HttpClient::Response()>& attempt_fn) {
  const int attempts = std::max(policy.max_attempts, 1);
  for (int attempt = 1;; ++attempt) {
    HttpClient::Response response;
    try {
      response = attempt_fn();
    } catch (const HttpError& error) {
      // Transport-level failures are transient (the server may be
      // restarting); a response we cannot parse is not.
      if (error.kind() == HttpError::Kind::kProtocol || attempt >= attempts) {
        throw;
      }
      std::this_thread::sleep_for(std::chrono::duration<double>(
          retry_delay_s(policy, attempt, nullptr)));
      continue;
    }
    if (response.status != 503 || attempt >= attempts) return response;
    std::this_thread::sleep_for(std::chrono::duration<double>(
        retry_delay_s(policy, attempt, &response)));
  }
}

}  // namespace

HttpClient::Response HttpClient::get_with_retry(
    const std::string& path_and_query, const RetryPolicy& policy,
    double timeout_s) {
  return exchange_with_retry(policy,
                             [&] { return get(path_and_query, timeout_s); });
}

HttpClient::Response HttpClient::post_with_retry(const std::string& path,
                                                 const std::string& body,
                                                 const RetryPolicy& policy,
                                                 const std::string& content_type,
                                                 double timeout_s) {
  return exchange_with_retry(
      policy, [&] { return post(path, body, content_type, timeout_s); });
}

// ----------------------------------------------------- one-shot helpers --

HttpClient::Response http_get(int port, const std::string& path_and_query,
                              double timeout_s) {
  const std::string req = "GET " + path_and_query +
                          " HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n";
  return HttpClient(port).exchange(req, timeout_s, false);
}

HttpClient::Response http_post(int port, const std::string& path,
                               const std::string& body,
                               const std::string& content_type,
                               double timeout_s) {
  const std::string req = util::strprintf(
      "POST %s HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n"
      "Content-Type: %s\r\nContent-Length: %zu\r\n\r\n",
      path.c_str(), content_type.c_str(), body.size()) + body;
  return HttpClient(port).exchange(req, timeout_s, false);
}

}  // namespace ricsa::web
