// Web layer tests: HTTP server/client mechanics, routing, the request
// parser and the response decoder under seeded mutations, HttpClient
// against finite chunked, pipelined, HEAD and malformed answers, and the
// Ajax front end driven by an emulated browser (long-poll partial updates,
// steering POSTs, multi-client access, its frame clock and prompt stop, and
// a seeded Range replay against /api/image).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "mutation.hpp"
#include "proc_threads.hpp"
#include "response_reader.hpp"
#include "scripted_server.hpp"
#include "time_scale.hpp"
#include "util/base64.hpp"
#include "util/json.hpp"
#include "web/frontend.hpp"
#include "web/http.hpp"

namespace w = ricsa::web;
namespace u = ricsa::util;

// ----------------------------------------------------------- HttpServer ----

TEST(Http, RoutesAndStatusCodes) {
  w::HttpServer server;
  server.route("GET", "/hello", [](const w::HttpRequest&) {
    return w::HttpResponse::text("hi");
  });
  server.route("POST", "/echo", [](const w::HttpRequest& r) {
    return w::HttpResponse::json(r.body);
  });
  const int port = server.start();
  ASSERT_GT(port, 0);

  const auto hello = w::http_get(port, "/hello");
  EXPECT_EQ(hello.status, 200);
  EXPECT_EQ(hello.body, "hi");

  const auto echo = w::http_post(port, "/echo", "{\"a\":1}");
  EXPECT_EQ(echo.status, 200);
  EXPECT_EQ(echo.body, "{\"a\":1}");
  EXPECT_EQ(echo.headers.at("content-type"), "application/json");

  const auto missing = w::http_get(port, "/nope");
  EXPECT_EQ(missing.status, 404);
  EXPECT_GE(server.requests_served(), 3u);
  server.stop();
}

TEST(Http, QueryParamsAndUrlDecoding) {
  w::HttpServer server;
  server.route("GET", "/q", [](const w::HttpRequest& r) {
    return w::HttpResponse::text(r.query_param("name", "?") + "|" +
                                 r.query_param("missing", "fallback"));
  });
  const int port = server.start();
  const auto response = w::http_get(port, "/q?name=hello%20world&x=1");
  EXPECT_EQ(response.body, "hello world|fallback");
  EXPECT_EQ(w::url_decode("a%2Fb+c"), "a/b c");
  server.stop();
}

TEST(Http, QueryParamValuelessAndEncodedKeys) {
  w::HttpRequest r;
  // Valueless keys are present with the empty value. The old parser's
  // eq==npos arithmetic made "?foo" invisible to query_param("foo") while
  // "?foo&bar=1" could surface a key as its own value.
  r.query = "foo&bar=1&full";
  EXPECT_EQ(r.query_param("foo", "fallback"), "");
  EXPECT_EQ(r.query_param("full", "0"), "");
  EXPECT_EQ(r.query_param("bar"), "1");
  // Keys are URL-decoded before comparison: %66ull names "full".
  r.query = "%66ull=1&a%20b=2";
  EXPECT_EQ(r.query_param("full", "0"), "1");
  EXPECT_EQ(r.query_param("a b"), "2");
  // '+' decodes to a space in keys exactly as in values.
  r.query = "a+b=c+d";
  EXPECT_EQ(r.query_param("a b"), "c d");
  // Empty pairs (leading/doubled/trailing '&') are skipped, never matched
  // as the empty key.
  r.query = "&&x=3&";
  EXPECT_EQ(r.query_param("x"), "3");
  EXPECT_EQ(r.query_param("", "fallback"), "fallback");
}

TEST(Http, HandlerExceptionBecomes500) {
  w::HttpServer server;
  server.route("GET", "/boom", [](const w::HttpRequest&) -> w::HttpResponse {
    throw std::runtime_error("kaput");
  });
  const int port = server.start();
  const auto response = w::http_get(port, "/boom");
  EXPECT_EQ(response.status, 500);
  EXPECT_NE(response.body.find("kaput"), std::string::npos);
  server.stop();
}

TEST(Http, ConcurrentClients) {
  w::HttpServer server;
  std::atomic<int> hits{0};
  server.route("GET", "/inc", [&hits](const w::HttpRequest&) {
    ++hits;
    return w::HttpResponse::text("ok");
  });
  const int port = server.start();
  std::vector<std::thread> clients;
  for (int i = 0; i < 8; ++i) {
    clients.emplace_back([port] {
      for (int k = 0; k < 5; ++k) {
        EXPECT_EQ(w::http_get(port, "/inc").status, 200);
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(hits.load(), 40);
  server.stop();
}

TEST(Http, HeadReturnsHeadersWithoutBody) {
  w::HttpServer server;
  server.route("GET", "/hello", [](const w::HttpRequest&) {
    return w::HttpResponse::text("hi");
  });
  const int port = server.start();
  // HEAD falls back to the GET route: same status and Content-Length, no
  // body bytes. Raw socket: the assertions are on the wire bytes the server
  // wrote, not on a decoder's reading of them.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const std::string request =
      "HEAD /hello HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
  ASSERT_TRUE(w::detail::write_all(fd, request.data(), request.size()));
  std::string wire;
  char chunk[4096];
  ssize_t got;
  while ((got = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    wire.append(chunk, static_cast<std::size_t>(got));
  }
  ::close(fd);
  EXPECT_NE(wire.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 2"), std::string::npos);
  // The response ends at the blank line: headers only, no "hi".
  EXPECT_EQ(wire.substr(wire.size() - 4), "\r\n\r\n");
  EXPECT_EQ(wire.find("hi\r\n"), std::string::npos);
  server.stop();
}

TEST(Http, WrongMethodIs405WithAllowAndUnknownMethodIs405) {
  w::HttpServer server;
  server.route("GET", "/hello", [](const w::HttpRequest&) {
    return w::HttpResponse::text("hi");
  });
  server.route("POST", "/steer", [](const w::HttpRequest&) {
    return w::HttpResponse::text("ok");
  });
  const int port = server.start();

  // Known path, wrong method: 405 with the permitted methods advertised.
  const auto wrong = w::http_post(port, "/hello", "{}");
  EXPECT_EQ(wrong.status, 405);
  ASSERT_TRUE(wrong.headers.count("allow"));
  EXPECT_NE(wrong.headers.at("allow").find("GET"), std::string::npos);
  EXPECT_NE(wrong.headers.at("allow").find("HEAD"), std::string::npos);

  // A method HTTP has never heard of is a method problem (405), not a
  // missing page (404).
  w::HttpClient client(port);
  const auto brew = client.exchange(
      "BREW /coffee HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n", 5.0,
      false);
  EXPECT_EQ(brew.status, 405);

  // Known methods on unknown paths keep their 404.
  EXPECT_EQ(w::http_get(port, "/nope").status, 404);
  server.stop();
}

TEST(Http, PostBodyRoundTrip) {
  w::HttpServer server;
  server.route("POST", "/len", [](const w::HttpRequest& r) {
    return w::HttpResponse::text(std::to_string(r.body.size()));
  });
  const int port = server.start();
  const std::string big(100000, 'x');
  const auto response = w::http_post(port, "/len", big, "text/plain");
  EXPECT_EQ(response.body, "100000");
  server.stop();
}

TEST(Http, RequestBodiesAreCappedAtOneMebibyte) {
  // Handlers parse bodies on the reactor, so a body is capped like a head.
  constexpr std::size_t kCap = 1u << 20;
  const auto head = [](std::size_t length) {
    return "POST /len HTTP/1.1\r\nHost: x\r\nContent-Length: " +
           std::to_string(length) + "\r\n\r\n";
  };
  // One byte over is refused once the head is in, before any body byte;
  // at the cap the parser waits for the body.
  w::HttpRequest over_request, at_cap_request;
  std::string over = head(kCap + 1);
  EXPECT_EQ(w::detail::parse_request(over, over_request),
            w::detail::ParseResult::kBad);
  std::string at_cap = head(kCap);
  EXPECT_EQ(w::detail::parse_request(at_cap, at_cap_request),
            w::detail::ParseResult::kNeedMore);

  w::HttpServer server;
  server.route("POST", "/len", [](const w::HttpRequest& r) {
    return w::HttpResponse::text(std::to_string(r.body.size()));
  });
  const int port = server.start();
  const auto served =
      w::http_post(port, "/len", std::string(kCap, 'x'), "text/plain");
  EXPECT_EQ(served.status, 200);
  EXPECT_EQ(served.body, std::to_string(kCap));

  // The server closes the connection on the head alone: no answer, and no
  // wait for the body the client never sends.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const std::string refused = head(kCap + 1);
  ASSERT_TRUE(w::detail::write_all(fd, refused.data(), refused.size()));
  char byte = 0;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
  ::close(fd);
  server.stop();
}

TEST(Http, SeededRequestMutationsAreAcceptedOrRejected) {
  // The request parser reads untrusted bytes off every connection. Each
  // mutated buffer must parse, ask for more, or be refused — never crash —
  // and the incremental contract must hold: kNeedMore leaves the buffer
  // untouched, kOk consumes at least the request's header block.
  const std::vector<std::string> corpus = {
      "GET /api/poll?since=3&delta=1&timeout=5&view=rho%2Fiso HTTP/1.1\r\n"
      "Host: x\r\n\r\n",
      "POST /api/steer HTTP/1.1\r\nHost: x\r\nContent-Length: 14\r\n"
      "Content-Type: application/json\r\n\r\n{\"gamma\":1.55}",
      "HEAD /api/stream HTTP/1.1\r\nConnection: close\r\n\r\n"
      "GET /api/state HTTP/1.1\r\nX-Relay-Path: edge-a,origin\r\n\r\n",
  };
  const std::vector<std::string> tokens = {
      "\r\n", "\r\n\r\n", ":", " ", "?", "%", "%zz", "=&",
      "Content-Length: 5\r\n", "Content-Length: 6\r\n",
      "Content-Length: 99999999999999\r\n", "Content-Length: 70000000\r\n",
      "Content-Length: -1\r\n", "Transfer-Encoding: chunked\r\n",
      "e\r\n{\"gamma\":1.55}\r\n0\r\n\r\n", std::string(1, '\0')};
  // The two refusals the dictionary aims at: conflicting lengths, and a
  // body only Transfer-Encoding could delimit (left unparsed).
  w::HttpRequest refused;
  std::string conflicting =
      "POST /api/steer HTTP/1.1\r\nContent-Length: 5\r\n"
      "Content-Length: 6\r\n\r\nabcdef";
  EXPECT_EQ(w::detail::parse_request(conflicting, refused),
            w::detail::ParseResult::kBad);
  const std::string chunked =
      "POST /api/steer HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "e\r\n{\"gamma\":1.55}\r\n0\r\n\r\n";
  std::string unparsed = chunked;
  EXPECT_EQ(w::detail::parse_request(unparsed, refused),
            w::detail::ParseResult::kNotImplemented);
  EXPECT_EQ(unparsed, chunked);

  ricsa::util::Xoshiro256 rng(0x48545450);
  int ok = 0;
  for (int i = 0; i < 2000; ++i) {
    std::string buffer =
        ricsa_test::mutate(corpus[static_cast<std::size_t>(i) % corpus.size()],
                           rng, tokens);
    // Drain pipelined requests the way a connection does.
    while (true) {
      const std::string before = buffer;
      w::HttpRequest request;
      const w::detail::ParseResult result =
          w::detail::parse_request(buffer, request);
      if (result == w::detail::ParseResult::kNeedMore) {
        ASSERT_EQ(buffer, before) << "case " << i;
        break;
      }
      if (result != w::detail::ParseResult::kOk) break;
      ++ok;
      ASSERT_GE(before.size() - buffer.size(), before.find("\r\n\r\n") + 4)
          << "case " << i;
      request.query_param("since");  // URL decoding of the same bytes
    }
  }
  EXPECT_GT(ok, 100);
}

TEST(Http, SeededResponseMutationsDecodeTheSameAtAnySlicing) {
  // Every reader of responses (HttpClient, the relay subscriber, the bench
  // fleet) goes through ResponseDecoder and SseSplitter. Each mutated wire
  // must end in kNeedMore, kDone or kBad without crashing; kBad must be
  // sticky and no data event may pass the body bound (both checked inside
  // decode_trace); and three random slices must give the same events and
  // the same verdict as one read.
  std::string stream =
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n"
      "Content-Type: text/event-stream\r\n\r\n";
  w::detail::append_chunk(stream, "id: 7\ndata: {\"seq\":7}\n\n");
  w::detail::append_chunk(stream, ": keepalive\n\n");
  w::detail::append_last_chunk(stream);
  const std::vector<std::string> corpus = {
      "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello"
      "HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\n"
      "Content-Length: 4\r\n\r\nbusy" + stream,
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
      "5;x=1\r\nhello\r\n0\r\n\r\n"
      "HTTP/1.1 204 No Content\r\n\r\n"
      "HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n",
  };
  const std::vector<std::string> tokens = {
      "Content-Length: -1\r\n", "Content-Length: 99999999999999\r\n",
      "Content-Length: 5\r\nContent-Length: 6\r\n",
      "Transfer-Encoding: chunked\r\n", "Transfer-Encoding: gzip\r\n",
      "-1\r\n", std::string(17, 'f'), "5;x=1\r\n", "0\r\n\r\n", "\r\n",
      "\n\n", "data: ", ": ", std::string(1, '\0')};
  // The refusals the dictionary aims at, one by one.
  for (const std::string& bad : std::vector<std::string>{
           "HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n",
        "HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\n",
        "HTTP/1.1 200 OK\r\nContent-Length: 99999999999999\r\n\r\n",
        "HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\n",
        "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n"
        "Content-Length: 5\r\n\r\n",
        "HTTP/1.1 200 OK\r\n\r\n", "HTTP/1.1 2000 OK\r\n\r\n",
        "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n-1\r\n",
        "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5zz\r\n",
        "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" +
            std::string(17, 'f') + "\r\n",
        "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
        "5\r\nhelloXY",
        "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
        "0\r\nX-Trailer: 1\r\n\r\n"}) {
    EXPECT_NE(ricsa_test::decode_trace(bad).find("bad: "), std::string::npos)
        << bad;
  }

  ricsa::util::Xoshiro256 rng(0x52455350);
  int refused = 0;
  int complete = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::string wire = ricsa_test::mutate(
        corpus[static_cast<std::size_t>(i) % corpus.size()], rng, tokens);
    const std::string whole = ricsa_test::decode_trace(wire);
    std::vector<std::size_t> cuts = {
        static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(wire.size()))),
        static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(wire.size())))};
    std::sort(cuts.begin(), cuts.end());
    ASSERT_EQ(ricsa_test::decode_trace(wire, cuts), whole)
        << "case " << i << " cut at " << cuts[0] << "," << cuts[1];
    if (whole.find("bad") != std::string::npos) {
      ++refused;
    } else if (whole.find("done") != std::string::npos) {
      ++complete;
    }
  }
  EXPECT_GT(refused, 100);
  EXPECT_GT(complete, 100);
}

namespace {

/// A header block just under the 1 MiB cap, nearly all of it an X-Pad
/// field of kPadBytes, after `first_line`.
constexpr std::size_t kPadBytes = (1u << 20) - 200;
std::string padded_head(const std::string& first_line) {
  return first_line + "\r\nX-Pad: " + std::string(kPadBytes, 'p') +
         "\r\nContent-Length: 0\r\n\r\n";
}

/// 64-byte reads of a 1 MiB head take about 2 ms when each search resumes
/// where the last ended; searching from the start every time takes about
/// 200 ms. The bound sits between, with room for a loaded or instrumented
/// host, and is checked after every read so a quadratic parser fails fast.
/// The event splitter's test below shares it.
constexpr int kSmallReadHeadBoundMs = 50;

}  // namespace

TEST(Http, RequestHeadInSmallReadsParsesInLinearTime) {
  const std::string wire = padded_head("GET /api/state HTTP/1.1");
  const auto start = std::chrono::steady_clock::now();
  const auto bound = start + ricsa_test::scaled_ms(kSmallReadHeadBoundMs);
  std::string buffer;
  std::size_t scanned = 0;
  w::HttpRequest request;
  w::detail::ParseResult result = w::detail::ParseResult::kNeedMore;
  for (std::size_t at = 0; at < wire.size(); at += 64) {
    buffer.append(wire, at, 64);
    result = w::detail::parse_request(buffer, request, scanned);
    ASSERT_LT(std::chrono::steady_clock::now(), bound) << "at byte " << at;
    if (result != w::detail::ParseResult::kNeedMore) break;
  }
  ASSERT_EQ(result, w::detail::ParseResult::kOk);
  EXPECT_EQ(request.path, "/api/state");
  EXPECT_EQ(request.headers["x-pad"].size(), kPadBytes);
  EXPECT_TRUE(buffer.empty());
}

TEST(Http, ResponseHeadInSmallReadsDecodesInLinearTime) {
  const std::string wire = padded_head("HTTP/1.1 200 OK");
  const auto start = std::chrono::steady_clock::now();
  const auto bound = start + ricsa_test::scaled_ms(kSmallReadHeadBoundMs);
  w::ResponseDecoder decoder;
  w::ResponseDecoder::Event event = w::ResponseDecoder::Event::kNeedMore;
  for (std::size_t at = 0; at < wire.size(); at += 64) {
    decoder.buffer().append(wire, at, 64);
    event = decoder.next();
    ASSERT_LT(std::chrono::steady_clock::now(), bound) << "at byte " << at;
    if (event != w::ResponseDecoder::Event::kNeedMore) break;
  }
  ASSERT_EQ(event, w::ResponseDecoder::Event::kHead);
  EXPECT_EQ(decoder.status(), 200);
  EXPECT_EQ(decoder.headers().at("x-pad").size(), kPadBytes);
  EXPECT_EQ(decoder.next(), w::ResponseDecoder::Event::kDone);
}

TEST(Http, SseEventInSmallChunksSplitsInLinearTime) {
  // A relay's upstream stream can deliver one large event in many small
  // chunks. Splitting it must stay linear: appending each payload in place
  // and resuming the blank-line search takes about 3 ms for this event;
  // copying and rescanning the unfinished event per payload took about
  // 1.3 s. The bound is checked after every payload, so a quadratic
  // splitter fails fast.
  const std::string wire =
      "id: 7\ndata: " + std::string(kPadBytes, 'p') + "\n\n";
  const auto start = std::chrono::steady_clock::now();
  const auto bound = start + ricsa_test::scaled_ms(kSmallReadHeadBoundMs);
  w::SseSplitter splitter;
  w::SseSplitter::Event event;
  w::SseSplitter::Result result = w::SseSplitter::Result::kNeedMore;
  for (std::size_t at = 0; at < wire.size(); at += 64) {
    splitter.feed(wire.substr(at, 64));
    result = splitter.next(event);
    ASSERT_LT(std::chrono::steady_clock::now(), bound) << "at byte " << at;
    if (result != w::SseSplitter::Result::kNeedMore) break;
  }
  ASSERT_EQ(result, w::SseSplitter::Result::kEvent);
  EXPECT_EQ(event.id, "7");
  EXPECT_EQ(event.data.size(), kPadBytes);
  EXPECT_EQ(splitter.next(event), w::SseSplitter::Result::kNeedMore);
}

// ----------------------------------------------------------- HttpClient ----

namespace {

using Reply = ricsa_test::ScriptedServer::Reply;

std::string ok_response(const std::string& body) {
  return "HTTP/1.1 200 OK\r\nContent-Length: " + std::to_string(body.size()) +
         "\r\n\r\n" + body;
}

}  // namespace

TEST(HttpClient, FiniteChunkedRouteReturnsItsPayload) {
  w::HttpServer server;
  server.route_stream(
      "GET", "/finite", [](const w::HttpRequest&, w::HttpServer::StreamSink sink) {
        sink.begin({{"Content-Type", "text/plain"}});
        if (sink.head_only()) return;
        sink.chunk("hello");
        sink.end();
      });
  const int port = server.start();
  w::HttpClient client(port);
  const auto response = client.get("/finite", 5.0);
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.headers.at("transfer-encoding"), "chunked");
  EXPECT_EQ(response.body, "hello");
  server.stop();
}

TEST(HttpClient, TwoResponsesInOneReadAreTwoExchanges) {
  // Both answers leave in one write, in reply to the first request; the
  // second exchange must find its response already buffered.
  ricsa_test::ScriptedServer server([](const w::HttpRequest& request) {
    return request.path == "/both"
               ? Reply{ok_response("first") + ok_response("second")}
               : Reply{};
  });
  w::HttpClient client(server.port());
  EXPECT_EQ(client.get("/both", 5.0).body, "first");
  EXPECT_EQ(client.get("/next", 5.0).body, "second");
  EXPECT_EQ(client.reconnects(), 0);
}

TEST(HttpClient, HeadExchangeReturnsHeadersWithoutWaitingForTheBody) {
  w::HttpServer server;
  server.route("GET", "/hello", [](const w::HttpRequest&) {
    return w::HttpResponse::text("hi");
  });
  const int port = server.start();
  w::HttpClient client(port);
  // A reader that waited for the advertised two bytes would time out.
  const auto head =
      client.exchange("HEAD /hello HTTP/1.1\r\nHost: x\r\n\r\n", 2.0, false);
  EXPECT_EQ(head.status, 200);
  EXPECT_EQ(head.headers.at("content-length"), "2");
  EXPECT_TRUE(head.body.empty());
  // The kept-alive connection still frames the next response correctly.
  EXPECT_EQ(client.get("/hello", 2.0).body, "hi");
  EXPECT_EQ(client.reconnects(), 0);
  server.stop();
}

TEST(HttpClient, MalformedContentLengthIsAProtocolError) {
  for (const std::string length :
       {"Content-Length: 20junk\r\n", "Content-Length: -1\r\n",
        "Content-Length: 20\r\nContent-Length: 21\r\n"}) {
    ricsa_test::ScriptedServer server([&length](const w::HttpRequest&) {
      return Reply{"HTTP/1.1 200 OK\r\n" + length + "\r\n" +
                   std::string(20, 'x')};
    });
    w::HttpClient client(server.port());
    try {
      client.get("/", 2.0);
      ADD_FAILURE() << "expected HttpError for " << length;
    } catch (const w::HttpError& e) {
      EXPECT_EQ(e.kind(), w::HttpError::Kind::kProtocol) << length;
    }
  }
}

// --------------------------------------------------------- AjaxFrontEnd ----

namespace {
w::FrontEndConfig small_frontend() {
  w::FrontEndConfig config;
  config.session.simulation = ricsa::hydro::HydroSimulation::Kind::kSod;
  config.session.resolution = 32;
  config.session.viz.image_width = 32;
  config.session.viz.image_height = 32;
  config.session.viz.isovalue = 0.5f;
  config.frame_interval_s = 0.02;
  return config;
}
}  // namespace

TEST(AjaxFrontEnd, ServesDashboardAndState) {
  w::AjaxFrontEnd fe(small_frontend());
  const int port = fe.start();

  const auto index = w::http_get(port, "/");
  EXPECT_EQ(index.status, 200);
  EXPECT_NE(index.body.find("XMLHttpRequest"), std::string::npos);
  EXPECT_NE(index.body.find("RICSA"), std::string::npos);

  // Wait for at least one frame, then /api/state carries monitoring data.
  while (fe.frame_seq() == 0) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const auto state = w::http_get(port, "/api/state");
  const auto parsed = u::Json::parse(state.body);
  EXPECT_GE(parsed.at("seq").as_int(), 1);
  EXPECT_GE(parsed.at("state").at("cycle").as_int(), 1);
  EXPECT_TRUE(parsed.at("state").at("parameters").contains("gamma"));
  EXPECT_NE(parsed.at("state").at("vrt").as_string().find("node"),
            std::string::npos);
  fe.stop();
}

TEST(AjaxFrontEnd, LongPollDeliversPartialUpdate) {
  w::AjaxFrontEnd fe(small_frontend());
  const int port = fe.start();
  // Poll from zero: should return as soon as the first frame publishes,
  // carrying a PNG payload (the XHR object exchange).
  const auto poll = w::http_get(port, "/api/poll?since=0&timeout=10");
  const auto parsed = u::Json::parse(poll.body);
  ASSERT_GE(parsed.at("seq").as_int(), 1);
  ASSERT_TRUE(parsed.contains("image_b64"));
  const auto png = u::base64_decode(parsed.at("image_b64").as_string());
  ASSERT_GT(png.size(), 8u);
  EXPECT_EQ(png[1], 'P');  // PNG signature
  EXPECT_EQ(png[2], 'N');

  // A cursor far ahead of the head (stale client from a previous server
  // epoch) is resynced with the next published frame instead of parking
  // against a seq that will never arrive.
  const auto cur = static_cast<std::uint64_t>(parsed.at("seq").as_int());
  const auto poll2 =
      w::http_get(port, "/api/poll?since=" + std::to_string(cur + 1000) +
                            "&timeout=2");
  const auto parsed2 = u::Json::parse(poll2.body);
  EXPECT_FALSE(parsed2.contains("timeout"));
  ASSERT_GE(parsed2.at("seq").as_int(), 1);
  EXPECT_LT(parsed2.at("seq").as_number(), static_cast<double>(cur + 1000));
  EXPECT_TRUE(parsed2.contains("image_b64"));
  fe.stop();
}

TEST(AjaxFrontEnd, SteeringPostReachesSimulation) {
  w::AjaxFrontEnd fe(small_frontend());
  const int port = fe.start();
  while (fe.frame_seq() == 0) std::this_thread::sleep_for(std::chrono::milliseconds(5));

  const auto response = w::http_post(port, "/api/steer", "{\"gamma\": 1.72}");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(fe.steer_count(), 1u);

  // Within a few frames, the state must report the steered gamma.
  double gamma = 0;
  for (int attempt = 0; attempt < 100; ++attempt) {
    const auto state = u::Json::parse(w::http_get(port, "/api/state").body);
    gamma = state.at("state").at("parameters").at("gamma").as_number();
    if (std::abs(gamma - 1.72) < 1e-9) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_NEAR(gamma, 1.72, 1e-9);
  fe.stop();
}

TEST(AjaxFrontEnd, ViewChangeSwitchesVariable) {
  w::AjaxFrontEnd fe(small_frontend());
  const int port = fe.start();
  while (fe.frame_seq() == 0) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  w::http_post(port, "/api/view", "{\"variable\":\"pressure\",\"zoom\":1.5}");
  std::string variable;
  for (int attempt = 0; attempt < 100; ++attempt) {
    const auto state = u::Json::parse(w::http_get(port, "/api/state").body);
    variable = state.at("state").at("variable").as_string();
    if (variable == "pressure") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(variable, "pressure");
  fe.stop();
}

TEST(AjaxFrontEnd, MultipleConcurrentBrowsers) {
  // "can be accessed by multiple remote users using web browsers".
  w::AjaxFrontEnd fe(small_frontend());
  const int port = fe.start();
  std::atomic<int> ok{0};
  std::vector<std::thread> browsers;
  for (int b = 0; b < 4; ++b) {
    browsers.emplace_back([port, &ok] {
      const auto poll = w::http_get(port, "/api/poll?since=0&timeout=10");
      const auto parsed = u::Json::parse(poll.body);
      if (parsed.at("seq").as_int() >= 1 && parsed.contains("image_b64")) ++ok;
    });
  }
  for (auto& b : browsers) b.join();
  EXPECT_EQ(ok.load(), 4);
  fe.stop();
}

TEST(AjaxFrontEnd, RejectsMalformedSteeringBody) {
  w::AjaxFrontEnd fe(small_frontend());
  const int port = fe.start();
  EXPECT_EQ(w::http_post(port, "/api/steer", "{not json").status, 400);
  EXPECT_EQ(w::http_post(port, "/api/steer", "[1,2]").status, 400);
  // Unbounded nesting is refused, and the server keeps serving.
  EXPECT_EQ(w::http_post(port, "/api/steer", std::string(100000, '[')).status,
            400);
  EXPECT_EQ(w::http_get(port, "/api/state").status, 200);
  EXPECT_EQ(fe.steer_count(), 0u);
  fe.stop();
}

TEST(AjaxFrontEnd, RejectsMalformedViewBody) {
  w::AjaxFrontEnd fe(small_frontend());
  const int port = fe.start();
  const auto frames_advance = [&fe] {
    const std::uint64_t seq = fe.frame_seq();
    const auto deadline =
        std::chrono::steady_clock::now() + ricsa_test::scaled_ms(5000);
    while (fe.frame_seq() < seq + 2 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return fe.frame_seq() >= seq + 2;
  };
  // Each body is refused with the key it got wrong. The first four were
  // once queued and then threw on the monitor loop, ending the process.
  const std::vector<std::pair<std::string, std::string>> bodies = {
      {"{\"variable\":1}", "variable"},
      {"{\"technique\":5}", "technique"},
      {"{\"variable\":\"bogus\"}", "variable"},
      {"{\"octant\":8}", "octant"},
      {"{\"octant\":2.5}", "octant"},
      {"{\"technique\":\"voxels\"}", "technique"},
      {"{\"zoom\":\"near\"}", "zoom"},
      {"{\"isovalue\":null}", "isovalue"},
      {"[\"variable\"]", "object"},
  };
  for (const auto& [body, key] : bodies) {
    const auto response = w::http_post(port, "/api/view", body);
    EXPECT_EQ(response.status, 400) << body;
    EXPECT_NE(response.body.find(key), std::string::npos)
        << body << ": " << response.body;
    EXPECT_TRUE(frames_advance()) << body;
  }
  // A valid body is still applied; unknown keys are ignored.
  EXPECT_EQ(w::http_post(port, "/api/view",
                         "{\"variable\":\"energy\",\"octant\":-1,"
                         "\"technique\":\"raycast\",\"future\":[1]}")
                .status,
            200);
  std::string variable;
  for (int attempt = 0; attempt < 100 && variable != "energy"; ++attempt) {
    const auto state = u::Json::parse(w::http_get(port, "/api/state").body);
    variable = state.at("state").at("variable").as_string();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(variable, "energy");
  fe.stop();
}

TEST(AjaxFrontEnd, ThreadsAreReactorsSessionPoolAndMonitorLoop) {
  // Route handlers run on the reactors: the front end adds no thread of
  // its own beyond the monitor loop, whatever its traffic.
  const long before = ricsa_test::baseline_threads();
  w::AjaxFrontEnd fe(small_frontend());
  const int port = fe.start();
  EXPECT_EQ(w::http_get(port, "/api/stats").status, 200);
  EXPECT_EQ(ricsa_test::process_threads(),
            before + static_cast<long>(fe.server().reactor_count() +
                                       fe.session_pool_threads() + 1));
  fe.stop();
}

TEST(AjaxFrontEnd, StopReturnsWithoutWaitingOutTheInterval) {
  // The loop waits for its next frame on a condition variable that stop()
  // notifies, so stop() returns within a frame's work, not after the rest
  // of the interval. The interval widens with the bound under TSAN, so it
  // always exceeds it.
  w::FrontEndConfig config = small_frontend();
  config.session.resolution = 16;
  config.frame_interval_s = 5.0 * ricsa_test::kTimeScale;
  w::AjaxFrontEnd fe(config);
  fe.start();
  while (fe.frame_seq() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const auto start = std::chrono::steady_clock::now();
  fe.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            ricsa_test::scaled_ms(1000));
}

TEST(AjaxFrontEnd, FramesStartOnAFixedClock) {
  using Clock = std::chrono::steady_clock;
  using ms = std::chrono::milliseconds;
  // The rule on synthetic instants: each frame's work in ms, and when the
  // next frame starts, counted from the first frame's start.
  const Clock::duration interval = ms(250);
  const std::vector<std::pair<int, int>> frames = {
      {40, 250},    // fits its slot: one interval, not interval + work
      {40, 500},
      {250, 750},   // fills its slot exactly: still on the tick
      {900, 1650},  // overruns by several intervals: the next starts at once
      {40, 1900},   // and the clock re-anchors there: no catch-up burst
      {40, 2150},
  };
  const Clock::time_point origin{};
  Clock::time_point tick = origin;
  for (const auto& [work, next] : frames) {
    tick = w::next_frame_start(tick, interval, tick + ms(work));
    EXPECT_EQ(tick, origin + ms(next)) << "after a frame of " << work << " ms";
  }

  // The running loop, loosely: an isosurface view published after the main
  // view gives each frame work that the main view's publish stamps can
  // see. Frames start on the clock, so those stamps are one interval
  // apart. Sleeping the interval after the work spaced them by the
  // interval plus all of it, this part and the step and render before the
  // main publish. Medians keep one late wake-up from deciding either way.
  w::FrontEndConfig config = small_frontend();
  config.session.simulation = ricsa::hydro::HydroSimulation::Kind::kBowshock;
  config.session.resolution = 40;
  config.session.viz.image_width = 192;
  config.session.viz.image_height = 192;
  config.frame_interval_s = 0.1 * ricsa_test::kTimeScale;
  w::ViewSpec iso;
  iso.name = "iso";
  iso.viz = config.session.viz;
  iso.viz.technique = ricsa::cost::VizRequest::Technique::kIsosurface;
  iso.viz.isovalue = 1.1f;
  config.views.push_back(iso);
  w::AjaxFrontEnd fe(config);
  fe.start();
  // Frame 1 starts with the loop and pays its warm-up, so frames 2 to
  // kFrames are measured: both views have published frame kFrames once
  // the isosurface shard's seq reaches it.
  constexpr std::uint64_t kFrames = 14;
  const auto deadline = Clock::now() + ricsa_test::scaled_ms(30000);
  while (fe.registry().find("iso") == nullptr ||
         fe.registry().find("iso")->seq() < kFrames) {
    ASSERT_LT(Clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const auto stamp = [&fe](const std::string& view, std::uint64_t seq) {
    const auto frame = fe.registry().find(view)->next_after(seq - 1);
    return frame->state.at("published_ms").as_number();
  };
  const auto median = [](std::vector<double> values) {
    std::sort(values.begin(), values.end());
    return values[values.size() / 2];
  };
  std::vector<double> spacing_ms;
  std::vector<double> work_ms;
  for (std::uint64_t seq = 2; seq <= kFrames; ++seq) {
    work_ms.push_back(stamp("iso", seq) - stamp("main", seq));
    if (seq > 2) {
      spacing_ms.push_back(stamp("main", seq) - stamp("main", seq - 1));
    }
  }
  fe.stop();
  const double interval_ms = config.frame_interval_s * 1000.0;
  const double spacing = median(spacing_ms);
  const double work = median(work_ms);
  EXPECT_GT(spacing, 0.9 * interval_ms) << "work " << work << " ms";
  EXPECT_LT(spacing, interval_ms + work) << "work " << work << " ms";
}

TEST(AjaxFrontEnd, ImageEndpointServesPng) {
  w::AjaxFrontEnd fe(small_frontend());
  const int port = fe.start();
  while (fe.frame_seq() == 0) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const auto image = w::http_get(port, "/api/image");
  EXPECT_EQ(image.status, 200);
  EXPECT_EQ(image.headers.at("content-type"), "image/png");
  ASSERT_GT(image.body.size(), 8u);
  EXPECT_EQ(static_cast<unsigned char>(image.body[0]), 0x89);
  fe.stop();
}

TEST(AjaxFrontEnd, ImageRangeRequestsServePartialContent) {
  w::AjaxFrontEnd fe(small_frontend());
  const int port = fe.start();
  while (fe.frame_seq() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const auto full = w::http_get(port, "/api/image");
  ASSERT_EQ(full.status, 200);
  EXPECT_EQ(full.headers.at("accept-ranges"), "bytes");
  const std::size_t total = full.body.size();
  const std::string total_str = std::to_string(total);
  ASSERT_GT(total, 16u);

  w::HttpClient client(port);
  const auto ranged = [&](const std::string& spec) {
    return client.exchange("GET /api/image HTTP/1.1\r\nHost: x\r\nRange: " +
                               spec + "\r\n\r\n",
                           10.0, true);
  };

  // An explicit a-b window.
  const auto head4 = ranged("bytes=0-3");
  EXPECT_EQ(head4.status, 206);
  EXPECT_EQ(head4.body, full.body.substr(0, 4));
  EXPECT_EQ(head4.headers.at("content-range"), "bytes 0-3/" + total_str);
  EXPECT_EQ(static_cast<unsigned char>(head4.body[0]), 0x89);  // PNG magic

  // Open-ended a- reaches the final byte.
  const auto tail = ranged("bytes=" + std::to_string(total - 5) + "-");
  EXPECT_EQ(tail.status, 206);
  EXPECT_EQ(tail.body, full.body.substr(total - 5));
  EXPECT_EQ(tail.headers.at("content-range"),
            "bytes " + std::to_string(total - 5) + "-" +
                std::to_string(total - 1) + "/" + total_str);

  // Suffix form -N: the last N bytes.
  const auto suffix = ranged("bytes=-6");
  EXPECT_EQ(suffix.status, 206);
  EXPECT_EQ(suffix.body, full.body.substr(total - 6));

  // A last-byte position past the end clamps (RFC 7233: satisfiable).
  const auto clamped = ranged("bytes=4-" + std::to_string(total + 100));
  EXPECT_EQ(clamped.status, 206);
  EXPECT_EQ(clamped.body, full.body.substr(4));

  // First byte at/after the end: 416 with the star form.
  const auto beyond = ranged("bytes=" + total_str + "-");
  EXPECT_EQ(beyond.status, 416);
  EXPECT_EQ(beyond.headers.at("content-range"), "bytes */" + total_str);

  // Numbers too long for any integer type count as larger than any body:
  // an over-long first byte is unsatisfiable, an over-long suffix length
  // serves the whole body, an over-long last byte clamps.
  const std::string huge = "99999999999999999999999";
  const auto huge_first = ranged("bytes=" + huge + "-");
  EXPECT_EQ(huge_first.status, 416);
  EXPECT_EQ(huge_first.headers.at("content-range"), "bytes */" + total_str);
  const auto huge_suffix = ranged("bytes=-" + huge);
  EXPECT_EQ(huge_suffix.status, 206);
  EXPECT_EQ(huge_suffix.body, full.body);
  const auto huge_last = ranged("bytes=0-" + huge);
  EXPECT_EQ(huge_last.status, 206);
  EXPECT_EQ(huge_last.body, full.body);
  EXPECT_EQ(huge_last.headers.at("content-range"),
            "bytes 0-" + std::to_string(total - 1) + "/" + total_str);

  // Malformed and multi-range specs are ignored — full 200, not an error.
  EXPECT_EQ(ranged("bytes=abc").status, 200);
  const auto multi = ranged("bytes=0-1,4-5");
  EXPECT_EQ(multi.status, 200);
  EXPECT_EQ(multi.body.size(), total);
  fe.stop();
}

TEST(AjaxFrontEnd, SeededRangeReplayGetsOnlyWellFormedAnswers) {
  // One frame, then an hour's wait for the next (stop() ends it at once):
  // every answer is cut from the same PNG.
  w::FrontEndConfig config = small_frontend();
  config.frame_interval_s = 3600.0;
  w::AjaxFrontEnd fe(config);
  const int port = fe.start();
  while (fe.frame_seq() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const std::string png = w::http_get(port, "/api/image").body;
  ASSERT_GT(png.size(), 16u);
  const std::string total = std::to_string(png.size());

  const std::vector<std::string> corpus = {
      "bytes=0-3",
      "bytes=" + std::to_string(png.size() - 5) + "-",
      "bytes=-6",
      "bytes=4-" + std::to_string(png.size() + 100),
      "bytes=" + total + "-",
      "bytes=-0",
      "bytes=0-1,4-5",
      "bytes=7-2",
  };
  // 2^64: one past the largest size_t.
  const std::vector<std::string> tokens = {
      "bytes=", "-", ",", "0", "1", "5", "9", "18446744073709551616"};
  ricsa::util::Xoshiro256 rng(0x52414e47);
  int full = 0;
  int partial = 0;
  int unsatisfiable = 0;
  for (int i = 0; i < 1000; ++i) {
    const std::string range = ricsa_test::mutate(
        corpus[static_cast<std::size_t>(i) % corpus.size()], rng, tokens);
    // A connection per case: a mutation that ends the head early leaves
    // the rest of the bytes as a second request, answered after this one.
    w::HttpClient client(port);
    const auto answer = client.exchange(
        "GET /api/image HTTP/1.1\r\nHost: x\r\nRange: " + range + "\r\n\r\n",
        10.0, false);
    const std::string where = "case " + std::to_string(i) + " Range: " + range;
    if (answer.status == 200) {
      ++full;
      ASSERT_EQ(answer.body, png) << where;
    } else if (answer.status == 206) {
      ++partial;
      const std::string& content_range = answer.headers.at("content-range");
      unsigned long long first = 0;
      unsigned long long last = 0;
      unsigned long long length = 0;
      ASSERT_EQ(std::sscanf(content_range.c_str(), "bytes %llu-%llu/%llu",
                            &first, &last, &length),
                3)
          << where;
      ASSERT_EQ(content_range, "bytes " + std::to_string(first) + "-" +
                                   std::to_string(last) + "/" + total)
          << where;
      ASSERT_LE(first, last) << where;
      ASSERT_LT(last, png.size()) << where;
      ASSERT_EQ(answer.body, png.substr(first, last - first + 1)) << where;
    } else if (answer.status == 416) {
      ++unsatisfiable;
      ASSERT_EQ(answer.headers.at("content-range"), "bytes */" + total)
          << where;
    } else {
      ASSERT_EQ(answer.status, 400) << where;
      ASSERT_NE(range.find_first_of("\r\n"), std::string::npos) << where;
    }
  }
  // Most mutations leave a range the parser ignores (a full 200); the
  // seed reaches 943 full, 44 partial and 13 unsatisfiable answers.
  EXPECT_GT(full, 100);
  EXPECT_GT(partial, 20);
  EXPECT_GT(unsatisfiable, 5);
  EXPECT_EQ(w::http_get(port, "/api/state").status, 200);
  EXPECT_EQ(w::http_get(port, "/api/image").body, png);
  fe.stop();
}
