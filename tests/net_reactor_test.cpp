// Reactor subsystem tests: the timer wheel and event loop in isolation,
// then the reactor-driven HTTP server's connection state machine at its
// edges —
//  * slow-loris partial request lines die at the idle deadline while a
//    slow-but-steady sender inside the per-byte window survives,
//  * a response bigger than the socket buffers drains correctly across
//    EAGAIN / EPOLLOUT cycles,
//  * a timer-driven poll timeout fires while an earlier pipelined
//    response's write is still pending, and both leave in request order,
//  * the connection cap answers 503 instead of crashing or hanging, and
//    frees capacity when a connection leaves.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/reactor.hpp"
#include "net/socket.hpp"
#include "net/timer_wheel.hpp"
#include "proc_threads.hpp"
#include "response_reader.hpp"
#include "web/http.hpp"
#include "web/hub.hpp"

namespace n = ricsa::net;
namespace w = ricsa::web;

using Clock = std::chrono::steady_clock;

namespace {

/// Blocking loopback connect for driving the server with raw bytes.
/// `rcvbuf` > 0 shrinks SO_RCVBUF before connecting (it must be set
/// pre-connect to bound the advertised window).
int raw_connect(int port, int rcvbuf = 0, double recv_timeout_s = 5.0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  if (rcvbuf > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  }
  timeval tv{static_cast<time_t>(recv_timeout_s),
             static_cast<suseconds_t>(
                 (recv_timeout_s - static_cast<time_t>(recv_timeout_s)) * 1e6)};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

using RawResponse = w::HttpClient::Response;
using ricsa_test::read_response;

bool send_all(int fd, const std::string& text) {
  return w::detail::write_all(fd, text.data(), text.size());
}

}  // namespace

// ------------------------------------------------------------ TimerWheel --

TEST(TimerWheel, FiresAtDeadlineGranularityAndHonorsCancel) {
  n::TimerWheel wheel(std::chrono::milliseconds(1), 8);
  const auto t0 = Clock::now();
  int fired = 0;
  wheel.schedule(t0 + std::chrono::milliseconds(2), [&] { fired += 1; });
  const std::uint64_t id =
      wheel.schedule(t0 + std::chrono::milliseconds(3), [&] { fired += 10; });
  EXPECT_EQ(wheel.pending(), 2u);

  // Nothing due yet (deadline + one tick of slack).
  wheel.advance(t0 + std::chrono::milliseconds(1));
  EXPECT_EQ(fired, 0);

  EXPECT_TRUE(wheel.cancel(id));
  EXPECT_FALSE(wheel.cancel(id));  // already gone

  wheel.advance(t0 + std::chrono::milliseconds(4));
  EXPECT_EQ(fired, 1);  // the cancelled entry stayed silent
  EXPECT_EQ(wheel.pending(), 0u);
}

TEST(TimerWheel, EntryBeyondOneRevolutionWaitsItsRound) {
  // 8 slots x 1 ms: a 20 ms deadline shares a bucket with earlier ticks
  // and must not fire until its own revolution comes around.
  n::TimerWheel wheel(std::chrono::milliseconds(1), 8);
  const auto t0 = Clock::now();
  bool fired = false;
  wheel.schedule(t0 + std::chrono::milliseconds(20), [&] { fired = true; });
  for (int ms = 1; ms <= 12; ++ms) {
    wheel.advance(t0 + std::chrono::milliseconds(ms));
  }
  EXPECT_FALSE(fired);
  wheel.advance(t0 + std::chrono::milliseconds(22));
  EXPECT_TRUE(fired);
}

TEST(TimerWheel, LateAdvanceStillFiresEverySkippedEntry) {
  // A stalled driver (one big jump past many ticks) must fire everything
  // due, not just the entries in the last few slots.
  n::TimerWheel wheel(std::chrono::milliseconds(1), 8);
  const auto t0 = Clock::now();
  int fired = 0;
  for (int ms = 1; ms <= 30; ++ms) {
    wheel.schedule(t0 + std::chrono::milliseconds(ms), [&] { ++fired; });
  }
  wheel.advance(t0 + std::chrono::milliseconds(200));
  EXPECT_EQ(fired, 30);
  EXPECT_EQ(wheel.pending(), 0u);
}

// --------------------------------------------------------------- Reactor --

TEST(Reactor, RunsPostedTasksAndTimersOnTheLoopThread) {
  n::Reactor reactor;
  std::thread loop([&] { reactor.run(); });

  std::atomic<bool> posted_ran{false};
  std::atomic<bool> on_loop{false};
  reactor.post([&] {
    posted_ran = true;
    on_loop = reactor.in_loop_thread();
  });

  std::atomic<bool> timer_fired{false};
  // Timer registration is loop-thread-only; bounce through post().
  reactor.post(
      [&] { reactor.run_after(0.02, [&] { timer_fired = true; }); });

  const auto deadline = Clock::now() + std::chrono::seconds(2);
  while (!timer_fired.load() && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(posted_ran.load());
  EXPECT_TRUE(on_loop.load());
  EXPECT_TRUE(timer_fired.load());

  std::atomic<bool> cancelled{false};
  std::atomic<bool> never{false};
  reactor.post([&] {
    const std::uint64_t id = reactor.run_after(30.0, [&] { never = true; });
    cancelled = reactor.cancel(id);
  });

  // A task posted before stop() is guaranteed to run (shutdown sequences
  // depend on it).
  std::atomic<bool> last_task{false};
  reactor.post([&] { last_task = true; });
  reactor.stop();
  loop.join();
  EXPECT_TRUE(last_task.load());
  EXPECT_TRUE(cancelled.load());
  EXPECT_FALSE(never.load());
  // After the loop exits, post() refuses instead of queueing forever.
  EXPECT_FALSE(reactor.post([] {}));
}

// ------------------------------------------------------------ slow loris --

TEST(ReactorHttp, SlowLorisPartialRequestDiesAtIdleDeadline) {
  w::HttpServer server;
  server.set_idle_read_timeout(0.3);
  server.route("GET", "/hello",
               [](const w::HttpRequest&) { return w::HttpResponse::text("hi"); });
  const int port = server.start();

  const int fd = raw_connect(port, 0, 3.0);
  ASSERT_TRUE(send_all(fd, "GET /hel"));  // a request line that never ends
  const auto t0 = Clock::now();
  char buf[64];
  const ssize_t got = ::recv(fd, buf, sizeof(buf), 0);  // blocks until close
  const double waited =
      std::chrono::duration<double>(Clock::now() - t0).count();
  EXPECT_EQ(got, 0);  // orderly close from the server, not a timeout
  EXPECT_GE(waited, 0.15);
  EXPECT_LT(waited, 2.0);
  ::close(fd);
  server.stop();
}

TEST(ReactorHttp, SlowButSteadySenderSurvivesThePerByteWindow) {
  w::HttpServer server;
  server.set_idle_read_timeout(0.3);
  server.route("GET", "/hello",
               [](const w::HttpRequest&) { return w::HttpResponse::text("hi"); });
  const int port = server.start();

  // Total request time (~0.45 s) exceeds the deadline, but every byte
  // arrives within it: the deadline is idle time, not request time.
  const int fd = raw_connect(port);
  for (const char* piece : {"GET /hello", " HTTP/1.1\r\nHost: x\r\n",
                            "Connection: close\r\n\r\n"}) {
    ASSERT_TRUE(send_all(fd, piece));
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
  }
  std::string carry;
  RawResponse response;
  ASSERT_TRUE(read_response(fd, carry, response));
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "hi");
  ::close(fd);
  server.stop();
}

TEST(ReactorHttp, RequestThenFinClientIsStillServed) {
  // A legal HTTP client may send its request and immediately shut down its
  // write side; the FIN must not make the server drop the request.
  w::HttpServer server;
  server.route("GET", "/hello",
               [](const w::HttpRequest&) { return w::HttpResponse::text("hi"); });
  const int port = server.start();

  const int fd = raw_connect(port);
  ASSERT_TRUE(send_all(
      fd, "GET /hello HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"));
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
  std::string carry;
  RawResponse response;
  ASSERT_TRUE(read_response(fd, carry, response));
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "hi");
  // ...and the connection closes afterwards instead of lingering.
  char buf[16];
  EXPECT_EQ(::recv(fd, buf, sizeof(buf), 0), 0);
  ::close(fd);
  server.stop();
}

TEST(ReactorHttp, PipelinedRequestsThenFinAreAllServed) {
  // Three requests and the FIN in one burst. The handlers answer inline on
  // the reactor, so each response is written before the next request is
  // parsed; the half-closed peer must still get all three, the 404 of an
  // unknown path included, and only then see the connection close.
  w::HttpServer server;
  server.route("GET", "/hello",
               [](const w::HttpRequest&) { return w::HttpResponse::text("hi"); });
  const int port = server.start();

  const int fd = raw_connect(port);
  ASSERT_TRUE(send_all(fd,
                       "GET /hello HTTP/1.1\r\nHost: x\r\n\r\n"
                       "GET /missing HTTP/1.1\r\nHost: x\r\n\r\n"
                       "GET /hello HTTP/1.1\r\nHost: x\r\n\r\n"));
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
  std::string carry;
  for (const int status : {200, 404, 200}) {
    RawResponse response;
    ASSERT_TRUE(read_response(fd, carry, response)) << status;
    EXPECT_EQ(response.status, status);
  }
  char buf[16];
  EXPECT_EQ(::recv(fd, buf, sizeof(buf), 0), 0);
  ::close(fd);
  server.stop();
}

TEST(ReactorHttp, TransferEncodedRequestGets501ThenCloseNeverAMisparse) {
  // Request bodies are delimited by Content-Length only. A chunked POST
  // must be answered 501 and the connection closed: its chunk bytes, and
  // the GET pipelined behind them, are never parsed as requests.
  w::HttpServer server;
  std::atomic<int> handled{0};
  const auto count = [&](const w::HttpRequest&) {
    ++handled;
    return w::HttpResponse::text("ok");
  };
  server.route("POST", "/api/steer", count);
  server.route("GET", "/api/state", count);
  server.route("GET", "/conflict", [](const w::HttpRequest&) {
    return w::HttpResponse::text("loop", 409);
  });
  const int port = server.start();

  // Everything the peer sends until its EOF (or a receive error).
  const auto read_to_eof = [](int fd, bool& clean_eof) {
    std::string bytes;
    char chunk[4096];
    ssize_t got;
    while ((got = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
      bytes.append(chunk, static_cast<std::size_t>(got));
    }
    clean_eof = got == 0;
    return bytes;
  };

  const int fd = raw_connect(port);
  ASSERT_TRUE(send_all(fd,
                       "POST /api/steer HTTP/1.1\r\nHost: x\r\n"
                       "Transfer-Encoding: chunked\r\n\r\n"
                       "e\r\n{\"gamma\":1.55}\r\n0\r\n\r\n"
                       "GET /api/state HTTP/1.1\r\nHost: x\r\n\r\n"));
  bool clean_eof = false;
  std::string carry = read_to_eof(fd, clean_eof);
  ::close(fd);
  EXPECT_TRUE(clean_eof);
  EXPECT_EQ(carry.rfind("HTTP/1.1 501 Not Implemented\r\n", 0), 0u) << carry;
  RawResponse response;
  ASSERT_TRUE(read_response(-1, carry, response));
  EXPECT_EQ(response.status, 501);
  EXPECT_EQ(response.headers["connection"], "close");
  EXPECT_TRUE(carry.empty()) << "a second response followed: " << carry;
  EXPECT_EQ(handled.load(), 0);

  // The relay's loop guard answers 409, which goes out with its phrase.
  const int fd2 = raw_connect(port);
  ASSERT_TRUE(send_all(
      fd2, "GET /conflict HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"));
  const std::string conflict = read_to_eof(fd2, clean_eof);
  ::close(fd2);
  EXPECT_EQ(conflict.rfind("HTTP/1.1 409 Conflict\r\n", 0), 0u) << conflict;
  server.stop();
}

// ------------------------------------------- EAGAIN mid-response writes --

TEST(ReactorHttp, ResponseLargerThanSocketBuffersDrainsAcrossEagain) {
  std::string big(12u << 20, '\0');
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>('a' + (i % 26));
  }
  w::HttpServer server;
  server.route("GET", "/big", [&big](const w::HttpRequest&) {
    return w::HttpResponse::text(big);
  });
  const int port = server.start();

  // A tiny receive buffer plus a read delay forces the server deep into
  // EAGAIN territory: the response must park on EPOLLOUT and resume.
  const int fd = raw_connect(port, 4096, 10.0);
  ASSERT_TRUE(send_all(
      fd, "GET /big HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  std::string carry;
  RawResponse response;
  ASSERT_TRUE(read_response(fd, carry, response));
  EXPECT_EQ(response.status, 200);
  ASSERT_EQ(response.body.size(), big.size());
  EXPECT_EQ(response.body, big);  // no bytes lost or reordered at any seam
  ::close(fd);
  server.stop();
}

// ----------------------- poll timeout firing while a write is pending --

TEST(ReactorHttp, HubPollTimeoutFiresWhileEarlierWriteIsPending) {
  std::string big(8u << 20, 'x');
  w::HttpServer server;
  w::FrameHub::Config hub_config;
  hub_config.reactor = &server.reactor();  // hub deadlines on the same loop
  w::FrameHub hub(hub_config);

  server.route("GET", "/big", [&big](const w::HttpRequest&) {
    return w::HttpResponse::text(big);
  });
  server.route_async(
      "GET", "/park",
      [&hub](const w::HttpRequest&, w::HttpServer::ResponseSink sink) {
        // Nothing is ever published: this waiter can only complete through
        // the reactor-registered timeout sweep.
        hub.wait_async(1000, 0.25, [sink](w::FramePtr frame) {
          sink(w::HttpResponse::json(frame ? "{\"frame\":true}"
                                           : "{\"timeout\":true}"));
        });
      });
  const int port = server.start();

  // Pipeline both requests, then refuse to read long enough that the /big
  // response is parked on a full socket buffer when the /park timeout
  // timer fires. Responses must still arrive complete and in order.
  const int fd = raw_connect(port, 4096, 10.0);
  ASSERT_TRUE(send_all(fd,
                       "GET /big HTTP/1.1\r\nHost: x\r\n\r\n"
                       "GET /park HTTP/1.1\r\nHost: x\r\n\r\n"));
  std::this_thread::sleep_for(std::chrono::milliseconds(600));

  std::string carry;
  RawResponse first, second;
  ASSERT_TRUE(read_response(fd, carry, first));
  EXPECT_EQ(first.status, 200);
  EXPECT_EQ(first.body.size(), big.size());
  ASSERT_TRUE(read_response(fd, carry, second));
  EXPECT_EQ(second.status, 200);
  EXPECT_NE(second.body.find("timeout"), std::string::npos);

  const auto stats = hub.stats();
  EXPECT_EQ(stats.timeouts, 1u);
  ::close(fd);
  hub.shutdown();
  server.stop();
}

// ------------------------------------------------- connection cap / 503 --

TEST(ReactorHttp, ConnectionCapAnswers503AndRecoversWhenSlotsFree) {
  w::HttpServer server;
  server.set_max_connections(2);
  server.route("GET", "/hello",
               [](const w::HttpRequest&) { return w::HttpResponse::text("hi"); });
  const int port = server.start();

  // Two keep-alive clients occupy the cap.
  w::HttpClient a(port), b(port);
  EXPECT_EQ(a.get("/hello").body, "hi");
  EXPECT_EQ(b.get("/hello").body, "hi");

  // The third connection is told 503 instead of hanging or crashing.
  const auto rejected = w::http_get(port, "/hello");
  EXPECT_EQ(rejected.status, 503);
  EXPECT_GE(server.connections_rejected(), 1u);

  // Freeing a slot restores service for new connections.
  a.close();
  const auto deadline = Clock::now() + std::chrono::seconds(2);
  int status = 0;
  while (Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    status = w::http_get(port, "/hello").status;
    if (status == 200) break;
  }
  EXPECT_EQ(status, 200);
  EXPECT_EQ(b.get("/hello").body, "hi");  // survivor unaffected
  server.stop();
}

// ------------------------------------------------------- thread budget --

TEST(ReactorHttp, ParkedConnectionsDoNotGrowServerThreads) {
  // 64 parked long-polls: with thread-per-connection this needed 64 server
  // threads. The server runs its reactor and nothing else — the handlers
  // run on it too — however many connections it holds.
  w::HttpServer server;
  std::atomic<int> parked{0};
  std::vector<w::HttpServer::ResponseSink> sinks;
  std::mutex sinks_mutex;
  server.route_async("GET", "/park",
                     [&](const w::HttpRequest&, w::HttpServer::ResponseSink s) {
                       std::lock_guard<std::mutex> lock(sinks_mutex);
                       sinks.push_back(std::move(s));
                       ++parked;
                     });
  const long before = ricsa_test::baseline_threads();
  const int port = server.start();
  const long reactors = static_cast<long>(server.reactor_count());
  EXPECT_EQ(ricsa_test::process_threads(), before + reactors);

  std::vector<std::unique_ptr<w::HttpClient>> clients;
  std::vector<std::thread> pollers;
  for (int i = 0; i < 64; ++i) {
    clients.push_back(std::make_unique<w::HttpClient>(port));
  }
  for (int i = 0; i < 64; ++i) {
    pollers.emplace_back([&, i] {
      try {
        clients[static_cast<std::size_t>(i)]->get("/park", 10.0);
      } catch (const std::exception&) {
      }
    });
  }
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  while (parked.load() < 64 && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(parked.load(), 64);
  EXPECT_EQ(server.connections_open(), 64u);
  // The only new threads are the test's own 64 pollers.
  EXPECT_EQ(ricsa_test::process_threads(), before + reactors + 64);

  // Release everyone and let the clients finish.
  {
    std::lock_guard<std::mutex> lock(sinks_mutex);
    for (const auto& sink : sinks) sink(w::HttpResponse::text("go"));
  }
  for (auto& t : pollers) t.join();
  server.stop();
}
