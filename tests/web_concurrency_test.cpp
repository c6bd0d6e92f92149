// Concurrency tests for the long-poll broadcast hub: 64 simultaneous
// browsers (including a slow-consumer mix) against one AjaxFrontEnd, plus
// FrameHub unit coverage for delta encoding, window eviction, timeouts and
// shutdown ordering.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "hub_loop.hpp"
#include "time_scale.hpp"
#include "util/json.hpp"
#include "web/frontend.hpp"
#include "web/http.hpp"
#include "web/hub.hpp"

namespace w = ricsa::web;
using ricsa::util::Json;

namespace {

w::FrontEndConfig fast_config() {
  w::FrontEndConfig config;
  config.session.resolution = 12;
  config.session.cycles_per_frame = 1;
  config.frame_interval_s = 0.02;
  config.frame_window = 256;
  return config;
}

struct ClientLog {
  std::vector<std::uint64_t> seqs;
  int errors = 0;
};

/// Long-poll until `deadline`, recording every received frame seq.
void poll_loop(int port, std::chrono::steady_clock::time_point deadline,
               double inter_poll_delay_s, ClientLog& log) {
  w::HttpClient http(port);
  std::uint64_t since = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    Json body;
    try {
      body = Json::parse(
          http.get("/api/poll?since=" + std::to_string(since) +
                       "&delta=1&timeout=1",
                   5.0)
              .body);
    } catch (const std::exception&) {
      ++log.errors;
      continue;
    }
    if (body.contains("timeout")) continue;
    const auto seq = static_cast<std::uint64_t>(body.at("seq").as_number());
    if (seq <= since) {
      ++log.errors;  // hub must never move a cursor backwards
      continue;
    }
    log.seqs.push_back(seq);
    since = seq;
    if (inter_poll_delay_s > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(inter_poll_delay_s));
    }
  }
}

}  // namespace

// ------------------------------------------------- 64 concurrent pollers ----

TEST(WebConcurrency, SixtyFourPollersSeeGapFreeStrictlyIncreasingStreams) {
  w::AjaxFrontEnd frontend(fast_config());
  const int port = frontend.start();

  constexpr int kClients = 64;
  constexpr int kSlowEvery = 8;  // every 8th client is a slow consumer
  const auto deadline =
      std::chrono::steady_clock::now() + ricsa_test::scaled_ms(2500);

  std::vector<ClientLog> logs(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  std::atomic<bool> steering_done{false};
  for (int i = 0; i < kClients; ++i) {
    const double delay = (i % kSlowEvery == 0) ? 0.06 : 0.0;
    clients.emplace_back(poll_loop, port, deadline, delay, std::ref(logs[i]));
  }
  // Steering POSTs land while everyone is polling.
  std::thread steerer([port, &steering_done] {
    for (int k = 0; k < 10; ++k) {
      const auto r = w::http_post(port, "/api/steer",
                                  "{\"cfl\": 0." + std::to_string(k + 1) + "}");
      EXPECT_EQ(r.status, 200);
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    steering_done = true;
  });

  for (auto& t : clients) t.join();
  steerer.join();
  EXPECT_TRUE(steering_done.load());
  EXPECT_GE(frontend.steer_count(), 10u);

  for (int i = 0; i < kClients; ++i) {
    const ClientLog& log = logs[i];
    EXPECT_EQ(log.errors, 0) << "client " << i;
    // No starvation: every client — slow consumers included — made progress.
    ASSERT_GE(log.seqs.size(), 3u) << "client " << i;
    // Strictly increasing AND gap-free: the retention window replays every
    // frame in order to clients that fall behind.
    for (std::size_t k = 1; k < log.seqs.size(); ++k) {
      ASSERT_EQ(log.seqs[k], log.seqs[k - 1] + 1)
          << "client " << i << " saw a gap at poll " << k;
    }
  }
  frontend.stop();
}

TEST(WebConcurrency, SteeredParameterReachesAllWatchers) {
  w::AjaxFrontEnd frontend(fast_config());
  const int port = frontend.start();

  ASSERT_EQ(w::http_post(port, "/api/steer", "{\"cfl\": 0.123}").status, 200);

  // The parameter must show up in the monitored state within a few frames.
  w::HttpClient http(port);
  bool seen = false;
  std::uint64_t since = 0;
  for (int attempt = 0; attempt < 100 && !seen; ++attempt) {
    const Json body = Json::parse(
        http.get("/api/poll?since=" + std::to_string(since) + "&timeout=1", 5.0)
            .body);
    if (body.contains("timeout")) continue;
    since = static_cast<std::uint64_t>(body.at("seq").as_number());
    const Json& params = body.at("state").at("parameters");
    seen = params.contains("cfl") &&
           std::abs(params.at("cfl").as_number() - 0.123) < 1e-9;
  }
  EXPECT_TRUE(seen);
  frontend.stop();
}

TEST(WebConcurrency, SteersAndViewChangesRaceTheMonitorLoop) {
  // steer() numbers its message on a reactor while set_variable() numbers
  // its own on the monitor loop, from one session counter: two steering
  // clients and one switching variables for about a second (longer under
  // TSAN, which CI runs this under). Frames keep coming, and every
  // accepted steer is counted.
  w::AjaxFrontEnd frontend(fast_config());
  const int port = frontend.start();
  while (frontend.frame_seq() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const std::uint64_t seq_before = frontend.frame_seq();
  const auto deadline =
      std::chrono::steady_clock::now() + ricsa_test::scaled_ms(1000);
  std::atomic<std::uint64_t> steers{0};
  std::atomic<int> views{0};
  std::atomic<int> failures{0};
  const auto post_until_deadline = [&](const std::string& path,
                                       const std::vector<std::string>& bodies,
                                       const auto& on_ok) {
    w::HttpClient http(port);
    for (std::size_t k = 0; std::chrono::steady_clock::now() < deadline; ++k) {
      try {
        if (http.post(path, bodies[k % bodies.size()], "application/json",
                      5.0).status == 200) {
          on_ok();
        } else {
          ++failures;
        }
      } catch (const std::exception&) {
        ++failures;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  };
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&] {
      post_until_deadline("/api/steer", {"{\"cfl\": 0.3}", "{\"cfl\": 0.4}"},
                          [&] { ++steers; });
    });
  }
  clients.emplace_back([&] {
    post_until_deadline(
        "/api/view",
        {"{\"variable\":\"pressure\"}", "{\"variable\":\"density\"}"},
        [&] { ++views; });
  });
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(views.load(), 0);
  EXPECT_GT(steers.load(), 0u);
  EXPECT_EQ(frontend.steer_count(), steers.load());
  // The monitor loop kept publishing through the storm.
  const std::uint64_t seq_after = frontend.frame_seq();
  EXPECT_GE(seq_after, seq_before + 3);
  frontend.stop();
}

// ------------------------------------------------------------- FrameHub ----

namespace {
Json state_of(const char* cycle, double value) {
  Json s;
  s["variable"] = cycle;
  s["value"] = value;
  return s;
}
}  // namespace

TEST(FrameHub, DeltaBodyCarriesOnlyChangedKeys) {
  ricsa_test::HubLoop loop;
  w::FrameHub hub(w::FrameHub::Config{
      .window = 4, .max_wait_s = 5.0, .reactor = loop.get()});
  hub.publish(state_of("density", 1.0), std::vector<std::uint8_t>{0xAA, 0xBB});
  hub.publish(state_of("density", 2.0),
              std::vector<std::uint8_t>{0xAA, 0xBB});  // same image bytes

  const w::FramePtr frame = hub.latest();
  ASSERT_TRUE(frame);
  EXPECT_EQ(frame->seq, 2u);
  EXPECT_EQ(frame->delta_keys, 1u);  // only "value" changed
  EXPECT_FALSE(frame->image_changed);

  const Json delta = Json::parse(frame->body(w::Tier::kFull, true));
  EXPECT_TRUE(delta.at("delta").as_bool());
  EXPECT_TRUE(delta.at("state").contains("value"));
  EXPECT_FALSE(delta.at("state").contains("variable"));
  EXPECT_FALSE(delta.contains("image_b64"));  // image unchanged -> omitted

  const Json full = Json::parse(frame->body(w::Tier::kFull, false));
  EXPECT_TRUE(full.at("state").contains("variable"));
  EXPECT_TRUE(full.contains("image_b64"));
  EXPECT_EQ(full.at("tier").as_string(), "full");

  // The state-only tier never carries an image; the half tier reuses the
  // given PNG bytes when publish() received pre-encoded input.
  const Json state_only = Json::parse(frame->body(w::Tier::kStateOnly, false));
  EXPECT_FALSE(state_only.contains("image_b64"));
  EXPECT_EQ(state_only.at("tier").as_string(), "state");
  EXPECT_TRUE(state_only.at("state").contains("variable"));
}

TEST(FrameHub, WindowEvictionBoundsMemoryAndJumpsMinimally) {
  ricsa_test::HubLoop loop;
  w::FrameHub hub(w::FrameHub::Config{
      .window = 3, .max_wait_s = 5.0, .reactor = loop.get()});
  for (int i = 1; i <= 10; ++i) hub.publish(state_of("density", i), std::vector<std::uint8_t>{});

  EXPECT_EQ(hub.seq(), 10u);
  EXPECT_EQ(hub.oldest_retained(), 8u);  // window of 3: frames 8, 9, 10

  // A cursor inside the window replays the exact next frame...
  ASSERT_TRUE(hub.next_after(8));
  EXPECT_EQ(hub.next_after(8)->seq, 9u);
  // ...a cursor that fell past the edge jumps to the oldest retained frame.
  ASSERT_TRUE(hub.next_after(2));
  EXPECT_EQ(hub.next_after(2)->seq, 8u);
  // ...and a current cursor has nothing to read.
  EXPECT_EQ(hub.next_after(10), nullptr);
}

TEST(FrameHub, WaitAsyncCompletesInlineWhenFrameExists) {
  ricsa_test::HubLoop loop;
  w::FrameHub hub(w::FrameHub::Config{
      .window = 4, .max_wait_s = 5.0, .reactor = loop.get()});
  hub.publish(state_of("density", 1.0), std::vector<std::uint8_t>{});

  std::atomic<bool> done{false};
  hub.wait_async(0, 1.0, [&](w::FramePtr frame) {
    EXPECT_TRUE(frame);
    EXPECT_EQ(frame->seq, 1u);
    done = true;
  });
  EXPECT_TRUE(done.load());  // no frame to wait for: completed on our thread
}

TEST(FrameHub, WaitAsyncFiresOnPublishFromReactor) {
  ricsa_test::HubLoop loop;
  w::FrameHub hub(w::FrameHub::Config{
      .window = 4, .max_wait_s = 5.0, .reactor = loop.get()});
  std::atomic<std::uint64_t> got{0};
  hub.wait_async(0, 5.0, [&](w::FramePtr frame) {
    got = frame ? frame->seq : 0;
  });
  EXPECT_EQ(got.load(), 0u);  // parked

  hub.publish(state_of("density", 1.0), std::vector<std::uint8_t>{});
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (got.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(got.load(), 1u);
}

TEST(FrameHub, WaitTimesOutWithoutAFrame) {
  ricsa_test::HubLoop loop;
  w::FrameHub hub(w::FrameHub::Config{
      .window = 4, .max_wait_s = 5.0, .reactor = loop.get()});
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(ricsa_test::wait_for(hub, 0, 0.05), nullptr);
  EXPECT_GE(std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                .count(),
            0.045);
  EXPECT_EQ(hub.stats().timeouts, 1u);
}

TEST(FrameHub, AsyncWaiterTimesOutViaSweeper) {
  ricsa_test::HubLoop loop;
  w::FrameHub hub(w::FrameHub::Config{
      .window = 4, .max_wait_s = 5.0, .reactor = loop.get()});
  std::atomic<int> state{0};  // 0 pending, 1 null-completion, 2 got a frame
  hub.wait_async(0, 0.05, [&](w::FramePtr frame) {
    state = frame ? 2 : 1;
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (state.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(state.load(), 1);
}

TEST(FrameHub, ShutdownFlushesParkedWaitersAndRefusesNewOnes) {
  ricsa_test::HubLoop loop;
  w::FrameHub hub(w::FrameHub::Config{
      .window = 4, .max_wait_s = 5.0, .reactor = loop.get()});
  std::atomic<int> completions{0};
  for (int i = 0; i < 8; ++i) {
    hub.wait_async(0, 30.0, [&](w::FramePtr frame) {
      EXPECT_EQ(frame, nullptr);
      ++completions;
    });
  }
  hub.shutdown();
  // shutdown() runs what is left on its caller: every callback has run by
  // now.
  EXPECT_EQ(completions.load(), 8);

  // Post-shutdown interactions are inert, not crashes.
  EXPECT_EQ(hub.publish(state_of("density", 1.0), std::vector<std::uint8_t>{}),
            0u);
  std::atomic<bool> refused{false};
  hub.wait_async(0, 1.0, [&](w::FramePtr frame) {
    EXPECT_EQ(frame, nullptr);
    refused = true;
  });
  EXPECT_TRUE(refused.load());
  EXPECT_EQ(ricsa_test::wait_for(hub, 0, 0.01), nullptr);
}

TEST(FrameHub, ShutdownRunsCompletionsTheReactorHasNotReached) {
  // A reactor whose loop never runs: a publish queues its completions for
  // a task that never comes. shutdown() must run them itself, each once
  // and with its frame, before it returns.
  ricsa::net::Reactor idle;
  w::FrameHub hub(w::FrameHub::Config{
      .window = 4, .max_wait_s = 5.0, .reactor = &idle});
  std::atomic<int> served{0};
  std::atomic<int> timed_out{0};
  for (int i = 0; i < 3; ++i) {
    hub.wait_async(0, 30.0, [&](w::FramePtr frame) {
      if (frame != nullptr && frame->seq == 1) ++served;
    });
  }
  hub.publish(state_of("density", 1.0), std::vector<std::uint8_t>{});
  hub.wait_async(1, 30.0, [&](w::FramePtr frame) {
    if (frame == nullptr) ++timed_out;
  });
  EXPECT_EQ(served.load(), 0);  // queued for the loop, not run inline
  hub.shutdown();
  EXPECT_EQ(served.load(), 3);
  EXPECT_EQ(timed_out.load(), 1);
  hub.shutdown();  // idempotent: nothing runs twice
  EXPECT_EQ(served.load(), 3);
}

TEST(FrameHub, FutureCursorsResyncInsteadOfParkingForever) {
  ricsa_test::HubLoop loop;
  w::FrameHub hub(w::FrameHub::Config{
      .window = 4, .max_wait_s = 5.0, .reactor = loop.get()});
  // A cursor claiming to be at seq 100 (stale client whose server restarted
  // and re-counts from 1) can never be satisfied in this epoch. The old
  // contract parked it until timeout — and the client, echoing the same
  // stale cursor each poll, parked forever. It is now clamped to the head
  // and resynced with the *next published* frame (not instantly: pre-resync
  // clients ignore sub-cursor frames and would re-poll at wire speed): an
  // empty hub serves it the first frame published...
  std::atomic<int> fired{0};
  hub.wait_async(100, 5.0, [&](w::FramePtr frame) {
    ASSERT_NE(frame, nullptr);
    EXPECT_EQ(frame->seq, 1u);
    ++fired;
  });
  hub.publish(state_of("density", 1.0), std::vector<std::uint8_t>{});
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (fired.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(fired.load(), 1);

  // ...and a hub that already holds frames parks it only until the next
  // publish, which serves that new frame — never the stale-cursor limbo.
  std::atomic<int> resynced{0};
  hub.wait_async(100, 5.0, [&](w::FramePtr frame) {
    ASSERT_NE(frame, nullptr);
    EXPECT_EQ(frame->seq, 2u);
    ++resynced;
  });
  EXPECT_EQ(resynced.load(), 0);  // parked, not answered instantly
  hub.publish(state_of("density", 2.0), std::vector<std::uint8_t>{});
  while (resynced.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(resynced.load(), 1);

  // The blocking flavour resyncs the same way.
  std::thread publisher([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    hub.publish(state_of("density", 3.0), std::vector<std::uint8_t>{});
  });
  const w::FramePtr blocking = ricsa_test::wait_for(hub, 500, 5.0);
  publisher.join();
  ASSERT_NE(blocking, nullptr);
  EXPECT_EQ(blocking->seq, 3u);
}

// ------------------------------------------------------ HttpClient reuse ----

TEST(HttpClient, KeepAliveConnectionSurvivesManyRequests) {
  w::AjaxFrontEnd frontend(fast_config());
  const int port = frontend.start();

  w::HttpClient http(port);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(http.get("/api/state", 5.0).status, 200);
  }
  EXPECT_EQ(http.reconnects(), 0);  // one TCP connection for all 20
  frontend.stop();
}

// ------------------------------------------------- multi-reactor server ----

namespace {

/// Hammer a multi-reactor HttpServer with keep-alive clients and verify
/// every response, whichever reactor owns the connection.
void exercise_multireactor(w::HttpServer& server, int clients,
                           int requests_each) {
  const int port = server.start();
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      w::HttpClient http(port);
      for (int r = 0; r < requests_each; ++r) {
        try {
          const auto response =
              http.get("/echo?c=" + std::to_string(c), 10.0);
          if (response.status == 200 &&
              response.body == "c=" + std::to_string(c)) {
            ++ok;
          }
        } catch (const std::exception&) {
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), clients * requests_each);
  // Keep-alive held: each client should have connected exactly once, so
  // the total served matches the request count.
  EXPECT_EQ(server.requests_served(),
            static_cast<std::uint64_t>(clients * requests_each));
  server.stop();
}

w::HttpServer::Handler echo_handler() {
  return [](const w::HttpRequest& request) {
    return w::HttpResponse::text(request.query);
  };
}

}  // namespace

TEST(MultiReactor, ReusePortAcceptServesKeepAliveClientsAcrossReactors) {
  w::HttpServer server;
  server.set_reactors(4);
  ASSERT_EQ(server.reactor_count(), 4u);
  server.route("GET", "/echo", echo_handler());
  exercise_multireactor(server, 16, 25);
}

TEST(MultiReactor, SingleReactorPathUnchanged) {
  w::HttpServer server;  // default: one reactor, plain listener
  ASSERT_EQ(server.reactor_count(), 1u);
  server.route("GET", "/echo", echo_handler());
  exercise_multireactor(server, 8, 10);
}

TEST(MultiReactor, FrontEndPollsAndStreamsAcrossFourReactors) {
  // The full stack — hub sweeps on reactor 0, connections owned by any of
  // the four loops, async poll completions posted to each connection's
  // home reactor — must behave exactly like the single-loop server.
  w::FrontEndConfig config = fast_config();
  config.reactors = 4;
  w::AjaxFrontEnd fe(config);
  const int port = fe.start();
  while (fe.frame_seq() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const auto deadline =
      std::chrono::steady_clock::now() + ricsa_test::scaled_ms(6000);
  constexpr int kPollers = 16;
  std::vector<ClientLog> logs(kPollers);
  std::vector<std::thread> threads;
  for (int i = 0; i < kPollers; ++i) {
    threads.emplace_back([&, i] {
      w::HttpClient http(port);
      std::uint64_t since = 0;
      while (logs[i].seqs.size() < 8 &&
             std::chrono::steady_clock::now() < deadline) {
        Json body;
        try {
          body = Json::parse(http.get("/api/poll?since=" +
                                          std::to_string(since) +
                                          "&delta=1&timeout=1",
                                      5.0)
                                 .body);
        } catch (const std::exception&) {
          ++logs[i].errors;
          continue;
        }
        if (body.contains("timeout")) continue;
        const auto seq =
            static_cast<std::uint64_t>(body.at("seq").as_number());
        if (seq <= since) {
          ++logs[i].errors;
          continue;
        }
        logs[i].seqs.push_back(seq);
        since = seq;
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < kPollers; ++i) {
    EXPECT_EQ(logs[i].errors, 0) << "poller " << i;
    ASSERT_GE(logs[i].seqs.size(), 8u) << "poller " << i;
    for (std::size_t k = 1; k < logs[i].seqs.size(); ++k) {
      // In-window pollers ride the gap-free contract reactor-independent.
      ASSERT_EQ(logs[i].seqs[k], logs[i].seqs[k - 1] + 1)
          << "poller " << i << " step " << k;
    }
  }
  fe.stop();
}
