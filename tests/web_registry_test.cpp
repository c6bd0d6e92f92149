// Multi-hub sharding tests: HubRegistry lifecycle (lazy creation, revival,
// idle reaping), cross-shard isolation under concurrency, the
// registry-level shared pacing session, and the `view=` HTTP contract end
// to end.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "hub_loop.hpp"
#include "util/json.hpp"
#include "viz/image.hpp"
#include "web/frontend.hpp"
#include "web/http.hpp"
#include "web/registry.hpp"

namespace w = ricsa::web;
namespace v = ricsa::viz;
using ricsa::util::Json;

namespace {

Json state_of(const std::string& view, double value) {
  Json s;
  s["view"] = view;
  s["value"] = value;
  return s;
}

/// A tiny image whose content moves with `step` (keeps tile deltas real).
v::Image scene(int step, int width = 48, int height = 32) {
  v::Image img(width, height, {10, 10, 30, 255});
  const int x0 = (step * 5) % (width - 8);
  const int y0 = (step * 3) % (height - 8);
  for (int y = y0; y < y0 + 8; ++y) {
    for (int x = x0; x < x0 + 8; ++x) {
      img.at(x, y) = {250, 200, 40, 255};
    }
  }
  return img;
}

w::HubRegistry::Config small_registry(ricsa::net::Reactor* reactor) {
  w::HubRegistry::Config config;
  config.hub.window = 64;
  config.hub.max_wait_s = 5.0;
  config.hub.reactor = reactor;
  config.idle_reap_s = 0.0;  // tests opt in explicitly
  return config;
}

}  // namespace

// ------------------------------------------------------- HubRegistry ----

TEST(HubRegistry, PublishDeclaresViewsAndUnknownSubscribesAre404Material) {
  ricsa_test::HubLoop loop;
  w::HubRegistry registry(small_registry(loop.get()));
  EXPECT_EQ(registry.subscribe("rho/iso"), nullptr);  // never declared

  EXPECT_EQ(registry.publish("rho/iso", state_of("rho/iso", 1.0), scene(0)),
            1u);
  EXPECT_EQ(registry.publish("rho/iso", state_of("rho/iso", 2.0), scene(1)),
            2u);
  EXPECT_EQ(registry.publish("pressure/slice",
                             state_of("pressure/slice", 1.0), scene(0)),
            1u);  // its own seq space

  const auto rho = registry.subscribe("rho/iso");
  ASSERT_NE(rho, nullptr);
  EXPECT_EQ(rho->seq(), 2u);
  EXPECT_EQ(registry.subscribe("nope"), nullptr);

  const auto names = registry.view_names();
  EXPECT_EQ(names.size(), 2u);
  EXPECT_TRUE(registry.known("pressure/slice"));
  EXPECT_FALSE(registry.known("nope"));

  const auto stats = registry.stats();
  EXPECT_EQ(stats.live, 2u);
  EXPECT_EQ(stats.known, 2u);
  EXPECT_EQ(stats.created, 2u);
  EXPECT_EQ(stats.reaped, 0u);
}

TEST(HubRegistry, MaxViewsBoundsThePublisherNamespace) {
  ricsa_test::HubLoop loop;
  w::HubRegistry::Config config = small_registry(loop.get());
  config.max_views = 2;
  w::HubRegistry registry(config);
  EXPECT_GT(registry.publish("a", state_of("a", 1.0), scene(0)), 0u);
  EXPECT_GT(registry.publish("b", state_of("b", 1.0), scene(0)), 0u);
  // A third name is refused; existing views keep publishing.
  EXPECT_EQ(registry.publish("c", state_of("c", 1.0), scene(0)), 0u);
  EXPECT_FALSE(registry.known("c"));
  EXPECT_GT(registry.publish("a", state_of("a", 2.0), scene(1)), 0u);
}

TEST(HubRegistry, ConcurrentPerViewStreamsAreGapFreeAndIsolated) {
  // N publishers, each into its own view, with per-view pollers: every
  // poller must see ITS view's frames as a strictly-increasing, gap-free
  // sequence carrying only that view's payloads — publishes into other
  // shards must never leak in or reorder anything.
  constexpr int kViews = 4;
  constexpr int kFrames = 40;
  constexpr int kPollersPerView = 3;
  ricsa_test::HubLoop loop;
  w::HubRegistry registry(small_registry(loop.get()));
  std::vector<std::string> views;
  for (int i = 0; i < kViews; ++i) {
    views.push_back("var" + std::to_string(i) + "/iso");
    // Declare before the pollers subscribe.
    registry.publish(views.back(), state_of(views.back(), 0.0), scene(0));
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> pollers;
  for (int vi = 0; vi < kViews; ++vi) {
    for (int p = 0; p < kPollersPerView; ++p) {
      pollers.emplace_back([&, vi] {
        const auto hub = registry.subscribe(views[static_cast<std::size_t>(vi)]);
        if (!hub) {
          ++failures;
          return;
        }
        std::uint64_t since = 0;
        while (since < kFrames + 1) {
          const w::FramePtr frame = ricsa_test::wait_for(*hub, since, 5.0);
          if (!frame) {
            ++failures;  // timeout mid-stream
            return;
          }
          if (frame->seq != since + 1) ++failures;  // gap
          if (frame->state.at("view").as_string() !=
              views[static_cast<std::size_t>(vi)]) {
            ++failures;  // cross-shard leak
          }
          since = frame->seq;
        }
      });
    }
  }

  std::vector<std::thread> publishers;
  for (int vi = 0; vi < kViews; ++vi) {
    publishers.emplace_back([&, vi] {
      const std::string& view = views[static_cast<std::size_t>(vi)];
      for (int k = 1; k <= kFrames; ++k) {
        registry.publish(view, state_of(view, k), scene(k));
      }
    });
  }
  for (auto& t : publishers) t.join();
  for (auto& t : pollers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(HubRegistry, SlowConsumerOnOneViewNeverDelaysAnotherShard) {
  ricsa_test::HubLoop loop;
  w::HubRegistry::Config config = small_registry(loop.get());
  config.hub.window = 8;  // a small window the slow view quickly overruns
  w::HubRegistry registry(config);
  registry.publish("slow/view", state_of("slow/view", 0.0), scene(0));
  registry.publish("fast/view", state_of("fast/view", 0.0), scene(0));

  // The slow consumer reads one frame and then parks forever (cursor far
  // behind while its shard's window wraps many times over).
  const auto slow_hub = registry.subscribe("slow/view");
  ASSERT_NE(slow_hub, nullptr);
  ASSERT_NE(ricsa_test::wait_for(*slow_hub, 0, 1.0), nullptr);

  // A fast consumer on the other shard, while both shards keep publishing.
  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    int k = 1;
    while (!stop.load()) {
      registry.publish("slow/view", state_of("slow/view", k), scene(k));
      registry.publish("fast/view", state_of("fast/view", k), scene(k));
      ++k;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  const auto fast_hub = registry.subscribe("fast/view");
  ASSERT_NE(fast_hub, nullptr);
  std::uint64_t since = fast_hub->seq();
  int received = 0;
  while (received < 64) {
    // The generous timeout is the isolation assertion: the fast shard must
    // keep delivering at the publish cadence while the slow shard's window
    // is overrun continuously behind the parked cursor. (Strict per-frame
    // gap-freeness under load is covered by the bounded-stream concurrent
    // test above; this one runs unthrottled and cannot assume scheduling.)
    const w::FramePtr frame = ricsa_test::wait_for(*fast_hub, since, 5.0);
    ASSERT_NE(frame, nullptr) << "fast view starved behind the slow one";
    ASSERT_GT(frame->seq, since);
    since = frame->seq;
    ++received;
  }
  stop.store(true);
  publisher.join();
  // The slow shard kept its own bounded window; the parked cursor did not
  // pin memory or stall its publisher either.
  EXPECT_GE(slow_hub->oldest_retained(), 2u);
  EXPECT_EQ(fast_hub->stats().timeouts, 0u);
}

TEST(HubRegistry, ReapingIdleViewCompletesParkedPollersAndRevivesOnPoll) {
  ricsa_test::HubLoop loop;
  w::HubRegistry::Config config = small_registry(loop.get());
  config.idle_reap_s = 0.05;
  w::HubRegistry registry(config);
  registry.publish("transient", state_of("transient", 1.0), scene(0));

  const auto hub = registry.subscribe("transient");
  ASSERT_NE(hub, nullptr);
  // Park a poller at the head: nothing new will be published.
  std::atomic<bool> completed{false};
  std::atomic<bool> got_frame{false};
  hub->wait_async(hub->seq(), 30.0, [&](w::FramePtr frame) {
    got_frame.store(frame != nullptr);
    completed.store(true);
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_EQ(registry.reap_idle_now(), 1u);
  // The parked poller was NOT stranded: it completed with the timeout
  // contract (null frame), which a live client answers with a re-poll.
  for (int i = 0; i < 100 && !completed.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(completed.load());
  EXPECT_FALSE(got_frame.load());
  EXPECT_EQ(registry.stats().reaped, 1u);
  EXPECT_EQ(registry.stats().live, 0u);
  EXPECT_TRUE(registry.known("transient"));

  // The re-poll revives an empty shard; a stale cursor from the previous
  // hub epoch parks against the clamped head and resyncs with the next
  // publish — the stale-cursor path, not a 404 and not a forever-park.
  const auto revived = registry.subscribe("transient");
  ASSERT_NE(revived, nullptr);
  EXPECT_NE(revived.get(), hub.get());
  EXPECT_EQ(revived->seq(), 0u);
  std::atomic<std::uint64_t> resync_seq{0};
  revived->wait_async(/*stale cursor*/ 7, 5.0, [&](w::FramePtr frame) {
    if (frame) resync_seq.store(frame->seq);
  });
  registry.publish("transient", state_of("transient", 2.0), scene(1));
  for (int i = 0; i < 100 && resync_seq.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(resync_seq.load(), 1u);
  EXPECT_EQ(registry.stats().created, 2u);

  // Pinned shards are reap-exempt.
  const auto pinned = registry.pin("pinned");
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_EQ(registry.reap_idle_now(), 1u);  // "transient" again, not "pinned"
  EXPECT_EQ(registry.find("pinned"), pinned);
}

namespace {

std::size_t thread_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

}  // namespace

TEST(HubRegistry, ShardsOwnNoThreads) {
  // Shards run on the registry's reactor: creating eight, parking a waiter
  // on each and fanning a publish out to all of them starts no thread.
  ricsa_test::HubLoop loop;
  w::HubRegistry registry(small_registry(loop.get()));
  const std::size_t before = thread_count();
  std::atomic<int> served{0};
  std::vector<std::string> views;
  for (int i = 0; i < 8; ++i) {
    views.push_back("view" + std::to_string(i));
    registry.pin(views.back())->wait_async(0, 30.0, [&](w::FramePtr frame) {
      if (frame) ++served;
    });
  }
  for (const std::string& view : views) {
    registry.publish(view, state_of(view, 1.0), scene(1));
  }
  for (int i = 0; i < 500 && served.load() < 8; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(served.load(), 8);
  EXPECT_EQ(registry.stats().live, 8u);
  EXPECT_EQ(thread_count(), before);
}

// ------------------------------------- shared session across views ----

namespace {

w::PacingConfig test_pacing() {
  w::PacingConfig p;
  p.frame_interval_s = 0.05;
  p.meter_window_s = 2.0;
  p.low_util = 0.6;
  p.high_util = 0.85;
  p.downgrade_streak = 2;
  p.upgrade_streak = 3;
  return p;
}

}  // namespace

TEST(ClientSession, DrainingOnlyOneOfTwoViewsCountsAsHalfUtilization) {
  // The double-counting regression: one browser polls two views but only
  // drains one stream's frames. With a per-stream denominator the single
  // drained stream would look 100% utilized and the client would stay on
  // the full tier forever; the shared session normalizes by active views
  // and downgrades.
  w::ClientSession s(test_pacing(), "two-views", "", 0.0);
  double t = 0.0;
  for (int i = 0; i < 60 && s.tier() == w::Tier::kFull; ++i) {
    t += 0.05;
    s.decide(t, 0.05, "rho/iso");
    s.decide(t, 0.05, "pressure/slice");         // polled but never drained
    s.on_delivered(t, 20000, 0, s.tier(), 0.05, "rho/iso");
  }
  EXPECT_NE(s.tier(), w::Tier::kFull);
  EXPECT_EQ(s.active_views(t), 2u);

  // Control: the same delivery pattern on ONE view is full utilization —
  // no downgrade.
  w::ClientSession single(test_pacing(), "one-view", "", 0.0);
  t = 0.0;
  for (int i = 0; i < 60; ++i) {
    t += 0.05;
    single.decide(t, 0.05, "rho/iso");
    single.on_delivered(t, 20000, 0, single.tier(), 0.05, "rho/iso");
  }
  EXPECT_EQ(single.tier(), w::Tier::kFull);
  EXPECT_EQ(single.active_views(t), 1u);
}

TEST(ClientSession, DeltaContractIsPerView) {
  // A tier fallback served on one view must not break the other view's
  // delta chain: last_served_tier is per stream. Streak thresholds are
  // pushed out of reach so the control law cannot move the session tier
  // mid-test (the sparse delivery pattern here would look "slow").
  w::PacingConfig config = test_pacing();
  config.downgrade_streak = 1000;
  config.upgrade_streak = 1000;
  w::ClientSession s(config, "delta-views", "", 0.0);
  s.on_delivered(0.1, 20000, 0, w::Tier::kFull, 0.05, "a");
  s.on_delivered(0.1, 6000, 0, w::Tier::kHalf, 0.05, "b");  // e.g. fallback
  EXPECT_TRUE(s.decide(0.2, 0.05, "a").allow_delta);
  EXPECT_FALSE(s.decide(0.2, 0.05, "b").allow_delta);
  // Serving "b" at the session tier restores its contract.
  s.on_delivered(0.3, 20000, 0, w::Tier::kFull, 0.05, "b");
  EXPECT_TRUE(s.decide(0.4, 0.05, "b").allow_delta);
}

TEST(SessionTable, ExpiryDropsRegistryLevelStateExactlyOnce) {
  w::PacingConfig config = test_pacing();
  config.idle_expiry_s = 0.5;
  w::SessionTable table(config);
  const auto session = table.acquire("expiring", "127.0.0.1:1", 0.0);
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(table.size(), 1u);

  // Concurrent sweeps (every acquire sweeps) while the session expires:
  // the table entry must be dropped exactly once, and the shared_ptr held
  // by an in-flight delivery must keep the object alive — recording into
  // it after eviction is safe, never a use-after-free.
  std::vector<std::thread> threads;
  std::atomic<int> round{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        // The hammer clock spans [2.0, 2.2]: far enough past the target's
        // 0.0 touch to expire it, tight enough that no hammer session can
        // itself idle past the 0.5 s expiry between its own touches.
        const double now = 2.0 + 0.001 * round.fetch_add(1);
        table.acquire("hammer-" + std::to_string(t), "", now);
        session->on_delivered(now, 100, 0, w::Tier::kFull, 0.05, "a");
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(table.expired(), 1u);  // "expiring" died once; hammers stayed
  // A later acquire under the same id is a fresh session, not the corpse.
  const auto reborn = table.acquire("expiring", "", 10.0);
  ASSERT_NE(reborn, nullptr);
  EXPECT_NE(reborn.get(), session.get());
}

// ------------------------------------------------- HTTP view= contract ----

namespace {

w::FrontEndConfig sharded_frontend() {
  w::FrontEndConfig config;
  config.session.resolution = 16;
  config.session.cycles_per_frame = 1;
  config.session.viz.image_width = 32;
  config.session.viz.image_height = 32;
  config.frame_interval_s = 0.03;
  w::ViewSpec spec;
  spec.name = "rho/iso";
  spec.viz = config.session.viz;
  spec.camera.azimuth = 2.0f;
  config.views.push_back(spec);
  return config;
}

}  // namespace

TEST(AjaxFrontEnd, ViewParameterRoutesToShardsAndUnknownViewsAre404) {
  w::AjaxFrontEnd frontend(sharded_frontend());
  const int port = frontend.start();
  while (frontend.frame_seq() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Missing view= keeps the single-hub contract (default view).
  const auto main_poll = w::http_get(port, "/api/poll?since=0&timeout=5");
  ASSERT_EQ(main_poll.status, 200);
  EXPECT_EQ(Json::parse(main_poll.body).at("state").at("view").as_string(),
            "main");

  // view= routes to the named shard, whose stream carries its own payload
  // and its own seq space.
  const auto rho_poll =
      w::http_get(port, "/api/poll?since=0&timeout=5&view=rho%2Fiso");
  ASSERT_EQ(rho_poll.status, 200);
  const Json rho = Json::parse(rho_poll.body);
  EXPECT_EQ(rho.at("state").at("view").as_string(), "rho/iso");
  EXPECT_GE(rho.at("seq").as_number(), 1.0);

  // Unknown views are 404 on every sharded route.
  EXPECT_EQ(w::http_get(port, "/api/poll?since=0&view=nope").status, 404);
  EXPECT_EQ(w::http_get(port, "/api/image?view=nope").status, 404);
  EXPECT_EQ(w::http_get(port, "/api/stats?view=nope").status, 404);
  EXPECT_EQ(w::http_get(port, "/api/state?view=nope").status, 404);

  // Sharded routes serve per-view data.
  const auto image = w::http_get(port, "/api/image?view=rho%2Fiso");
  EXPECT_EQ(image.status, 200);
  const auto stats_body = w::http_get(port, "/api/stats").body;
  const Json stats = Json::parse(stats_body);
  EXPECT_TRUE(stats.at("views").contains("main"));
  EXPECT_TRUE(stats.at("views").contains("rho/iso"));
  EXPECT_GE(stats.at("registry").at("live").as_number(), 2.0);
  const auto rho_stats =
      Json::parse(w::http_get(port, "/api/stats?view=rho%2Fiso").body);
  EXPECT_EQ(rho_stats.at("view").as_string(), "rho/iso");
  EXPECT_TRUE(rho_stats.at("live").as_bool());
  EXPECT_GE(rho_stats.at("published").as_number(), 1.0);
  // Stats are an observer, not a subscriber: scraping must not count as
  // shard activity (HubRegistry::find, never subscribe) — the reap test
  // above covers the lifecycle itself.
  EXPECT_EQ(frontend.registry().stats().created, 2u);

  frontend.stop();
}

TEST(AjaxFrontEnd, StatsReportTheCalibratedModels) {
  // The origin reports the Section 4.4 constants its session calibrated at
  // start-up, and what that calibration took: once per process, so every
  // scrape reads the same block.
  w::AjaxFrontEnd frontend(sharded_frontend());
  const int port = frontend.start();
  while (frontend.frame_seq() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const Json first = Json::parse(w::http_get(port, "/api/stats").body);
  const Json& models = first.at("models");
  ASSERT_TRUE(models.is_object());
  for (const char* key :
       {"calibration_s", "alpha_cell_s", "triangles_per_second",
        "t_sample_s", "t_advection_s", "filter_Bps"}) {
    EXPECT_GT(models.at(key).as_number(0.0), 0.0) << key;
  }
  EXPECT_GE(models.at("beta_triangle_s").as_number(-1.0), 0.0);
  EXPECT_LT(models.at("calibration_s").as_number(), 10.0);
  const Json again = Json::parse(
      w::http_get(port, "/api/stats?view=rho%2Fiso").body);
  EXPECT_EQ(again.at("models"), models);
  frontend.stop();
}

TEST(AjaxFrontEnd, OneClientPollingTwoViewsSharesOneSession) {
  w::AjaxFrontEnd frontend(sharded_frontend());
  const int port = frontend.start();
  while (frontend.frame_seq() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // The same client identity polls both shards: the registry-level table
  // must hold ONE session whose meter both streams feed.
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(w::http_get(port,
                          "/api/poll?since=0&timeout=5&client=shared-client")
                  .status,
              200);
    ASSERT_EQ(
        w::http_get(
            port,
            "/api/poll?since=0&timeout=5&client=shared-client&view=rho%2Fiso")
            .status,
        200);
  }
  EXPECT_EQ(frontend.sessions().size(), 1u);
  const Json pacing =
      Json::parse(w::http_get(port, "/api/stats").body).at("pacing");
  ASSERT_EQ(pacing.at("sessions").as_number(), 1.0);
  const Json client = pacing.at("clients").as_array().at(0);
  EXPECT_EQ(client.at("client").as_string(), "shared-client");
  EXPECT_EQ(client.at("active_views").as_number(), 2.0);

  frontend.stop();
}

TEST(HubRegistry, DefaultDivisorPublishesEveryFrame) {
  // Every publish into a never-watched view is real.
  ricsa_test::HubLoop loop;
  w::HubRegistry registry(small_registry(loop.get()));
  for (int i = 1; i <= 5; ++i) {
    EXPECT_EQ(registry.publish("v", state_of("v", i), scene(i)),
              static_cast<std::uint64_t>(i));
  }
}
