// Tile-based dirty-rect frame deltas: publish-time tile encoding, the
// sequential prebuilt delta body, cursor-anchored reassembly for skipping
// clients (byte-identical composites after random skips), the full-frame
// fallbacks (full change, aged-out cursor, missing tier reference,
// image-less publish, canvas resize, tier switch), and the HTTP-level
// full=1 resync escape hatch.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "hub_loop.hpp"
#include "util/base64.hpp"
#include "util/json.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"
#include "web/frontend.hpp"
#include "web/http.hpp"
#include "web/hub.hpp"
#include "web/session.hpp"
#include "viz/image.hpp"
#include "viz/tiles.hpp"

namespace w = ricsa::web;
namespace v = ricsa::viz;
namespace u = ricsa::util;
using ricsa::util::Json;

namespace {

Json state_of(double value) {
  Json s;
  s["value"] = value;
  return s;
}

/// A localized-change workload frame: dark background with an 8x8 bright
/// square whose position depends on `step` — the moving feature of a
/// monitored visualization, touching only a few tiles per frame.
v::Image scene(int step, int width = 64, int height = 48) {
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

v::Image decode_b64_png(const std::string& b64) {
  return v::Image::decode_png(u::base64_decode(b64));
}

/// Apply a parsed poll body to a client-side canvas, exactly the way the
/// dashboard JS does: tiles patch the canvas when base_seq matches what the
/// canvas shows, a full image replaces it. Returns false when the body
/// could not be composited (the JS would set full=1).
bool apply_body(const Json& body, v::Image& canvas, std::uint64_t& composited) {
  if (body.contains("tiles")) {
    if (static_cast<std::uint64_t>(body.at("base_seq").as_number()) !=
        composited) {
      return false;
    }
    for (const Json& t : body.at("tiles").as_array()) {
      const v::Image tile = decode_b64_png(t.at("png_b64").as_string());
      EXPECT_EQ(tile.width(), static_cast<int>(t.at("w").as_number()));
      EXPECT_EQ(tile.height(), static_cast<int>(t.at("h").as_number()));
      v::TileGrid::composite(canvas, tile,
                             static_cast<int>(t.at("x").as_number()),
                             static_cast<int>(t.at("y").as_number()));
    }
    composited = static_cast<std::uint64_t>(body.at("seq").as_number());
    return true;
  }
  if (body.contains("image_b64")) {
    canvas = decode_b64_png(body.at("image_b64").as_string());
    composited = static_cast<std::uint64_t>(body.at("seq").as_number());
    return true;
  }
  // Image unchanged: the canvas already shows this frame's pixels.
  composited = static_cast<std::uint64_t>(body.at("seq").as_number());
  return true;
}

w::FrameHub::Config tile_hub_config(ricsa::net::Reactor* reactor) {
  w::FrameHub::Config config;
  config.window = 64;
  config.max_wait_s = 5.0;
  config.reactor = reactor;
  return config;
}

}  // namespace

namespace {

/// scene() over a deterministic noise background (same noise every frame, so
/// only the moving square's tiles are dirty). The noise keeps the full-frame
/// PNG from compressing to almost nothing — with the real DEFLATE encoder a
/// flat background shrinks ~100x, which would make "delta smaller than full"
/// meaningless at this toy scale. Real monitored frames have content
/// everywhere; this models that.
v::Image textured_scene(int step, int width = 64, int height = 48) {
  v::Image img = scene(step, width, height);
  u::Xoshiro256 noise(4242);  // same seed every call: static texture
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      // Always draw from the stream so pixel (x, y) gets the same noise
      // regardless of where the feature sits in this frame.
      const auto r = static_cast<std::uint8_t>(noise() & 0xFF);
      const auto g = static_cast<std::uint8_t>(noise() & 0xFF);
      const auto b = static_cast<std::uint8_t>(noise() & 0xFF);
      v::Rgba& p = img.at(x, y);
      if (p.r == 250) continue;  // leave the moving feature alone
      p = {r, g, b, 255};
    }
  }
  return img;
}

}  // namespace

TEST(TileDelta, SequentialDeltaBodyCarriesOnlyDirtyTiles) {
  ricsa_test::HubLoop loop;
  w::FrameHub hub(tile_hub_config(loop.get()));
  hub.publish(state_of(1.0), textured_scene(0));
  hub.publish(state_of(2.0), textured_scene(1));

  const w::FramePtr f1 = hub.next_after(0);
  const w::FramePtr f2 = hub.next_after(1);
  ASSERT_TRUE(f1 && f2);

  const Json delta = Json::parse(f2->body(w::Tier::kFull, true));
  ASSERT_TRUE(delta.contains("tiles"));
  EXPECT_FALSE(delta.contains("image_b64"));
  EXPECT_EQ(delta.at("base_seq").as_number(), 1.0);
  EXPECT_EQ(delta.at("img_w").as_number(), 64.0);
  // The 8x8 feature moved by (5,3): both positions fit in a handful of the
  // twelve 16x16 tiles — far from a full resend.
  const std::size_t tiles = delta.at("tiles").as_array().size();
  EXPECT_GE(tiles, 1u);
  EXPECT_LE(tiles, 6u);
  // And the delta body is materially smaller than the full one.
  EXPECT_LT(f2->body(w::Tier::kFull, true).size(),
            f2->body(w::Tier::kFull, false).size() / 2);

  // Compositing the tiles over frame 1 reproduces frame 2 byte-identically.
  v::Image canvas = decode_b64_png(
      Json::parse(f1->body(w::Tier::kFull, false)).at("image_b64").as_string());
  std::uint64_t composited = 1;
  ASSERT_TRUE(apply_body(delta, canvas, composited));
  EXPECT_EQ(composited, 2u);
  EXPECT_EQ(canvas.pixels(), textured_scene(1).pixels());
}

TEST(TileDelta, CursorAnchoredReassemblyIsByteIdenticalAfterRandomSkips) {
  ricsa_test::HubLoop loop;
  w::FrameHub hub(tile_hub_config(loop.get()));
  const int kFrames = 40;
  for (int i = 0; i < kFrames; ++i) hub.publish(state_of(i), scene(i));

  // A skipping client: composite frame 1 in full, then jump the cursor by
  // random strides (1..4 frames), asking for a cursor-anchored delta each
  // time — the paced/latest_only consumption pattern.
  const w::FramePtr first = hub.next_after(0);
  ASSERT_TRUE(first);
  v::Image canvas = decode_b64_png(Json::parse(first->body(w::Tier::kFull, false))
                                       .at("image_b64")
                                       .as_string());
  std::uint64_t composited = 1;
  u::Xoshiro256 rng(99);
  int tile_polls = 0;
  while (composited < static_cast<std::uint64_t>(kFrames)) {
    const std::uint64_t target =
        std::min<std::uint64_t>(composited + 1 + rng() % 4, kFrames);
    const w::FramePtr frame = hub.next_after(target - 1);
    ASSERT_TRUE(frame);
    ASSERT_EQ(frame->seq, target);
    std::string body = hub.delta_body_for(frame, composited, w::Tier::kFull);
    if (body.empty()) {
      body = frame->body(w::Tier::kFull, false);
    } else {
      ++tile_polls;
    }
    ASSERT_TRUE(apply_body(Json::parse(body), canvas, composited));
    ASSERT_EQ(composited, target);
    // Byte-identical to the server's own framebuffer at every step — zero
    // drift, zero gaps, no matter how many frames were skipped. (Frame seq
    // s was published from scene(s - 1).)
    ASSERT_EQ(canvas.pixels(),
              scene(static_cast<int>(target) - 1).pixels())
        << "composite diverged at seq " << target;
  }
  // The localized workload must actually be served by tiles, not fallbacks.
  EXPECT_GT(tile_polls, 5);
}

namespace {

/// A fixed noise texture with 8x8 squares painted over it, one colour per
/// square: the frames of the reassembly schedules below.
v::Image squares_scene(const std::vector<std::pair<int, int>>& corners,
                       int width = 96, int height = 64) {
  v::Image img(width, height);
  u::Xoshiro256 noise(4242);
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      const auto grey = static_cast<std::uint8_t>(noise() & 0x7F);
      img.at(x, y) = {grey, grey, grey, 255};
    }
  }
  for (std::size_t i = 0; i < corners.size(); ++i) {
    const v::Rgba colour = {static_cast<std::uint8_t>(200 + 20 * i), 40,
                            static_cast<std::uint8_t>(250 - 60 * i), 255};
    for (int y = corners[i].second; y < corners[i].second + 8; ++y) {
      for (int x = corners[i].first; x < corners[i].first + 8; ++x) {
        img.at(x, y) = colour;
      }
    }
  }
  return img;
}

/// Publish `frames` (seq s is frames[s - 1]), then walk a client from
/// seq 1 to the head by seeded random strides of 1..max_stride, serving
/// each step the cursor-anchored delta when the hub builds one. The
/// composite must equal the published image at every step, and no delta
/// body may be larger than the full body. Returns the delta bodies served.
int walk_with_skips(const std::vector<v::Image>& frames, int max_stride,
                    std::uint64_t seed) {
  ricsa_test::HubLoop loop;
  w::FrameHub hub(tile_hub_config(loop.get()));
  for (std::size_t i = 0; i < frames.size(); ++i) {
    hub.publish(state_of(static_cast<double>(i)), frames[i]);
  }
  v::Image canvas = frames[0];
  std::uint64_t composited = 1;
  u::Xoshiro256 rng(seed);
  int deltas = 0;
  const auto head = static_cast<std::uint64_t>(frames.size());
  while (composited < head) {
    const std::uint64_t target = std::min<std::uint64_t>(
        composited + 1 + rng() % static_cast<std::uint64_t>(max_stride),
        head);
    const w::FramePtr frame = hub.next_after(target - 1);
    EXPECT_TRUE(frame && frame->seq == target);
    if (!frame) return deltas;
    std::string body = hub.delta_body_for(frame, composited, w::Tier::kFull);
    if (body.empty()) {
      body = frame->body(w::Tier::kFull, false);
    } else {
      EXPECT_LT(body.size(), frame->body(w::Tier::kFull, false).size());
      ++deltas;
    }
    const std::uint64_t from = composited;
    EXPECT_TRUE(apply_body(Json::parse(body), canvas, composited));
    EXPECT_EQ(canvas.pixels(), frames[target - 1].pixels())
        << "composite diverged serving " << target << " from " << from;
    if (canvas.pixels() != frames[target - 1].pixels()) return deltas;
  }
  return deltas;
}

}  // namespace

TEST(TileDelta, CursorAnchoredReassemblyOfTwoDistantFeatures) {
  // One square roams the top-left quadrant, another the bottom-right; each
  // frame moves one of them (both now and then, which makes the rect span
  // most of the frame). A skip then covers separate rects far apart.
  u::Xoshiro256 rng(7);
  std::vector<std::pair<int, int>> at = {{2, 2}, {80, 50}};
  std::vector<v::Image> frames = {squares_scene(at)};
  for (int i = 1; i < 60; ++i) {
    const std::uint64_t pick = rng() % 7;
    if (pick != 1) at[0] = {2 + static_cast<int>(rng() % 30),
                            2 + static_cast<int>(rng() % 20)};
    if (pick <= 1) at[1] = {56 + static_cast<int>(rng() % 32),
                            34 + static_cast<int>(rng() % 22)};
    frames.push_back(squares_scene(at));
  }
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    EXPECT_GT(walk_with_skips(frames, 6, seed), 5);
  }
}

TEST(TileDelta, CursorAnchoredReassemblyRestoresRegionsThatChangedBack) {
  // Frame 2 paints squares A (left) and B (right): one rect spans both.
  // Frame 3 erases A again: its rect is A alone. Served frame 3 from
  // cursor 1, only B differs from what the client shows, yet frame 2's
  // rect (the one carrying B) also carries A's square, so frame 3's rect
  // must follow it to restore A.
  const std::vector<v::Image> frames = {
      squares_scene({}), squares_scene({{4, 4}, {60, 40}}),
      squares_scene({{60, 40}}), squares_scene({{62, 42}})};
  {
    ricsa_test::HubLoop loop;
    w::FrameHub hub(tile_hub_config(loop.get()));
    for (std::size_t i = 0; i < frames.size(); ++i) {
      hub.publish(state_of(static_cast<double>(i)), frames[i]);
    }
    for (const std::uint64_t served : {3u, 4u}) {
      const w::FramePtr frame = hub.next_after(served - 1);
      ASSERT_TRUE(frame);
      const std::string body =
          hub.delta_body_for(frame, 1, w::Tier::kFull);
      ASSERT_FALSE(body.empty()) << "served " << served;
      v::Image canvas = frames[0];
      std::uint64_t composited = 1;
      ASSERT_TRUE(apply_body(Json::parse(body), canvas, composited));
      EXPECT_EQ(canvas.pixels(), frames[served - 1].pixels())
          << "served " << served;
    }
  }
  // The same hazard at random: three squares blink on and off in place,
  // so skipped ranges keep crossing regions that changed and changed back.
  const std::vector<std::pair<int, int>> spots = {{6, 6}, {44, 30}, {80, 8}};
  u::Xoshiro256 rng(11);
  std::vector<v::Image> blinking;
  for (int i = 0; i < 60; ++i) {
    std::vector<std::pair<int, int>> lit;
    for (const auto& spot : spots) {
      if (rng() % 3 == 0) lit.push_back(spot);
    }
    blinking.push_back(squares_scene(lit));
  }
  for (const std::uint64_t seed : {4u, 5u, 6u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    EXPECT_GT(walk_with_skips(blinking, 5, seed), 3);
  }
}

TEST(TileDelta, CursorAnchoredBodyIsNeverLargerThanTheFullBody) {
  // A square hops between the four corners, so every frame's rect is a
  // strip along one edge, and a skip of four frames or more takes a strip
  // along every edge. From every cursor behind the head the hub must build
  // a delta whose rects' base64 stays below the full image's, whose body
  // is smaller than the full body, and which composites to the head's
  // image, or decline. On a textured background the four strips stay well
  // below the full frame, so every skip gets a delta. On a flat one two
  // strip PNGs already weigh about as much as the whole frame's, so only
  // the one-frame skip is built there: a two-frame skip's rects stay under
  // the base64 cap, but their JSON framing makes its body the larger one.
  const std::vector<std::pair<int, int>> corners = {
      {0, 0}, {88, 0}, {88, 56}, {0, 56}};
  for (const bool textured : {false, true}) {
    SCOPED_TRACE(textured ? "textured" : "flat");
    std::vector<v::Image> frames;
    for (int i = 0; i < 40; ++i) {
      const std::pair<int, int> at = corners[static_cast<std::size_t>(i % 4)];
      v::Image img = textured ? squares_scene({at})
                              : v::Image(96, 64, {10, 10, 30, 255});
      if (!textured) {
        for (int y = at.second; y < at.second + 8; ++y) {
          for (int x = at.first; x < at.first + 8; ++x) {
            img.at(x, y) = {250, 200, 40, 255};
          }
        }
      }
      frames.push_back(std::move(img));
    }
    ricsa_test::HubLoop loop;
    w::FrameHub hub(tile_hub_config(loop.get()));
    for (std::size_t i = 0; i < frames.size(); ++i) {
      hub.publish(state_of(static_cast<double>(i)), frames[i]);
    }
    const w::FramePtr head = hub.latest();
    ASSERT_TRUE(head);
    const std::size_t full_body = head->body(w::Tier::kFull, false).size();
    const std::size_t full_b64 = u::base64_encode(head->png).size();
    int built = 0;
    for (std::uint64_t since = 1; since < head->seq; ++since) {
      const std::string body = hub.delta_body_for(head, since, w::Tier::kFull);
      if (body.empty()) continue;
      ++built;
      const Json parsed = Json::parse(body);
      std::size_t b64 = 0;
      for (const Json& tile : parsed.at("tiles").as_array()) {
        b64 += tile.at("png_b64").as_string().size();
      }
      EXPECT_LT(b64, full_b64) << "cursor " << since;
      EXPECT_LT(body.size(), full_body) << "cursor " << since;
      v::Image canvas = frames[since - 1];
      std::uint64_t composited = since;
      ASSERT_TRUE(apply_body(parsed, canvas, composited));
      EXPECT_EQ(canvas.pixels(), frames.back().pixels()) << "cursor " << since;
    }
    EXPECT_EQ(built, textured ? 39 : 1);
  }
}

TEST(TileDelta, FullChangeFallsBackToFullImage) {
  ricsa_test::HubLoop loop;
  w::FrameHub hub(tile_hub_config(loop.get()));
  hub.publish(state_of(1.0), v::Image(64, 48, {0, 0, 0, 255}));
  hub.publish(state_of(2.0), v::Image(64, 48, {255, 255, 255, 255}));
  const w::FramePtr f2 = hub.next_after(1);
  ASSERT_TRUE(f2);
  // Every tile changed: the delta body carries the whole image, not tiles.
  const Json delta = Json::parse(f2->body(w::Tier::kFull, true));
  EXPECT_FALSE(delta.contains("tiles"));
  EXPECT_TRUE(delta.contains("image_b64"));
  // And the cursor-anchored path declines too.
  EXPECT_TRUE(hub.delta_body_for(f2, 1, w::Tier::kFull).empty());
}

TEST(TileDelta, CursorAnchoredDeltaRefusesRangesCrossingFullChangeFrames) {
  ricsa_test::HubLoop loop;
  w::FrameHub hub(tile_hub_config(loop.get()));
  hub.publish(state_of(1.0), scene(0));
  hub.publish(state_of(2.0), v::Image(64, 48, {255, 255, 255, 255}));  // cut
  hub.publish(state_of(3.0), scene(2));  // full change again (vs white)
  hub.publish(state_of(4.0), scene(3));
  const w::FramePtr f4 = hub.next_after(3);
  ASSERT_TRUE(f4);
  // Cursor at 1, serving 4: the scene cut at 2/3 changed tiles that the
  // stored per-frame encodes cannot account for — full fallback, never a
  // franken-frame.
  EXPECT_TRUE(hub.delta_body_for(f4, 1, w::Tier::kFull).empty());
  // Anchored after the cut (cursor 3 -> 4) tiles work again.
  EXPECT_FALSE(hub.delta_body_for(f4, 3, w::Tier::kFull).empty());
}

TEST(TileDelta, UnchangedImageOmitsImageAndKeepsTheDeltaChain) {
  ricsa_test::HubLoop loop;
  w::FrameHub hub(tile_hub_config(loop.get()));
  hub.publish(state_of(1.0), scene(0));
  hub.publish(state_of(2.0), scene(0));  // byte-identical pixels
  const w::FramePtr f2 = hub.next_after(1);
  ASSERT_TRUE(f2);
  const Json delta = Json::parse(f2->body(w::Tier::kFull, true));
  EXPECT_FALSE(delta.contains("tiles"));
  EXPECT_FALSE(delta.contains("image_b64"));
  // Cursor-anchored across the unchanged frame still works: 1 -> 3.
  hub.publish(state_of(3.0), scene(5));
  const w::FramePtr f3 = hub.next_after(2);
  ASSERT_TRUE(f3);
  const std::string body = hub.delta_body_for(f3, 1, w::Tier::kFull);
  ASSERT_FALSE(body.empty());
  v::Image canvas = scene(0);
  std::uint64_t composited = 1;
  ASSERT_TRUE(apply_body(Json::parse(body), canvas, composited));
  EXPECT_EQ(canvas.pixels(), scene(5).pixels());
}

TEST(TileDelta, CursorAgedOutOfWindowFallsBack) {
  ricsa_test::HubLoop loop;
  w::FrameHub::Config config = tile_hub_config(loop.get());
  config.window = 4;
  w::FrameHub hub(config);
  // Textured frames: on a flat toy frame the full PNG is smaller than the
  // two rects of 8 -> 10, so the size cap, not the window, would decide.
  for (int i = 0; i < 10; ++i) hub.publish(state_of(i), textured_scene(i));
  const w::FramePtr latest = hub.next_after(9);
  ASSERT_TRUE(latest);
  ASSERT_EQ(hub.oldest_retained(), 7u);
  // Cursor 2 left the window long ago: no reference framebuffer, no delta.
  EXPECT_TRUE(hub.delta_body_for(latest, 2, w::Tier::kFull).empty());
  // A retained cursor still deltas.
  EXPECT_FALSE(hub.delta_body_for(latest, 8, w::Tier::kFull).empty());
}

TEST(TileDelta, HalfTierDeltaNeedsAHalfReferenceFrame) {
  ricsa_test::HubLoop loop;
  w::FrameHub hub(tile_hub_config(loop.get()));
  // Textured frames: on a flat 32x24 half frame the 2 -> 3 delta body is
  // no smaller than the half full body, so the size cap would decline it.
  hub.publish(state_of(1.0), textured_scene(0), /*build_half=*/false);
  hub.publish(state_of(2.0), textured_scene(1), /*build_half=*/true);
  hub.publish(state_of(3.0), textured_scene(2), /*build_half=*/true);
  const w::FramePtr f2 = hub.next_after(1);
  const w::FramePtr f3 = hub.next_after(2);
  ASSERT_TRUE(f2 && f3);
  // Frame 1 never built the half image: a half-tier delta anchored at it
  // has no same-tier reference and must decline...
  EXPECT_TRUE(hub.delta_body_for(f2, 1, w::Tier::kHalf).empty());
  // ...while 2 -> 3 (both half-rendered) deltas fine, and reassembles to
  // exactly the server's half-resolution framebuffer.
  const std::string body = hub.delta_body_for(f3, 2, w::Tier::kHalf);
  ASSERT_FALSE(body.empty());
  v::Image canvas = v::downsample(textured_scene(1), 2);
  std::uint64_t composited = 2;
  ASSERT_TRUE(apply_body(Json::parse(body), canvas, composited));
  EXPECT_EQ(canvas.pixels(), v::downsample(textured_scene(2), 2).pixels());
  // The full tier, meanwhile, is never poisoned by the half tier's gaps.
  EXPECT_FALSE(hub.delta_body_for(f3, 2, w::Tier::kFull).empty());
}

namespace {

/// The sequential delta body of `frame` at `tier` must resend the whole
/// image: no rect, `image_b64` present.
void expect_full_image_delta(const w::FramePtr& frame, w::Tier tier) {
  const Json delta = Json::parse(frame->body(tier, true));
  EXPECT_FALSE(delta.contains("tiles")) << w::tier_name(tier);
  EXPECT_TRUE(delta.contains("image_b64")) << w::tier_name(tier);
}

}  // namespace

TEST(TileDelta, HalfTierBuiltAgainAfterAFrameWithoutItIsAFullChange) {
  // Frame 2 has no half image, so frame 1's half pixels are no reference
  // for frame 3's: a half-tier client served frame 2 got the full tier's
  // fallback body, and a rect bounded against frame 1 would patch the
  // wrong canvas.
  ricsa_test::HubLoop loop;
  w::FrameHub hub(tile_hub_config(loop.get()));
  hub.publish(state_of(1.0), textured_scene(0), /*build_half=*/true);
  hub.publish(state_of(2.0), textured_scene(1), /*build_half=*/false);
  hub.publish(state_of(3.0), textured_scene(2), /*build_half=*/true);
  const w::FramePtr f3 = hub.latest();
  ASSERT_TRUE(f3);
  EXPECT_TRUE(f3->tiles[1].full_change);
  expect_full_image_delta(f3, w::Tier::kHalf);
  EXPECT_TRUE(hub.delta_body_for(f3, 1, w::Tier::kHalf).empty());
  EXPECT_TRUE(hub.delta_body_for(f3, 2, w::Tier::kHalf).empty());
  // The full tier was built every frame and keeps its delta chain.
  EXPECT_FALSE(f3->tiles[0].full_change);
  EXPECT_TRUE(Json::parse(f3->body(w::Tier::kFull, true)).contains("tiles"));
  const std::string body = hub.delta_body_for(f3, 1, w::Tier::kFull);
  ASSERT_FALSE(body.empty());
  v::Image canvas = textured_scene(0);
  std::uint64_t composited = 1;
  ASSERT_TRUE(apply_body(Json::parse(body), canvas, composited));
  EXPECT_EQ(canvas.pixels(), textured_scene(2).pixels());
}

TEST(TileDelta, ImageLessPublishLeavesTheNextFrameNoReference) {
  // A publish without pixels, pre-encoded or relayed, sits between two
  // rendered frames: the third frame must not bound its changes against
  // the first frame's pixels.
  for (const bool relayed : {false, true}) {
    SCOPED_TRACE(relayed ? "publish_encoded" : "publish(state, png)");
    ricsa_test::HubLoop loop;
    w::FrameHub hub(tile_hub_config(loop.get()));
    hub.publish(state_of(1.0), textured_scene(0));
    if (relayed) {
      w::FrameHub::PreEncoded pre;
      pre.full_body = R"({"seq":2,"delta":false,"state":{}})";
      hub.publish_encoded(std::move(pre));
    } else {
      hub.publish(state_of(2.0), textured_scene(1).encode_png());
    }
    hub.publish(state_of(3.0), textured_scene(2));
    const w::FramePtr f3 = hub.latest();
    ASSERT_TRUE(f3);
    ASSERT_EQ(f3->seq, 3u);
    for (const w::Tier tier : {w::Tier::kFull, w::Tier::kHalf}) {
      EXPECT_TRUE(f3->tiles[static_cast<std::size_t>(tier)].full_change)
          << w::tier_name(tier);
      expect_full_image_delta(f3, tier);
      EXPECT_TRUE(hub.delta_body_for(f3, 1, tier).empty());
      EXPECT_TRUE(hub.delta_body_for(f3, 2, tier).empty());
    }
  }
}

TEST(TileDelta, CanvasResizeIsAFullChange) {
  ricsa_test::HubLoop loop;
  w::FrameHub hub(tile_hub_config(loop.get()));
  hub.publish(state_of(1.0), textured_scene(0, 64, 48));
  hub.publish(state_of(2.0), textured_scene(1, 32, 24));
  hub.publish(state_of(3.0), textured_scene(2, 32, 24));
  const w::FramePtr f2 = hub.next_after(1);
  const w::FramePtr f3 = hub.next_after(2);
  ASSERT_TRUE(f2 && f3);
  EXPECT_TRUE(f2->tiles[0].full_change);
  expect_full_image_delta(f2, w::Tier::kFull);
  // No rect spans the resize...
  EXPECT_TRUE(hub.delta_body_for(f3, 1, w::Tier::kFull).empty());
  // ...while a cursor at the new size patches as usual.
  const std::string body = hub.delta_body_for(f3, 2, w::Tier::kFull);
  ASSERT_FALSE(body.empty());
  const Json parsed = Json::parse(body);
  EXPECT_EQ(parsed.at("img_w").as_number(), 32.0);
  EXPECT_EQ(parsed.at("img_h").as_number(), 24.0);
  v::Image canvas = textured_scene(1, 32, 24);
  std::uint64_t composited = 2;
  ASSERT_TRUE(apply_body(parsed, canvas, composited));
  EXPECT_EQ(canvas.pixels(), textured_scene(2, 32, 24).pixels());
}

TEST(TileDelta, DeltaFromEveryRetainedCursorReassemblesToTheHead) {
  // A window of 48 frames, slid by 16 more: the hub keeps no pixels of the
  // retained frames, yet every cursor it still retains, however far back,
  // gets a delta that composites to the head's image. A square hops among
  // five nearby spots, so the coverage rule keeps a long skip's rects few
  // and the size cap never declines.
  const std::vector<std::pair<int, int>> spots = {
      {20, 14}, {34, 20}, {26, 30}, {40, 12}, {30, 24}};
  std::vector<v::Image> frames;
  for (std::size_t i = 0; i < 64; ++i) {
    frames.push_back(squares_scene({spots[i % spots.size()]}));
  }
  ricsa_test::HubLoop loop;
  w::FrameHub::Config config = tile_hub_config(loop.get());
  config.window = 48;
  w::FrameHub hub(config);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    hub.publish(state_of(static_cast<double>(i)), frames[i]);
  }
  const w::FramePtr head = hub.latest();
  ASSERT_TRUE(head);
  ASSERT_EQ(hub.oldest_retained(), 17u);
  for (std::uint64_t since = hub.oldest_retained(); since < head->seq;
       ++since) {
    const w::FramePtr next = hub.next_after(since);
    ASSERT_TRUE(next);
    // The prebuilt sequential delta body carries the frame's rect.
    EXPECT_TRUE(Json::parse(next->body(w::Tier::kFull, true)).contains("tiles"))
        << "seq " << next->seq;
    const std::string body = hub.delta_body_for(head, since, w::Tier::kFull);
    ASSERT_FALSE(body.empty()) << "cursor " << since;
    v::Image canvas = frames[since - 1];
    std::uint64_t composited = since;
    ASSERT_TRUE(apply_body(Json::parse(body), canvas, composited));
    EXPECT_EQ(canvas.pixels(), frames.back().pixels()) << "cursor " << since;
  }
  // A cursor that left the window gets no delta.
  EXPECT_TRUE(hub.delta_body_for(head, 16, w::Tier::kFull).empty());
}

TEST(TileDelta, TierSwitchForcesFullFrame) {
  // The session-level delta gate (satellite of the tier pipeline): a client
  // downgraded between polls must not get a body diffed against another
  // tier's reference.
  w::PacingConfig config;
  config.frame_interval_s = 0.1;
  config.downgrade_streak = 2;
  w::ClientSession session(config, "c1", "peer", 0.0);
  double now = 0.0;
  // Fresh session on the full tier: delta allowed once a delivery landed.
  EXPECT_TRUE(session.decide(now, 0.1).allow_delta);
  session.on_delivered(now += 0.1, 1000, 0, w::Tier::kFull, 0.1);
  EXPECT_TRUE(session.decide(now, 0.1).allow_delta);
  // Starve the meter so utilization collapses and the tier downgrades.
  for (int i = 0; i < 20 && session.tier() == w::Tier::kFull; ++i) {
    session.on_delivered(now += 5.0, 1000, 0, w::Tier::kFull, 0.1);
  }
  ASSERT_NE(session.tier(), w::Tier::kFull);
  // Next poll is the first at the new tier: the previous delivery used the
  // old tier, so the delta contract is void — full frame.
  EXPECT_FALSE(session.decide(now, 0.1).allow_delta);
  // After a delivery at the new tier the contract holds again.
  session.on_delivered(now += 0.1, 1000, 0, session.tier(), 0.1);
  EXPECT_TRUE(session.decide(now, 0.1).allow_delta);
}

TEST(TileDelta, LentEncodePoolBuildsIdenticalFrames) {
  // A publisher-lent pool only runs the frame's PNG encodes concurrently:
  // every tier's full and delta body, each tier's rect and its base64, and
  // the encode accounting, must match the serial build exactly. The frames
  // mix first/full-change frames, an unchanged frame and frames whose rect
  // spans two separate changes.
  const auto frame_image = [](int step) {
    v::Image img = textured_scene(step, 96, 64);
    const int x0 = 80 - (step * 7) % 72;
    for (int y = 50; y < 58; ++y) {
      for (int x = x0; x < x0 + 8; ++x) img.at(x, y) = {40, 220, 90, 255};
    }
    return img;
  };
  u::ThreadPool pool(4);
  ricsa_test::HubLoop loop;
  w::FrameHub serial(tile_hub_config(loop.get()));
  w::FrameHub pooled(tile_hub_config(loop.get()));
  const std::vector<int> steps = {0, 1, 2, 2, 3, 40, 41, 42};
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const v::Image image = frame_image(steps[i]);
    const bool half = i % 3 != 1;
    serial.publish(state_of(steps[i]), image, half);
    pooled.publish(state_of(steps[i]), image, half, &pool);
  }
  std::size_t tiled = 0;
  for (std::uint64_t seq = 1; seq <= steps.size(); ++seq) {
    SCOPED_TRACE("seq " + std::to_string(seq));
    const w::FramePtr a = serial.next_after(seq - 1);
    const w::FramePtr b = pooled.next_after(seq - 1);
    ASSERT_TRUE(a && b);
    EXPECT_EQ(a->png, b->png);
    EXPECT_EQ(a->png_half, b->png_half);
    EXPECT_EQ(a->image_changed, b->image_changed);
    for (std::size_t t = 0; t < w::kTierCount; ++t) {
      EXPECT_EQ(a->bodies[t].full, b->bodies[t].full) << "tier " << t;
      EXPECT_EQ(a->bodies[t].delta, b->bodies[t].delta) << "tier " << t;
    }
    for (std::size_t t = 0; t < w::kImageTierCount; ++t) {
      EXPECT_EQ(a->tiles[t].rect_b64, b->tiles[t].rect_b64) << "tier " << t;
      EXPECT_EQ(a->tiles[t].rect, b->tiles[t].rect) << "tier " << t;
      EXPECT_EQ(a->tiles[t].full_change, b->tiles[t].full_change)
          << "tier " << t;
      if (a->tiles[t].rect) ++tiled;
    }
  }
  EXPECT_GE(tiled, 3u);  // rect encodes actually ran beside the full PNGs
  const w::FrameHub::Stats sa = serial.stats();
  const w::FrameHub::Stats sb = pooled.stats();
  EXPECT_EQ(sa.image_encodes, sb.image_encodes);
  EXPECT_EQ(sa.image_bytes_in, sb.image_bytes_in);
  EXPECT_EQ(sa.image_bytes_out, sb.image_bytes_out);
}

// ------------------------------------------------- HTTP level (frontend) ----

namespace {

w::FrontEndConfig delta_frontend() {
  w::FrontEndConfig config;
  config.session.simulation = ricsa::hydro::HydroSimulation::Kind::kSod;
  config.session.resolution = 24;
  config.session.viz.image_width = 48;
  config.session.viz.image_height = 48;
  config.session.viz.isovalue = 0.5f;
  config.frame_interval_s = 0.02;
  return config;
}

}  // namespace

TEST(TileDeltaHttp, FullParamForcesCompleteFrameAndStaleCursorResyncs) {
  w::AjaxFrontEnd fe(delta_frontend());
  const int port = fe.start();
  // First frame, full body.
  const auto first = Json::parse(
      w::http_get(port, "/api/poll?since=0&timeout=10").body);
  const auto seq = static_cast<std::uint64_t>(first.at("seq").as_number());
  ASSERT_GE(seq, 1u);
  ASSERT_TRUE(first.contains("image_b64"));

  // full=1 overrides delta=1: the resync escape hatch always yields a
  // complete frame, never tiles.
  const auto resync = Json::parse(
      w::http_get(port, "/api/poll?since=" + std::to_string(seq) +
                            "&delta=1&full=1&timeout=10")
          .body);
  EXPECT_TRUE(resync.contains("image_b64"));
  EXPECT_FALSE(resync.contains("tiles"));
  EXPECT_FALSE(resync.contains("base_seq"));

  // A stale-epoch cursor (way past the head) is clamped and served the
  // next published frame — a full body (cursor-anchored deltas cannot
  // apply), not an indefinitely parked poll and not a timeout.
  const auto t0 = std::chrono::steady_clock::now();
  const auto stale = Json::parse(
      w::http_get(port, "/api/poll?since=99999&delta=1&timeout=10").body);
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                .count(),
            5.0);
  EXPECT_FALSE(stale.contains("timeout"));
  EXPECT_FALSE(stale.contains("tiles"));
  ASSERT_GE(stale.at("seq").as_number(), 1.0);
  EXPECT_LT(stale.at("seq").as_number(), 99999.0);
  fe.stop();
}

TEST(TileDeltaHttp, PollDeltaBodiesCompositeToTheServerImage) {
  w::AjaxFrontEnd fe(delta_frontend());
  const int port = fe.start();
  w::HttpClient http(port);

  // Drive the view so frames actually change (orbiting azimuth), then
  // long-poll with delta=1 like the dashboard and keep a composited canvas.
  v::Image canvas;
  std::uint64_t composited = 0;
  std::uint64_t since = 0;
  int applied = 0;
  int tile_bodies = 0;
  for (int i = 0; i < 30 && applied < 12; ++i) {
    http.post("/api/view", "{\"azimuth\": " + std::to_string(0.7 + 0.1 * i) +
                               "}");
    const auto r =
        http.get("/api/poll?since=" + std::to_string(since) +
                     "&delta=1&timeout=5",
                 10.0);
    ASSERT_EQ(r.status, 200);
    const Json body = Json::parse(r.body);
    if (body.contains("timeout")) continue;
    since = static_cast<std::uint64_t>(body.at("seq").as_number());
    if (body.contains("tiles")) ++tile_bodies;
    ASSERT_TRUE(apply_body(body, canvas, composited));
    ++applied;
    // The canvas must match the server's current full framebuffer exactly
    // whenever we are at the head (fetch the full body of the same seq via
    // a second client staying one behind is racy; instead assert against
    // /api/image only when seq still matches).
    const auto img = w::http_get(port, "/api/image");
    if (img.status == 200 && fe.frame_seq() == since) {
      const v::Image server = v::Image::decode_png(std::vector<std::uint8_t>(
          img.body.begin(), img.body.end()));
      if (fe.frame_seq() == since) {
        EXPECT_EQ(canvas.pixels(), server.pixels())
            << "composite diverged at seq " << since;
      }
    }
  }
  EXPECT_GE(applied, 12);
  fe.stop();
}
