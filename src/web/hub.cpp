#include "web/hub.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <utility>

#include "net/reactor.hpp"
#include "util/base64.hpp"

namespace ricsa::web {

namespace {

/// Render a poll response body. `state` is embedded as-is; the image rides
/// along base64-encoded exactly once per frame per image tier (the
/// pre-encoded string is shared by full and delta bodies).
std::string render_body(std::uint64_t seq, Tier tier, const util::Json& state,
                        const std::string& image_b64, bool delta) {
  util::Json out;
  out["seq"] = static_cast<double>(seq);
  out["delta"] = delta;
  out["tier"] = tier_name(tier);
  out["state"] = state;
  if (!image_b64.empty()) out["image_b64"] = image_b64;
  return out.dump();
}

/// One rect of an image delta: its position plus a pointer to the
/// publish-time base64(PNG) encode (shared, never copied until the final
/// body render).
struct TileRef {
  viz::TileRect rect;
  const std::string* b64 = nullptr;
};

/// Render an image-delta poll body: the state as given (key-delta for the
/// publish-time sequential body, full state for cursor-anchored skips — a
/// skipping client cannot merge key deltas across frames it never saw), the
/// base seq the rects patch, the canvas dimensions, and the rects in the
/// order the client composites them.
std::string render_tiles_body(std::uint64_t seq, Tier tier,
                              const util::Json& state, std::uint64_t base_seq,
                              int width, int height,
                              const std::vector<TileRef>& tiles) {
  util::Json out;
  out["seq"] = static_cast<double>(seq);
  out["delta"] = true;
  out["tier"] = tier_name(tier);
  out["state"] = state;
  out["base_seq"] = static_cast<double>(base_seq);
  out["img_w"] = width;
  out["img_h"] = height;
  util::JsonArray arr;
  arr.reserve(tiles.size());
  for (const TileRef& t : tiles) {
    util::Json tile;
    tile["x"] = t.rect.x;
    tile["y"] = t.rect.y;
    tile["w"] = t.rect.w;
    tile["h"] = t.rect.h;
    tile["png_b64"] = *t.b64;
    arr.push_back(std::move(tile));
  }
  out["tiles"] = util::Json(std::move(arr));
  return out.dump();
}

/// Timeouts from the network are untrusted input: NaN must not reach the
/// deadline arithmetic and a negative wait means "do not wait".
double sanitize_timeout(double timeout_s, double max_wait_s) {
  if (!std::isfinite(timeout_s) || timeout_s < 0.0) return 0.0;
  return std::min(timeout_s, max_wait_s);
}

}  // namespace

const char* tier_name(Tier tier) {
  switch (tier) {
    case Tier::kFull: return "full";
    case Tier::kHalf: return "half";
    case Tier::kStateOnly: return "state";
  }
  return "full";
}

FrameHub::FrameHub(Config config)
    : config_(config), link_(std::make_shared<ReactorLink>()) {
  if (config_.reactor == nullptr) {
    throw std::invalid_argument("FrameHub needs a reactor");
  }
  if (config_.window == 0) config_.window = 1;
  link_->hub = this;
}

FrameHub::~FrameHub() { shutdown(); }

std::uint64_t FrameHub::publish(util::Json state, const viz::Image& image,
                                bool build_half, util::ThreadPool* pool) {
  if (image.width() == 0 || image.height() == 0) {
    return publish_impl(std::move(state), {}, nullptr, nullptr, nullptr);
  }
  auto raw_full = std::make_shared<const viz::Image>(image);
  std::shared_ptr<const viz::Image> raw_half;
  if (build_half) {
    raw_half = std::make_shared<const viz::Image>(viz::downsample(image, 2));
  }
  return publish_impl(std::move(state), {}, std::move(raw_full),
                      std::move(raw_half), pool);
}

std::uint64_t FrameHub::publish(util::Json state,
                                std::vector<std::uint8_t> png) {
  // No raw pixels: no reduced image (half tier falls back to the full body)
  // and no image deltas (image changes resend the whole image).
  return publish_impl(std::move(state), std::move(png), nullptr, nullptr,
                      nullptr);
}

std::uint64_t FrameHub::publish_impl(util::Json state,
                                     std::vector<std::uint8_t> png,
                                     std::shared_ptr<const viz::Image> raw_full,
                                     std::shared_ptr<const viz::Image> raw_half,
                                     util::ThreadPool* pool) {
  // Publishers serialize here, which lets the expensive work — PNG
  // encodes, delta encoding, one base64 per image tier, rendering the
  // per-tier response bodies — happen without holding mutex_, so
  // concurrent polls never stall behind a frame build. Readers see seq_
  // and window_ change together below.
  std::lock_guard<std::mutex> publishing(publish_mutex_);
  FramePtr prev = latest();
  EncodeCost cost;

  auto frame = std::make_shared<Frame>();
  frame->seq = (prev ? prev->seq : 0) + 1;
  frame->state = std::move(state);
  frame->png = std::move(png);

  util::Json delta_state;
  if (prev && frame->state.is_object() && prev->state.is_object()) {
    const util::JsonObject& now = frame->state.as_object();
    const util::JsonObject& before = prev->state.as_object();
    for (const auto& [key, value] : now) {
      const auto it = before.find(key);
      if (it == before.end() || !(it->second == value)) {
        delta_state[key] = value;
        ++frame->delta_keys;
      }
    }
  } else {
    delta_state = frame->state;
    frame->delta_keys =
        frame->state.is_object() ? frame->state.as_object().size() : 0;
  }

  // The frame's encodes — full and half PNG with their base64, and each
  // tier's changed-region rect — are independent of one another, so they
  // are queued here, each writing only its own slot, and run together
  // below: concurrently on the publisher's lent pool, serially without one.
  // Each encode lends the pool on to its PNG's deflate strips, which nest
  // under these tasks.
  std::vector<std::function<void()>> encodes;
  std::string b64_full;
  std::string b64_half;
  if (raw_full) {
    encodes.emplace_back([&] {
      frame->png = raw_full->encode_png(pool);
      b64_full = util::base64_encode(frame->png);
    });
  } else if (!frame->png.empty()) {
    encodes.emplace_back([&] { b64_full = util::base64_encode(frame->png); });
  }
  if (raw_half) {
    encodes.emplace_back([&] {
      frame->png_half = raw_half->encode_png(pool);
      b64_half = util::base64_encode(frame->png_half);
    });
  }

  // Image-delta pass, per image tier: bound the pixels that differ from
  // the predecessor's raw framebuffer and PNG-encode that one rect — once
  // per frame per tier, shared by every client whose delta includes it
  // (sequential *and* cursor-anchored skippers). A tier the predecessor
  // had no pixels for, or had at another size, has no reference: this
  // frame stays full_change there.
  const std::array<std::shared_ptr<const viz::Image>, kImageTierCount> raws = {
      raw_full, raw_half};
  std::array<std::size_t, kImageTierCount> rect_png_bytes{};
  for (std::size_t t = 0; t < kImageTierCount; ++t) {
    Frame::TileData& td = frame->tiles[t];
    const std::shared_ptr<const viz::Image>& raw = raws[t];
    if (!raw) continue;
    td.width = raw->width();
    td.height = raw->height();
    const viz::Image* prev_raw = last_raw_[t].get();
    if (!prev_raw || prev_raw->width() != raw->width() ||
        prev_raw->height() != raw->height()) {
      continue;
    }
    const std::optional<viz::TileRect> rect =
        viz::changed_bounds(*prev_raw, *raw);
    if (!rect) {
      td.full_change = false;  // byte-identical pixels: an empty delta
      continue;
    }
    const double area = static_cast<double>(rect->w) * rect->h;
    if (area >= config_.full_tile_fraction * raw->width() * raw->height()) {
      continue;  // most of the frame changed: the full image is the delta
    }
    td.full_change = false;
    td.rect = rect;
    encodes.emplace_back([&td, &rect_png_bytes, &raw, pool, t] {
      const std::vector<std::uint8_t> png_bytes =
          viz::TileGrid::extract(*raw, *td.rect).encode_png(pool);
      rect_png_bytes[t] = png_bytes.size();
      td.rect_b64 = util::base64_encode(png_bytes);
    });
    cost.bytes_in += static_cast<std::uint64_t>(rect->w) *
                     static_cast<std::uint64_t>(rect->h) * 4;
    ++cost.encodes;
  }

  util::parallel_for(pool, 0, encodes.size(),
                     [&](std::size_t lo, std::size_t hi) {
                       for (std::size_t i = lo; i < hi; ++i) encodes[i]();
                     });
  // This frame's pixels are the next publish's reference; a tier it did
  // not build has none.
  last_raw_ = raws;
  frame->image_changed = !prev || frame->png != prev->png;
  for (const std::size_t size : rect_png_bytes) cost.bytes_out += size;
  cost.encodes += (b64_full.empty() ? 0 : 1) + (b64_half.empty() ? 0 : 1);
  if (raw_full && !frame->png.empty()) {
    cost.bytes_in += raw_full->bytes();
    cost.bytes_out += frame->png.size();
  }
  if (raw_half && !frame->png_half.empty()) {
    cost.bytes_in += raw_half->bytes();
    cost.bytes_out += frame->png_half.size();
  }
  const std::string none;
  for (std::size_t t = 0; t < kTierCount; ++t) {
    const Tier tier = static_cast<Tier>(t);
    if (tier == Tier::kHalf && frame->png_half.empty()) {
      // Half tier not built this frame: Frame::body() falls back to the
      // full tier's bodies, so rendering duplicates here buys nothing.
      continue;
    }
    const std::string& image_b64 = tier == Tier::kFull   ? b64_full
                                   : tier == Tier::kHalf ? b64_half
                                                         : none;
    frame->bodies[t].full =
        render_body(frame->seq, tier, frame->state, image_b64, false);
    // The sequential delta body (cursor exactly one frame behind): the
    // changed-region rect when a delta exists, the whole image only as
    // fallback.
    const bool tiled = t < kImageTierCount && !frame->tiles[t].full_change &&
                       frame->image_changed;
    if (tiled) {
      const Frame::TileData& td = frame->tiles[t];
      std::vector<TileRef> tiles;
      if (td.rect) tiles.push_back({*td.rect, &td.rect_b64});
      frame->bodies[t].delta =
          render_tiles_body(frame->seq, tier, delta_state, frame->seq - 1,
                            td.width, td.height, tiles);
    } else {
      frame->bodies[t].delta =
          render_body(frame->seq, tier, delta_state,
                      frame->image_changed ? image_b64 : none, true);
    }
  }

  return commit_frame(std::move(frame), cost, false);
}

std::uint64_t FrameHub::publish_encoded(PreEncoded pre) {
  // The relay's forwarding path: no pixels, no PNG, no base64 — the wire
  // bodies the caller received upstream become this frame's serve-time
  // bodies. With no pixels the frame is a full change on both image tiers
  // and leaves the next publish no reference: cursor-anchored deltas
  // decline and skipping clients fall back to the full body — or, when
  // this frame has none, to the relay's resync-escalation path.
  std::lock_guard<std::mutex> publishing(publish_mutex_);
  FramePtr prev = latest();
  last_raw_ = {};

  auto frame = std::make_shared<Frame>();
  frame->seq = (prev ? prev->seq : 0) + 1;
  frame->state = std::move(pre.state);
  frame->bodies[static_cast<std::size_t>(Tier::kFull)].full =
      std::move(pre.full_body);
  frame->bodies[static_cast<std::size_t>(Tier::kFull)].delta =
      std::move(pre.delta_body);
  return commit_frame(std::move(frame), {}, true);
}

std::uint64_t FrameHub::commit_frame(std::shared_ptr<Frame> frame,
                                     const EncodeCost& cost,
                                     bool preencoded) {
  bool waiters_remain = false;
  bool post = false;
  auto remain_hint = std::chrono::steady_clock::time_point::max();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) return seq_;
    seq_ = frame->seq;
    window_.push_back(frame);
    while (window_.size() > config_.window) window_.pop_front();

    const auto now = std::chrono::steady_clock::now();
    const std::size_t queued = outbox_.size();
    auto it = waiters_.begin();
    while (it != waiters_.end()) {
      // A paced waiter whose inter-frame interval has not yet elapsed stays
      // parked; the timer sweeper serves it at not_before.
      if (it->since < frame->seq && now >= it->not_before) {
        // frame_for_locked, not `frame`: a sequential waiter that sat out
        // earlier publishes behind its not_before must resume at its own
        // cursor, not jump to the newest frame.
        outbox_.emplace_back(std::move(it->done), frame_for_locked(*it));
        it = waiters_.erase(it);
      } else {
        // Cursor from the future (stale client) or paced; keep waiting.
        // Its next actionable instant feeds the reschedule hint below.
        auto event = it->deadline;
        if (it->since < frame->seq) event = std::min(event, it->not_before);
        remain_hint = std::min(remain_hint, event);
        ++it;
      }
    }
    stats_.published++;
    stats_.image_encodes += cost.encodes;
    stats_.image_bytes_in += cost.bytes_in;
    stats_.image_bytes_out += cost.bytes_out;
    if (preencoded) stats_.preencoded_publishes++;
    stats_.served += outbox_.size() - queued;
    stats_.waiting = waiters_.size();
    post = queued == 0 && !outbox_.empty();
    waiters_remain = !waiters_.empty();
  }
  // The reactor runs the N completions as one task, posted after unlocking
  // so the woken loop does not block on mutex_.
  if (post) post_outbox();
  // Waiters held back by pacing (not_before) now have a frame: the reactor
  // sweep timer must move up to the earliest such instant.
  if (waiters_remain) request_reschedule(remain_hint);
  // The woken loop is often queued on this CPU while the monitor loop goes
  // on to render: yield so the completions run now (4 vCPUs: post-to-run
  // p90 ~5 ms without the yield, ~40 us with it).
  if (post) std::this_thread::yield();
  return frame->seq;
}

FramePtr FrameHub::latest() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return window_.empty() ? nullptr : window_.back();
}

FramePtr FrameHub::next_after_locked(std::uint64_t since) const {
  if (window_.empty() || seq_ <= since) return nullptr;
  // window_ holds consecutive seqs [seq_ - size + 1, seq_].
  const std::uint64_t oldest = window_.front()->seq;
  const std::uint64_t want = std::max(since + 1, oldest);
  return window_[static_cast<std::size_t>(want - oldest)];
}

FramePtr FrameHub::frame_for_locked(const Waiter& waiter) const {
  if (waiter.latest_only && !window_.empty() && seq_ > waiter.since) {
    return window_.back();
  }
  return next_after_locked(waiter.since);
}

FramePtr FrameHub::next_after(std::uint64_t since) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_after_locked(since);
}

std::string FrameHub::delta_body_for(const FramePtr& frame,
                                     std::uint64_t since, Tier tier) const {
  if (!frame || tier == Tier::kStateOnly || frame->seq <= since) return {};
  const std::size_t t = static_cast<std::size_t>(tier);
  // Snapshot the skipped frames (since, frame->seq] out of the window. The
  // window holds a contiguous seq range, so retaining the cursor frame
  // means every later frame is retained too.
  std::vector<FramePtr> chain;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (window_.empty()) return {};
    const std::uint64_t oldest = window_.front()->seq;
    if (since < oldest || frame->seq > seq_) return {};  // cursor aged out
    chain.reserve(static_cast<std::size_t>(frame->seq - since));
    for (std::uint64_t s = since + 1; s <= frame->seq; ++s) {
      chain.push_back(window_[static_cast<std::size_t>(s - oldest)]);
    }
  }
  // A full-change frame anywhere in the skipped range changed pixels that
  // no stored rect accounts for. This also covers the reference: publish
  // marks a tier full_change whenever the frame or its predecessor had no
  // pixels for it or their sizes differ, so a range free of full changes
  // starts at a cursor frame that had this tier's pixels at the served size.
  for (const FramePtr& skipped : chain) {
    if (skipped->tiles[t].full_change) return {};
  }
  const Frame::TileData& served = frame->tiles[t];

  // The coverage rule, newest frame first: take a frame's rect unless the
  // rects already taken cover all of it. Sent oldest first, the newest
  // taken rect over a pixel lands last, and it holds that pixel's current
  // value: no newer frame's rect holds the pixel, so no newer frame changed
  // it. Taking only the rects that touch the cursor-vs-current difference
  // would be wrong: a pixel that changed and changed back inside the range
  // must still be restored over an older taken rect's stale copy of it.
  // Coverage is kept per row as sorted, disjoint [x0, x1) spans.
  const std::vector<std::uint8_t>& full_png =
      tier == Tier::kFull ? frame->png : frame->png_half;
  const std::size_t full_b64 = (full_png.size() + 2) / 3 * 4;
  std::vector<std::vector<std::pair<int, int>>> spans(
      static_cast<std::size_t>(served.height));
  const auto covered = [&](const viz::TileRect& r) {
    for (int y = r.y; y < r.y + r.h; ++y) {
      const auto& row = spans[static_cast<std::size_t>(y)];
      const auto holds = [&](const std::pair<int, int>& span) {
        return span.first <= r.x && r.x + r.w <= span.second;
      };
      if (std::none_of(row.begin(), row.end(), holds)) return false;
    }
    return true;
  };
  const auto cover = [&](const viz::TileRect& r) {
    for (int y = r.y; y < r.y + r.h; ++y) {
      auto& row = spans[static_cast<std::size_t>(y)];
      row.emplace_back(r.x, r.x + r.w);
      std::sort(row.begin(), row.end());
      std::size_t kept = 0;
      for (std::size_t i = 1; i < row.size(); ++i) {
        if (row[i].first <= row[kept].second) {
          row[kept].second = std::max(row[kept].second, row[i].second);
        } else {
          row[++kept] = row[i];
        }
      }
      row.resize(kept + 1);
    }
  };
  std::vector<TileRef> tiles;
  std::size_t b64_bytes = 0;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    const Frame::TileData& td = (*it)->tiles[t];
    if (!td.rect || covered(*td.rect)) continue;
    b64_bytes += td.rect_b64.size();
    if (b64_bytes >= full_b64) return {};  // the full image is no larger
    cover(*td.rect);
    tiles.push_back({*td.rect, &td.rect_b64});
  }
  std::reverse(tiles.begin(), tiles.end());
  // Full state, not a key delta: the client skipped the intermediate frames
  // and has nothing valid to merge into.
  std::string body = render_tiles_body(frame->seq, tier, frame->state, since,
                                       served.width, served.height, tiles);
  // The rects' JSON framing is not in the running cap above: a body that
  // ends up no smaller than the full one is not worth sending.
  if (body.size() >= frame->body(tier, false).size()) return {};
  return body;
}

std::uint64_t FrameHub::seq() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return seq_;
}

std::uint64_t FrameHub::oldest_retained() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return window_.empty() ? 0 : window_.front()->seq;
}

FrameHub::Stats FrameHub::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

bool FrameHub::is_shutdown() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return shutdown_;
}

void FrameHub::wait_async(std::uint64_t since, double timeout_s,
                          std::function<void(FramePtr)> done) {
  WaitOptions options;
  options.timeout_s = timeout_s;
  wait_async(since, options, std::move(done));
}

void FrameHub::wait_async(std::uint64_t since, const WaitOptions& options,
                          std::function<void(FramePtr)> done) {
  const double timeout_s =
      sanitize_timeout(options.timeout_s, config_.max_wait_s);
  const auto now = std::chrono::steady_clock::now();
  FramePtr ready;
  bool registered = false;
  auto new_event = std::chrono::steady_clock::time_point::max();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // A cursor ahead of the newest seq cannot be satisfied in this epoch —
    // a stale client whose server restarted (seq counting re-began at 1).
    // Clamp it to the head so the *next publish* serves it a full-frame
    // resync instead of parking forever against a seq that will never
    // arrive. Deliberately not served instantly: pre-resync dashboards
    // ignore frames with seq <= their cursor and re-poll immediately, so an
    // instant response would turn every such straggler into a wire-speed
    // poll loop — parking until the next frame rate-limits them to the
    // publish cadence.
    if (since > seq_) since = seq_;
    if (shutdown_) {
      // fall through; completed below without registering
    } else if (seq_ > since && now >= options.not_before) {
      Waiter probe;
      probe.since = since;
      probe.latest_only = options.latest_only;
      ready = frame_for_locked(probe);
      stats_.served++;
    } else {
      Waiter w;
      w.since = since;
      w.deadline = now +
                   std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                       std::chrono::duration<double>(timeout_s));
      w.not_before = options.not_before;
      w.latest_only = options.latest_only;
      w.done = std::move(done);
      // This waiter's own next actionable instant — the reschedule hint.
      new_event = w.deadline;
      if (seq_ > since) new_event = std::min(new_event, w.not_before);
      waiters_.push_back(std::move(w));
      stats_.waiting = waiters_.size();
      stats_.waiting_peak = std::max(stats_.waiting_peak, stats_.waiting);
      registered = true;
    }
  }
  if (registered) {
    // The new waiter's deadline (or pacing instant) may be the nearest
    // event: the reactor re-derives its sweep timer.
    request_reschedule(new_event);
    return;
  }
  // Caller's thread completes immediately — no reactor round-trip when the
  // frame already exists (the catch-up path).
  done(ready);
}

std::chrono::steady_clock::time_point FrameHub::next_event_locked() const {
  // Next actionable instant: a timeout deadline, or the not_before of a
  // paced waiter whose frame is already available.
  auto next = waiters_.front().deadline;
  for (const Waiter& w : waiters_) {
    next = std::min(next, w.deadline);
    if (seq_ > w.since) next = std::min(next, w.not_before);
  }
  return next;
}

bool FrameHub::sweep_due_locked(std::chrono::steady_clock::time_point now) {
  const std::size_t queued = outbox_.size();
  auto it = waiters_.begin();
  while (it != waiters_.end()) {
    if (it->deadline <= now) {
      stats_.timeouts++;
      outbox_.emplace_back(std::move(it->done), nullptr);
      it = waiters_.erase(it);
    } else if (seq_ > it->since && it->not_before <= now) {
      // Paced waiter whose inter-frame interval elapsed after the frame
      // arrived: serve it now (newest frame for latest_only skippers).
      stats_.served++;
      outbox_.emplace_back(std::move(it->done), frame_for_locked(*it));
      it = waiters_.erase(it);
    } else {
      ++it;
    }
  }
  stats_.waiting = waiters_.size();
  return queued == 0 && !outbox_.empty();
}

void FrameHub::post_outbox() {
  // Runs every queued completion, in order, on the loop thread. Holding
  // the link mutex across the callbacks is what lets shutdown() promise
  // that none runs after it returns: it waits this task out, then runs
  // whatever is still queued itself.
  config_.reactor->post([link = link_] {
    std::lock_guard<std::mutex> guard(link->mutex);
    if (link->hub == nullptr) return;
    std::vector<Completion> run;
    {
      std::lock_guard<std::mutex> lock(link->hub->mutex_);
      run.swap(link->hub->outbox_);
    }
    for (auto& [done, frame] : run) done(std::move(frame));
  });
}

void FrameHub::request_reschedule(std::chrono::steady_clock::time_point hint) {
  // Posted closures capture the link, never the hub: after shutdown() nulls
  // link_->hub, a straggler is a locked no-op instead of a dangling call.
  config_.reactor->post([link = link_, hint] {
    std::lock_guard<std::mutex> guard(link->mutex);
    if (link->hub != nullptr) link->hub->reschedule_on_reactor(hint);
  });
}

void FrameHub::reschedule_on_reactor(
    std::chrono::steady_clock::time_point hint) {
  // The armed timer already fires by the prompting event's instant: done.
  // This is the hot path — every new waiter whose deadline lies beyond
  // the earliest one (i.e. almost all of them) stops here instead of
  // paying an O(waiters) rescan.
  if (reactor_timer_ != 0 && armed_at_ <= hint) return;
  if (reactor_timer_ != 0) {
    config_.reactor->cancel(reactor_timer_);
    reactor_timer_ = 0;
  }
  std::chrono::steady_clock::time_point earliest;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_ || waiters_.empty()) return;
    earliest = next_event_locked();
  }
  // One timer registration covers the whole waiter list — pacing instants
  // and poll timeouts alike become wheel entries on the shared loop.
  reactor_timer_ = config_.reactor->run_at(earliest, [link = link_] {
    std::lock_guard<std::mutex> guard(link->mutex);
    if (link->hub == nullptr) return;
    link->hub->reactor_timer_ = 0;
    bool post = false;
    {
      std::lock_guard<std::mutex> lock(link->hub->mutex_);
      if (!link->hub->shutdown_) {
        post = link->hub->sweep_due_locked(std::chrono::steady_clock::now());
      }
    }
    if (post) link->hub->post_outbox();
    link->hub->reschedule_on_reactor(
        std::chrono::steady_clock::time_point::min());
  });
  armed_at_ = earliest;
}

void FrameHub::shutdown() {
  std::vector<Waiter> orphans;
  std::vector<Completion> undelivered;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) return;
    shutdown_ = true;
    orphans.swap(waiters_);
    undelivered.swap(outbox_);
    stats_.timeouts += orphans.size();
    stats_.waiting = 0;
  }
  {
    // Sever the reactor link, after a completion task already running on
    // the loop finishes: tasks and timers still queued find a null hub.
    std::lock_guard<std::mutex> guard(link_->mutex);
    link_->hub = nullptr;
  }
  // Outside every lock, in order: satisfied waiters the reactor never got
  // to, then the parked ones with the timeout contract.
  for (auto& [done, frame] : undelivered) done(std::move(frame));
  for (auto& w : orphans) w.done(nullptr);
}

}  // namespace ricsa::web
