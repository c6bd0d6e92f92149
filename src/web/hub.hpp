// Broadcast hub between the monitor loop and any number of long-polling
// Ajax clients.
//
// The paper's claim is that "any number of clients" can watch and steer a
// running computation; the hub is what makes that scale. Each frame is
// snapshotted ONCE into an immutable, seq-numbered Frame — state JSON,
// encoded image, and the fully rendered poll response bodies — and every
// waiting /api/poll?since=N cursor is then served that shared object on the
// hub's reactor (the hub owns no thread), never by the monitor thread and
// never with per-client re-encoding. A sliding window of retained frames
// lets clients that fall briefly behind catch up gap-free while bounding
// memory regardless of how many clients attach or how slow they are.
//
// Network optimization (the paper's per-receiver rate adaptation, applied
// per browser): each frame is rendered into a small set of quality *tiers*
// — full image + full state, half-resolution image, state-only — still one
// encode per frame per tier, shared by every client on that tier. The
// per-client session layer (web/session.hpp) maps each client's measured
// goodput to a tier and a minimum inter-frame interval; the hub enforces
// the interval via WaitOptions::not_before and serves paced clients the
// newest frame (skipping stale ones) instead of replaying the window.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/json.hpp"
#include "util/thread_pool.hpp"
#include "viz/image.hpp"
#include "viz/tiles.hpp"

namespace ricsa::net {
class Reactor;
}

namespace ricsa::web {

/// Frame quality tiers, cheapest-to-serve last. Every frame carries all
/// tiers; which one a client receives is the session layer's decision.
enum class Tier : std::uint8_t {
  kFull = 0,      // full-resolution PNG + full monitoring state
  kHalf = 1,      // half-resolution PNG + full monitoring state
  kStateOnly = 2  // monitoring state only, no image
};
inline constexpr std::size_t kTierCount = 3;
const char* tier_name(Tier tier);

/// Image tiers that carry pixels (and therefore image-delta data): kFull and
/// kHalf. kStateOnly has no image.
inline constexpr std::size_t kImageTierCount = 2;

/// One published monitoring frame. Immutable after publish; shared between
/// the hub's retention window and every in-flight response.
struct Frame {
  std::uint64_t seq = 0;
  util::Json state;                     // full monitoring state (JSON object)
  std::vector<std::uint8_t> png;        // encoded full-resolution image
  std::vector<std::uint8_t> png_half;   // encoded half-resolution image
  /// Fully rendered /api/poll JSON bodies, built once per frame per tier:
  /// `full` carries the whole state, `delta` only the keys that changed
  /// since the previous frame — and, for the image, only the changed region
  /// vs the predecessor (`tiles` + `base_seq`), omitting the image entirely
  /// when its bytes are identical. The paper's partial update, applied to
  /// both halves of the payload.
  struct Body {
    std::string full;
    std::string delta;
  };
  std::array<Body, kTierCount> bodies;

  /// Image-delta data for one image tier, fixed at publish. Frames keep no
  /// pixels: the hub holds only the newest frame's raw framebuffer, the
  /// reference the next publish bounds its changed region against.
  struct TileData {
    /// The bounding box of the pixels that differ from the predecessor
    /// (viz::changed_bounds); nullopt when none differ or no delta exists.
    /// Cut from this frame, it holds this frame's content for every pixel
    /// inside it — what the coverage rule in delta_body_for relies on.
    std::optional<viz::TileRect> rect;
    /// base64(PNG) of `rect`: one encode per frame per tier, shared by
    /// every client whose delta includes it.
    std::string rect_b64;
    /// No usable delta vs the predecessor exists (first frame, dimension
    /// change, `rect` covering at least kFullChangeFraction (hub.cpp) of
    /// the frame, or this frame or the predecessor had no pixels for this
    /// tier). Cursor-anchored deltas whose range crosses such a frame must
    /// fall back to a full image.
    bool full_change = true;
    /// Size of this tier's pixels; 0 when the frame had none.
    int width = 0, height = 0;
  };
  std::array<TileData, kImageTierCount> tiles;

  std::size_t delta_keys = 0;  // state keys that changed vs predecessor
  bool image_changed = true;

  /// Body to serve for a tier. A half tier that was not built for this
  /// frame (no client demanded it at publish time) falls back to the full
  /// tier's *full* body — never its delta: the full tier's delta may carry
  /// a rect cut from the full-resolution image, which would be composited
  /// onto a half-resolution canvas.
  const std::string& body(Tier tier, bool delta) const {
    const Body& b = bodies[static_cast<std::size_t>(tier)];
    const std::string& chosen = delta ? b.delta : b.full;
    if (chosen.empty() && tier == Tier::kHalf) {
      return body(Tier::kFull, false);
    }
    return chosen;
  }
};
using FramePtr = std::shared_ptr<const Frame>;

/// A frame body as a shareable buffer: the aliasing constructor makes a
/// shared_ptr whose pointee is the frame's own body string and whose
/// control block keeps the whole frame alive. Response paths hand this to
/// the HTTP layer's buffer chains, so a body fanned out to N clients is
/// one allocation scatter-gathered N times — never copied per client.
inline std::shared_ptr<const std::string> body_shared(const FramePtr& frame,
                                                      Tier tier, bool delta) {
  return std::shared_ptr<const std::string>(frame, &frame->body(tier, delta));
}

class FrameHub {
 public:
  struct Config {
    /// Frames retained for catch-up replay (per-client memory bound: a
    /// client cursor is just an integer; the window is the only buffer).
    std::size_t window = 128;
    /// Ceiling on any single long-poll wait.
    double max_wait_s = 60.0;
    /// The event loop the hub runs on: waiter timeouts and pacing
    /// `not_before` sweeps are timer registrations on it, and the waiters
    /// one publish or one sweep satisfies complete there as one posted
    /// task — one loop serves connection readiness, hub deadlines and
    /// fan-out alike. Required; the reactor must outlive the hub.
    net::Reactor* reactor = nullptr;
  };

  struct Stats {
    std::uint64_t published = 0;
    std::uint64_t served = 0;    // waiter completions carrying a frame
    std::uint64_t timeouts = 0;  // waiter completions without one
    std::size_t waiting = 0;     // cursors currently parked
    std::size_t waiting_peak = 0;
    /// Image encodes performed at publish time (full/half base64 + one
    /// changed-region rect per image tier). A relay hub fed exclusively
    /// through publish_encoded() must hold this at zero — the
    /// forwarding-without-decoding assertion.
    std::uint64_t image_encodes = 0;
    /// Frames injected through publish_encoded() (the relay path).
    std::uint64_t preencoded_publishes = 0;
    /// Raw RGBA bytes fed into PNG encodes at publish time (full + half
    /// frames and changed-region rects) and the PNG bytes they produced —
    /// the codec's compression ratio as actually exercised by this hub
    /// (image_bytes_in / image_bytes_out), surfaced by the bench.
    std::uint64_t image_bytes_in = 0;
    std::uint64_t image_bytes_out = 0;
  };

  /// Per-waiter delivery policy (the session layer's pacing decision).
  struct WaitOptions {
    double timeout_s = 0.0;
    /// Serve no frame before this instant, even if one is already
    /// available — the per-client minimum inter-frame interval. Default
    /// (epoch) means no pacing.
    std::chrono::steady_clock::time_point not_before{};
    /// Serve the newest retained frame instead of the next one after
    /// `since`: paced/downgraded clients skip frames they cannot drain
    /// rather than replaying the whole window.
    bool latest_only = false;
  };

  /// Throws std::invalid_argument when config.reactor is null.
  explicit FrameHub(Config config);
  ~FrameHub();
  FrameHub(const FrameHub&) = delete;
  FrameHub& operator=(const FrameHub&) = delete;

  /// Snapshot a new frame: delta-encode vs the previous one, render the
  /// tier bodies (one full PNG encode + base64 per image tier, plus one
  /// changed-region rect per image tier), append it to the
  /// window, and hand every satisfied waiter to the reactor.
  /// `build_half` skips the downsample + second encode when no client
  /// currently occupies the half tier (the common all-fast case) — such
  /// frames serve the full body to half-tier requests. `encode_pool`, lent
  /// by the publisher, runs the frame's full, half and rect PNG encodes
  /// concurrently, and each encode's deflate strips on it too, so
  /// a publish waits for about its share of the encode work, not for its
  /// largest PNG (the bodies are identical either way); null encodes
  /// serially on the caller.
  /// Returns the new seq.
  std::uint64_t publish(util::Json state, const viz::Image& image,
                        bool build_half = true,
                        util::ThreadPool* encode_pool = nullptr);
  /// Pre-encoded flavour (tests, image-less publishers): no reduced image
  /// exists, so the half tier serves the full body.
  std::uint64_t publish(util::Json state, std::vector<std::uint8_t> png);

  /// A frame received from an upstream hub over the wire, already rendered
  /// into poll-body JSON (seq fields rebased into this hub's seq space by
  /// the caller). Bodies land on the full tier; the relay serves every
  /// downstream client at full tier, so no other tier is built.
  struct PreEncoded {
    util::Json state;        // optional (may be null): /api/state payload
    std::string full_body;   // complete poll body, or empty (delta frame)
    std::string delta_body;  // sequential delta body, or empty (full frame)
  };

  /// Inject a pre-encoded frame: the relay's forwarding-without-decoding
  /// path. No pixels are touched, no PNG/base64/rect encoding happens —
  /// the received body strings become the frame's serve-time bodies
  /// verbatim. The caller must have rebased the bodies' top-level `seq`
  /// (and `base_seq`) to seq()+1 before publishing; this hub's window and
  /// waiter fan-out behave exactly as for a locally rendered frame.
  /// Returns the new seq.
  std::uint64_t publish_encoded(PreEncoded pre);

  FramePtr latest() const;
  /// Oldest retained frame with seq > since (the catch-up step), or null.
  FramePtr next_after(std::uint64_t since) const;

  /// Render a delta poll body for serving `frame` at `tier` to a client
  /// whose last composited frame is `since` — the cursor-anchored delta,
  /// which lets paced/skipping clients patch across the whole skipped
  /// range. It is assembled from the skipped frames' publish-time rects by
  /// one coverage rule: walking from `frame` back to the cursor, a frame's
  /// rect is taken unless the rects already taken cover all of it; the
  /// taken rects are sent oldest first, so the newest taken rect over any
  /// pixel, which holds that pixel's current value, lands last. No
  /// per-client encoding happens here. Returns an empty string whenever no
  /// valid delta exists — cursor frame aged out of the window, or a
  /// full-change frame inside the range (which also covers a tier the
  /// cursor frame had no pixels for, and a resized canvas) — or when the
  /// body would be no smaller than the full body; the caller then serves
  /// the full body.
  std::string delta_body_for(const FramePtr& frame, std::uint64_t since,
                             Tier tier) const;
  std::uint64_t seq() const;
  std::uint64_t oldest_retained() const;
  Stats stats() const;

  /// Long-poll: invoke done(frame) as soon as a frame newer than `since`
  /// exists AND options.not_before has passed — synchronously on the caller
  /// if both already hold, else on the reactor. done(nullptr) on timeout
  /// or shutdown. `done` must be invocable from any thread. Non-finite or
  /// negative timeouts are treated as 0. A `since` ahead of the newest seq
  /// (a stale client from a previous server epoch) is clamped to the head:
  /// the waiter receives a full-frame resync at the *next publish* — never
  /// parking forever against a seq that will not arrive under this epoch,
  /// and never answering instantly either (an instant sub-cursor response
  /// would spin pre-resync clients at wire speed).
  void wait_async(std::uint64_t since, const WaitOptions& options,
                  std::function<void(FramePtr)> done);
  void wait_async(std::uint64_t since, double timeout_s,
                  std::function<void(FramePtr)> done);

  /// Refuse new waiters, sever the reactor, and complete on the calling
  /// thread every completion not yet run: satisfied ones with their frame,
  /// parked ones with nullptr. Once it returns no callback of this hub
  /// runs again. Idempotent; must not be called from a completion.
  void shutdown();

  /// True once shutdown() began: lets a long-lived subscriber (an SSE
  /// stream) distinguish a done(nullptr) that means "timed out, wait
  /// again" from one that means "this hub is gone, end the stream".
  bool is_shutdown() const;

 private:
  struct Waiter {
    std::uint64_t since = 0;
    std::chrono::steady_clock::time_point deadline;
    std::chrono::steady_clock::time_point not_before{};
    bool latest_only = false;
    std::function<void(FramePtr)> done;
  };

  /// Liveness guard between the hub and reactor-posted closures: tasks and
  /// timers capture the link (shared), never the hub, and run under its
  /// mutex; shutdown() nulls `hub` under it: stragglers become no-ops.
  struct ReactorLink {
    std::mutex mutex;
    FrameHub* hub = nullptr;
  };

  /// Build and commit a frame: `png` is a pre-encoded full image (then no
  /// raws are given); otherwise the raws are encoded here, on `pool` when
  /// one is lent.
  std::uint64_t publish_impl(util::Json state, std::vector<std::uint8_t> png,
                             std::shared_ptr<const viz::Image> raw_full,
                             std::shared_ptr<const viz::Image> raw_half,
                             util::ThreadPool* pool);
  /// Stats deltas a frame build accumulates for commit_frame.
  struct EncodeCost {
    std::uint64_t encodes = 0;    // PNG/base64 encodes performed
    std::uint64_t bytes_in = 0;   // raw RGBA bytes fed to those encodes
    std::uint64_t bytes_out = 0;  // PNG bytes produced
  };

  /// Shared publish tail: append `frame` to the window, satisfy waiters,
  /// update stats, hand them to the reactor.
  /// Requires publish_mutex_ held; takes mutex_ itself. `cost` is the
  /// encode work the build performed; `preencoded` marks a
  /// publish_encoded() frame.
  std::uint64_t commit_frame(std::shared_ptr<Frame> frame,
                             const EncodeCost& cost, bool preencoded);
  FramePtr next_after_locked(std::uint64_t since) const;  // requires mutex_
  FramePtr frame_for_locked(const Waiter& waiter) const;  // requires mutex_
  /// Earliest actionable instant over the parked waiters. Requires mutex_
  /// and a non-empty waiter list.
  std::chrono::steady_clock::time_point next_event_locked() const;
  /// Queue the completion of every waiter due at `now` (timeout, or pacing
  /// interval elapsed with a frame available). True when that filled an
  /// empty outbox: the caller then calls post_outbox(). Requires mutex_.
  bool sweep_due_locked(std::chrono::steady_clock::time_point now);
  /// A waiter's callback and what it completes with (null: timeout).
  using Completion = std::pair<std::function<void(FramePtr)>, FramePtr>;
  /// Post the one reactor task that runs outbox_, after an event filled it
  /// from empty (while it is non-empty, that task is already queued).
  void post_outbox();
  // Reactor scheduling (reactor loop thread only, under link mutex).
  /// `hint` is the event instant that prompted the call: when the armed
  /// timer already fires no later than it, nothing needs rescheduling —
  /// the common case for each new waiter, avoiding an O(waiters) rescan
  /// per poll. time_point::min() forces the authoritative rescan.
  void reschedule_on_reactor(std::chrono::steady_clock::time_point hint);
  /// Any thread: ask the reactor to re-derive its sweep timer.
  void request_reschedule(std::chrono::steady_clock::time_point hint);

  Config config_;
  /// Serializes publishers so frame building happens outside mutex_.
  std::mutex publish_mutex_;
  /// The newest frame's raw framebuffer per image tier, null for a tier it
  /// had no pixels for: the reference the next publish bounds its changed
  /// region against. Guarded by publish_mutex_.
  std::array<std::shared_ptr<const viz::Image>, kImageTierCount> last_raw_;
  mutable std::mutex mutex_;
  std::deque<FramePtr> window_;
  std::uint64_t seq_ = 0;
  std::vector<Waiter> waiters_;
  bool shutdown_ = false;
  Stats stats_;
  /// Completions the posted reactor task has not run yet; shutdown() runs
  /// what is left.
  std::vector<Completion> outbox_;
  std::shared_ptr<ReactorLink> link_;
  std::uint64_t reactor_timer_ = 0;  // reactor loop thread only
  /// Expiry the armed reactor timer targets (loop thread only).
  std::chrono::steady_clock::time_point armed_at_{};
};

}  // namespace ricsa::web
