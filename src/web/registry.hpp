// Multi-hub sharding: one FrameHub per named view.
//
// The paper's Ajax server serves a single visualization stream; the
// "millions of users" north star needs clients watching different
// variables/projections (e.g. "rho/iso" vs "pressure/slice") to stop
// sharing one retention window. The registry owns one FrameHub *shard* per
// view name: each shard keeps its own sliding window, tier rendering, and
// tile-delta state, so a slow consumer replaying one view's window never
// contends with — or paces — clients on another view. This keyed-shard
// decomposition is also the architectural prerequisite for relay fan-out
// trees (a relay subscribes to exactly the shards its downstream watches).
//
// Lifecycle: shards are created lazily on first publish (the publisher
// declares the view namespace) and *revived* lazily on subscribe — a
// subscriber can only name views the publisher has declared, so an unknown
// view is a 404 at the HTTP layer, never an attacker-driven allocation.
// Shards idle past `idle_reap_s` (no publish, no subscriber activity) are
// reaped: the heavy FrameHub (window, framebuffers, encodes) is shut down —
// which completes any parked pollers with the timeout contract — while the
// view *name* stays registered. A later poll revives an empty shard whose
// seq restarts at 1; parked clients that re-poll with their stale cursor
// are clamped to the head and resync with the next publish, exactly the
// stale-cursor path they already handle after a server restart.
//
// Pacing is NOT sharded: the registry owns the one SessionTable, keyed by
// client identity, so one browser polling two views feeds a single
// GoodputMeter/RmsaController (web/session.hpp has the normalization
// story) and a tier downgrade applies to every view the client watches.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "viz/image.hpp"
#include "web/hub.hpp"
#include "web/session.hpp"

namespace ricsa::web {

class HubRegistry {
 public:
  struct Config {
    /// Per-shard FrameHub template (every shard gets its own window and
    /// tile grid; all shards run on the one reactor it names).
    FrameHub::Config hub;
    /// Registry-level per-client pacing (shared across views).
    PacingConfig pacing;
    /// View served when a request carries no `view=` parameter.
    std::string default_view = "main";
    /// Shards with neither a publish nor subscriber activity for this long
    /// are reaped (FrameHub shut down, name retained). 0 disables reaping.
    double idle_reap_s = 300.0;
    /// Throttle for the publish-path reap sweep.
    double sweep_period_s = 5.0;
    /// Hard cap on distinct view names. Publisher-side only (subscribers
    /// cannot create names), so this guards a buggy publisher loop, not an
    /// attacker; publishes into new views beyond it are refused.
    std::size_t max_views = 256;
  };

  struct Stats {
    std::size_t live = 0;       // shards currently backed by a FrameHub
    std::size_t known = 0;      // registered view names (live + reaped)
    std::uint64_t created = 0;  // hub constructions (creations + revivals)
    std::uint64_t reaped = 0;
  };

  explicit HubRegistry(Config config);
  ~HubRegistry();
  HubRegistry(const HubRegistry&) = delete;
  HubRegistry& operator=(const HubRegistry&) = delete;

  const std::string& default_view_name() const { return config_.default_view; }
  /// The default view's shard, created (and pinned against reaping) on
  /// first use: the stable hub the single-view API surface rides on.
  std::shared_ptr<FrameHub> default_hub();

  /// Publish a frame into `view`, creating or reviving its shard first.
  /// `encode_pool` is lent to FrameHub::publish for the frame's encodes.
  /// Returns the shard's new seq, or 0 when refused (shutdown, or a new
  /// name beyond max_views).
  std::uint64_t publish(const std::string& view, util::Json state,
                        const viz::Image& image, bool build_half = true,
                        util::ThreadPool* encode_pool = nullptr);
  std::uint64_t publish(const std::string& view, util::Json state,
                        std::vector<std::uint8_t> png);
  /// Inject a pre-encoded frame (FrameHub::publish_encoded): the relay's
  /// forwarding path.
  std::uint64_t publish_encoded(const std::string& view,
                                FrameHub::PreEncoded pre);

  /// Subscriber-side shard lookup: the live hub for `view`, reviving a
  /// reaped shard of a known name; null for names never published or
  /// pinned — the HTTP layer's 404.
  std::shared_ptr<FrameHub> subscribe(const std::string& view);
  /// Lookup without revival (monitoring): null when the shard has no live
  /// hub right now, even if the name is known.
  std::shared_ptr<FrameHub> find(const std::string& view) const;
  /// Record subscriber activity on `view` without looking anything up: a
  /// long-lived stream subscribes once but keeps consuming, so it refreshes
  /// the shard's idle-reap clock per delivery the way each long-poll's
  /// subscribe() does. No-op for unknown or reaped views.
  void touch(const std::string& view);
  /// Register `view` eagerly and exempt it from reaping.
  std::shared_ptr<FrameHub> pin(const std::string& view);

  bool known(const std::string& view) const;
  /// Registered view names, sorted (map order).
  std::vector<std::string> view_names() const;

  /// Reap every reapable idle shard now, bypassing the sweep throttle
  /// (tests, explicit maintenance). Returns the number reaped.
  std::size_t reap_idle_now();

  SessionTable& sessions() { return sessions_; }
  const SessionTable& sessions() const { return sessions_; }

  Stats stats() const;

  /// Shut down every shard (parked waiters complete with the timeout
  /// contract) and refuse further publishes/subscribes. Idempotent. The
  /// reactor driving the shards must outlive this call.
  void shutdown();

 private:
  struct Shard {
    std::shared_ptr<FrameHub> hub;  // null while reaped
    double last_publish_s = 0.0;
    double last_subscribe_s = 0.0;
    bool pinned = false;
  };

  /// Create/revive the shard's hub. Requires mutex_.
  std::shared_ptr<FrameHub> revive_locked(Shard& shard);
  /// Collect idle shards' hubs for shutdown. Requires mutex_.
  std::vector<std::shared_ptr<FrameHub>> sweep_locked(double now_s,
                                                      bool force);
  /// Throttled sweep taking mutex_ itself; the caller shuts the returned
  /// hubs down outside any lock.
  std::vector<std::shared_ptr<FrameHub>> sweep_locked_outside(double now_s);
  /// Shard lookup/creation/revival for a publish; null when refused.
  std::shared_ptr<FrameHub> hub_for_publish(const std::string& view,
                                            double now_s);

  Config config_;
  mutable std::mutex mutex_;
  std::map<std::string, Shard> shards_;
  Stats stats_;
  bool shutdown_ = false;
  double last_sweep_s_ = -1.0;
  SessionTable sessions_;
};

}  // namespace ricsa::web
