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
// Lifecycle: a shard is created by the first publish into its view (the
// publisher declares the view namespace) or by declare(), and lives until
// shutdown(). A subscriber can only name views the publisher has declared,
// so an unknown view is a 404 at the HTTP layer, never an attacker-driven
// allocation. Nothing retires a shard earlier: like the paper's server,
// every publisher here (the origin's monitor loop, a relay's subscriber)
// publishes each of its views for as long as it runs, so an idle shard
// would only be one whose publisher stopped — and kMaxViews bounds those.
//
// Pacing is NOT sharded: the registry owns the one SessionTable, keyed by
// client identity, so one browser polling two views feeds a single
// GoodputMeter/RmsaController (web/session.hpp has the normalization
// story) and a tier downgrade applies to every view the client watches.
#pragma once

#include <cstddef>
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
    /// changed-region state; all shards run on the one reactor it names).
    FrameHub::Config hub;
    /// Registry-level per-client pacing (shared across views).
    PacingConfig pacing;
    /// View served when a request carries no `view=` parameter.
    std::string default_view = "main";
  };

  /// Hard cap on distinct view names. Publisher-side only (subscribers
  /// cannot create names), so this guards a buggy publisher loop, not an
  /// attacker; publishes into new views beyond it are refused.
  static constexpr std::size_t kMaxViews = 256;

  explicit HubRegistry(Config config);
  ~HubRegistry();
  HubRegistry(const HubRegistry&) = delete;
  HubRegistry& operator=(const HubRegistry&) = delete;

  const std::string& default_view_name() const { return config_.default_view; }
  /// The default view's shard, declared on first use: the stable hub the
  /// single-view API surface rides on.
  std::shared_ptr<FrameHub> default_hub();

  /// Publish a frame into `view`, declaring its shard first.
  /// `encode_pool` is lent to FrameHub::publish for the frame's encodes.
  /// Returns the shard's new seq, or 0 when refused (shutdown, or a new
  /// name beyond kMaxViews).
  std::uint64_t publish(const std::string& view, util::Json state,
                        const viz::Image& image, bool build_half = true,
                        util::ThreadPool* encode_pool = nullptr);
  /// Inject a pre-encoded frame (FrameHub::publish_encoded): the relay's
  /// forwarding path.
  std::uint64_t publish_encoded(const std::string& view,
                                FrameHub::PreEncoded pre);

  /// The shard for `view`; null for names never published or declared —
  /// the HTTP layer's 404 — and after shutdown().
  std::shared_ptr<FrameHub> find(const std::string& view) const;
  /// Declare `view` up front, before its first publish. Null when refused
  /// (shutdown, or a new name beyond kMaxViews).
  std::shared_ptr<FrameHub> declare(const std::string& view);

  /// Declared view names, sorted (map order).
  std::vector<std::string> view_names() const;

  SessionTable& sessions() { return sessions_; }
  const SessionTable& sessions() const { return sessions_; }

  /// Shut down every shard (parked waiters complete with the timeout
  /// contract) and refuse further publishes/lookups. Idempotent. The
  /// reactor driving the shards must outlive this call.
  void shutdown();

 private:
  Config config_;
  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<FrameHub>> shards_;
  bool shutdown_ = false;
  SessionTable sessions_;
};

}  // namespace ricsa::web
