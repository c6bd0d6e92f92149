// Per-client adaptive pacing sessions for the Ajax web layer.
//
// The paper's pipeline is *network-optimized*: the sender adapts its rate to
// each receiver's measured goodput. Applied per browser: every /api/poll
// carrying a `client` identifier gets a session that feeds delivery
// timestamps and body sizes into a transport::GoodputMeter and runs a
// per-session congestion controller (transport::CongestionController — the
// paper's Robbins-Monro Eq. 1 by default, or a delay-gradient/trendline law
// steering on measured per-delivery RTT). The session maps the measured
// goodput to
//
//  * a quality Tier (full image / half-resolution image / state-only) —
//    slow consumers are transparently downgraded to cheaper frame bodies
//    instead of eating bandwidth they cannot drain, and upgraded back once
//    they demonstrably keep up; and
//  * a minimum inter-frame interval — when even the cheapest tier exceeds
//    the client's goodput, frames are skipped (FrameHub pacing) rather than
//    queued.
//
// Sessions expire after an idle period, so the table is bounded by the
// number of *recently active* clients, not by everyone who ever connected.
//
// Sessions also span *transports*: an /api/stream SSE subscription with the
// same `client` identifier feeds the identical session its polls would —
// delivery samples are taken when the connection's output buffer actually
// drains into the kernel, so a push stream whose reader stalls (TCP
// backpressure) collapses utilization and is downgraded/paced mid-stream
// exactly like a slow poller.
//
// Sharded hubs (web/registry.hpp) do NOT shard the sessions: pacing state
// is keyed by the client identity alone, so one browser polling several
// views feeds a single GoodputMeter/RmsaController. The session tracks
// which views the client is actively polling and judges utilization
// against `active_views / interval` — without that normalization a client
// draining only one of its two views would count every delivery toward one
// stream's budget and look prompt while actually keeping up with half the
// offered frames. Tier decisions are session-global (a slow pipe is slow
// for every view); the delta contract (last served tier) and the pacing
// interval anchor (last delivery instant) are per view.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "transport/congestion_controller.hpp"
#include "transport/goodput_meter.hpp"
#include "util/json.hpp"
#include "web/hub.hpp"

namespace ricsa::web {

/// Monotonic wall time in seconds (steady_clock) for pacing timestamps.
double mono_now_s();

/// Validate an attacker-chosen `client=` query parameter before it keys the
/// session table: at most 64 bytes of [A-Za-z0-9._-]. Returns the id
/// unchanged when valid, the empty string otherwise — the caller treats an
/// invalid id exactly like an absent one (the unpaced legacy contract), so
/// an unbounded or binary string never becomes a map key.
std::string sanitize_client_id(const std::string& raw);

struct PacingConfig {
  /// Nominal publisher cadence: the fastest any client can be served. The
  /// frontend passes the *measured* publish period into decide() and
  /// on_delivered(), floored by this, so a render loop running slower than
  /// configured does not make prompt clients look slow.
  double frame_interval_s = 0.2;
  /// Goodput averaging horizon per session.
  double meter_window_s = 2.0;
  /// Sessions idle longer than this are evicted.
  double idle_expiry_s = 60.0;
  /// Utilization (measured goodput / offered rate at the current tier)
  /// below which a sample counts toward a downgrade...
  double low_util = 0.5;
  /// ...and above which it counts toward an upgrade probe.
  double high_util = 0.85;
  /// Consecutive low samples before dropping a tier (jitter tolerance).
  int downgrade_streak = 2;
  /// Consecutive prompt samples before probing a cheaper pace / richer tier.
  int upgrade_streak = 4;
  /// Probe backoff cap: each upward probe that gets knocked back down
  /// doubles the prompt-sample count required before the next probe (up to
  /// upgrade_streak * max_probe_backoff); a probe that sticks resets it.
  /// Keeps a client parked at its capacity boundary from re-probing and
  /// re-downgrading every upgrade_streak samples forever.
  int max_probe_backoff = 8;
  /// Ceiling on the per-client inter-frame interval (frame-rate floor).
  double max_interval_s = 1.0;
  /// Hard cap on live sessions: beyond it new `client` ids are served
  /// unpaced (full tier) instead of allocating — an attacker-chosen id per
  /// request must not grow the table without bound.
  std::size_t max_sessions = 4096;
  /// Which congestion-control law paces each session, plus its parameters
  /// (transport/congestion_controller.hpp). The default kRmsa reproduces
  /// the historical hard-wired RmsaController behavior bit for bit.
  transport::ControllerConfig controller;
};

/// One client's adaptive pacing state. Thread-safe: a client's requests
/// and deliveries run on its connections' reactors, and hub completions
/// on reactor 0.
class ClientSession {
 public:
  ClientSession(const PacingConfig& config, std::string id, std::string peer,
                double now_s);

  struct Decision {
    Tier tier = Tier::kFull;
    /// Absolute monotonic time before which no frame should be served
    /// (0 = unpaced): last delivery + the minimum inter-frame interval.
    double not_before_s = 0.0;
    /// Serve the newest frame, skipping stale ones, instead of replaying
    /// the retention window frame by frame.
    bool skip_to_latest = false;
    /// Delta bodies are only valid when the previous delivery used the same
    /// tier: a delta omits an unchanged image, which is wrong for a client
    /// whose last frame was a different resolution.
    bool allow_delta = true;
  };

  /// Pacing decision for a poll arriving now; `cadence_s` is the measured
  /// publish period and `view` names the shard being polled (empty = the
  /// single-hub legacy contract — one unnamed view). Marks the session
  /// live and the view active.
  Decision decide(double now_s, double cadence_s,
                  const std::string& view = std::string());

  /// Stamp the dispatch instant of a response/chunk for `view`: the moment
  /// the body is handed to the wire (long-poll response enqueue, SSE chunk
  /// issue). Paired with the kernel-drain timestamp in on_delivered it
  /// yields the per-delivery RTT sample the delay-based controllers steer
  /// on.
  void note_dispatch(double now_s, const std::string& view = std::string());

  /// Account a completed delivery: `bytes` of the `tier` body written at
  /// `now_s` for `view`, plus how many `skipped` frames the served one
  /// jumped over. `cadence_s` is the measured publish period the
  /// utilization and control-law judgments are made against. `rtt_s` is
  /// the transport-measured dispatch-to-drain round trip and `drain_s` the
  /// kernel-drain time of this body (< 0 = no sample; when `rtt_s` is
  /// absent but a dispatch was stamped via note_dispatch, the session
  /// derives it from the stamp).
  void on_delivered(double now_s, std::size_t bytes, std::uint64_t skipped,
                    Tier tier, double cadence_s,
                    const std::string& view = std::string(),
                    double rtt_s = -1.0, double drain_s = -1.0);

  /// A poll that timed out without a frame still marks the session live.
  void on_timeout(double now_s);

  Tier tier() const;
  double interval_s() const;
  double goodput_Bps() const;
  double last_touch_s() const;
  /// Views this client polled within the activity horizon (>= 1 once any
  /// poll was decided) — the utilization normalizer.
  std::size_t active_views(double now_s) const;
  /// Current failed-probe backoff multiplier (1 = no failed probes).
  int probe_backoff() const;
  util::Json stats_json(double now_s) const;

 private:
  /// Per-view slice of the session: the delta contract and the pacing
  /// interval anchor follow the individual stream; everything else (tier,
  /// meters, controller) is shared across views.
  struct ViewState {
    double last_delivery_s = -1.0;
    Tier last_served_tier = Tier::kFull;
    double last_touch_s = 0.0;
    /// Dispatch stamp of the in-flight body (note_dispatch); -1 when no
    /// delivery is in flight. Consumed by on_delivered as the RTT anchor.
    double last_dispatch_s = -1.0;
  };

  void reset_meters_locked(double now_s);                // requires mutex_
  void reset_controller_locked(double initial_interval_s);  // requires mutex_
  ViewState& view_state_locked(const std::string& view, double now_s);
  std::size_t active_views_locked(double now_s) const;   // requires mutex_

  mutable std::mutex mutex_;
  const PacingConfig config_;
  const std::string id_;
  const std::string peer_;

  Tier tier_ = Tier::kFull;
  /// Lock-free mirror of tier_ for hot-path probes (publisher's
  /// wants_half_tier walk must not take every session's mutex).
  std::atomic<Tier> tier_snapshot_{Tier::kFull};
  /// Per-view stream state, keyed by the view name ("" for the single-hub
  /// contract). Bounded: entries idle past idle_expiry_s are swept on
  /// access, and view names only exist for publisher-declared shards.
  std::map<std::string, ViewState> views_;
  double interval_s_;  // current minimum inter-frame interval
  transport::GoodputMeter meter_;        // bytes/s: reported goodput
  transport::GoodputMeter frame_meter_;  // frames/s: drives tier + pacing
  std::unique_ptr<transport::CongestionController> controller_;
  int low_streak_ = 0;
  int prompt_streak_ = 0;
  /// Probe backoff state: an upward probe is "outstanding" until it either
  /// survives a full upgrade_streak of prompt samples (success — backoff
  /// resets) or the next downgrade knocks it back (failure — backoff
  /// doubles, capped).
  int probe_backoff_ = 1;
  bool probe_outstanding_ = false;
  double last_touch_s_ = 0.0;
  double goodput_Bps_ = 0.0;

  std::uint64_t delivered_frames_ = 0;
  std::uint64_t delivered_bytes_ = 0;
  std::uint64_t skipped_frames_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t downgrades_ = 0;
  std::uint64_t upgrades_ = 0;
};

/// Registry of live client sessions, keyed by the dashboard-generated
/// `client` query parameter. Expired sessions are swept on access.
class SessionTable {
 public:
  explicit SessionTable(PacingConfig config);

  /// Find-or-create the session for `id` (sweeping expired ones first).
  /// Returns null when the table is at max_sessions and `id` is new — the
  /// caller serves such polls unpaced rather than allocating.
  std::shared_ptr<ClientSession> acquire(const std::string& id,
                                         const std::string& peer,
                                         double now_s);

  std::size_t size() const;
  std::uint64_t expired() const;
  /// True when any live session currently sits on the half tier — the
  /// publisher's cue to build the reduced image this frame.
  bool wants_half_tier() const;
  /// Aggregate + per-session pacing stats for /api/stats.
  util::Json stats_json(double now_s) const;

 private:
  void sweep_locked(double now_s);

  PacingConfig config_;
  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<ClientSession>> sessions_;
  std::uint64_t expired_ = 0;
  double last_sweep_s_ = -1.0;
};

}  // namespace ricsa::web
