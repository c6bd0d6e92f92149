#include "web/session.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <vector>

namespace ricsa::web {

double mono_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

std::size_t index_of(Tier tier) { return static_cast<std::size_t>(tier); }

constexpr std::size_t kMaxClientIdBytes = 64;

bool client_id_char_ok(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
}

}  // namespace

std::string sanitize_client_id(const std::string& raw) {
  if (raw.empty() || raw.size() > kMaxClientIdBytes) return std::string();
  for (const char c : raw) {
    if (!client_id_char_ok(c)) return std::string();
  }
  return raw;
}

ClientSession::ClientSession(const PacingConfig& config, std::string id,
                             std::string peer, double now_s)
    : config_(config),
      id_(std::move(id)),
      peer_(std::move(peer)),
      interval_s_(config.frame_interval_s),
      meter_(config.meter_window_s),
      frame_meter_(config.meter_window_s),
      last_touch_s_(now_s) {
  meter_.start(now_s);
  frame_meter_.start(now_s);
  reset_controller_locked(config_.frame_interval_s);
}

void ClientSession::reset_meters_locked(double now_s) {
  // A tier change switches the regime being judged: stale history from the
  // old tier would instantly mis-tier the new one (e.g. an upgrade
  // immediately reverted because the window still holds the old pace).
  meter_ = transport::GoodputMeter(config_.meter_window_s);
  meter_.start(now_s);
  frame_meter_ = transport::GoodputMeter(config_.meter_window_s);
  frame_meter_.start(now_s);
}

void ClientSession::reset_controller_locked(double initial_interval_s) {
  // Restarting the control law whenever conditions changed (new tier,
  // upward probe) is part of every law's contract: for Robbins-Monro it
  // restarts the decaying gain schedule, for the delay laws it discards
  // gradient/trendline state measured under the old regime.
  if (!controller_) {
    controller_ = transport::make_controller(config_.controller);
  }
  controller_->reset(
      initial_interval_s, config_.frame_interval_s,
      std::max(config_.frame_interval_s, config_.max_interval_s));
}

ClientSession::ViewState& ClientSession::view_state_locked(
    const std::string& view, double now_s) {
  // Sweep view entries idle past the session expiry horizon: the map stays
  // bounded by the views this client *recently* polled even if a dashboard
  // cycles through every shard the publisher ever declared.
  for (auto it = views_.begin(); it != views_.end();) {
    if (now_s - it->second.last_touch_s > config_.idle_expiry_s &&
        it->first != view) {
      it = views_.erase(it);
    } else {
      ++it;
    }
  }
  ViewState& vs = views_[view];
  vs.last_touch_s = now_s;
  return vs;
}

std::size_t ClientSession::active_views_locked(double now_s) const {
  // A view counts as active while touched within the goodput horizon — the
  // same window the meters aggregate over, so the normalizer and the
  // measured rate describe the same stretch of time.
  std::size_t active = 0;
  for (const auto& [name, vs] : views_) {
    if (now_s - vs.last_touch_s <= config_.meter_window_s) ++active;
  }
  return std::max<std::size_t>(active, 1);
}

ClientSession::Decision ClientSession::decide(double now_s, double cadence_s,
                                              const std::string& view) {
  std::lock_guard<std::mutex> lock(mutex_);
  last_touch_s_ = now_s;
  const ViewState& vs = view_state_locked(view, now_s);
  const double cadence = std::max(config_.frame_interval_s, cadence_s);
  Decision d;
  d.tier = tier_;
  // A small slack keeps fast full-tier clients off the pacing path: their
  // natural poll cadence already matches the publisher.
  const bool paced = interval_s_ > cadence * 1.25;
  if (paced && vs.last_delivery_s >= 0.0) {
    // The interval anchors at this *view's* last delivery: one paced
    // browser on two views gets each stream at the interval instead of the
    // two alternately starving each other behind a shared anchor.
    d.not_before_s = vs.last_delivery_s + interval_s_;
  }
  // Downgraded or paced clients skip to the newest frame instead of
  // replaying every retained frame — stale frames are the bandwidth they
  // cannot afford.
  d.skip_to_latest = paced || tier_ != Tier::kFull;
  // A tier transition invalidates the delta contract: the delta omits an
  // unchanged image, but this client's previous frame *on this view* was
  // rendered at a different tier, so it must receive a full body once.
  d.allow_delta = vs.last_served_tier == tier_;
  return d;
}

void ClientSession::note_dispatch(double now_s, const std::string& view) {
  std::lock_guard<std::mutex> lock(mutex_);
  last_touch_s_ = now_s;
  ViewState& vs = view_state_locked(view, now_s);
  vs.last_dispatch_s = now_s;
}

void ClientSession::on_delivered(double now_s, std::size_t bytes,
                                 std::uint64_t skipped, Tier tier,
                                 double cadence_s, const std::string& view,
                                 double rtt_s, double drain_s) {
  std::lock_guard<std::mutex> lock(mutex_);
  last_touch_s_ = now_s;
  ViewState& vs = view_state_locked(view, now_s);
  // RTT fallback: a dispatch stamped via note_dispatch and completed here
  // at kernel-drain time brackets the delivery even when the transport did
  // not measure the round trip itself.
  if (rtt_s < 0.0 && vs.last_dispatch_s >= 0.0) {
    rtt_s = std::max(0.0, now_s - vs.last_dispatch_s);
  }
  vs.last_dispatch_s = -1.0;
  vs.last_delivery_s = now_s;
  vs.last_served_tier = tier;
  meter_.record(now_s, bytes);
  goodput_Bps_ = meter_.rate(now_s);
  ++delivered_frames_;
  delivered_bytes_ += bytes;
  skipped_frames_ += skipped;

  frame_meter_.record(now_s, 1);
  const double achieved_fps = frame_meter_.rate(now_s);

  // Judge against the measured publish period (floored by the configured
  // cadence): frame production slower than configured must not make a
  // prompt client look like a slow consumer.
  const double cadence =
      std::max(1e-6, std::max(config_.frame_interval_s, cadence_s));
  // Offered: the frame rate our own pacing currently allows — utilization
  // is judged against what the client was actually given the chance to
  // drain. Judging in the frame-rate domain (not bytes) keeps delta-encoded
  // bodies, whose size swings with how much of the frame changed, from
  // masquerading as a slow consumer. The publisher offers one frame per
  // cadence *per active view*: a client on two views that drains only one
  // of them is at 50% utilization, which a single-stream denominator would
  // book as 100% (the double-counting the shared session exists to avoid).
  const double offered_fps =
      static_cast<double>(active_views_locked(now_s)) /
      std::max(cadence, interval_s_);

  // Feed the control law. For the default Robbins-Monro law this is Eq. 1
  // with the web-layer roles: the rate under our control is the offered
  // frame rate and the reference it must converge to is the client's
  // achieved frame rate — offering more than the client drains lengthens
  // the sleep, offering less shortens it, and the fixed point is offered ==
  // achieved (serve at the client's pace). The delay laws steer on the
  // per-delivery RTT instead and react to queue growth before utilization
  // collapses.
  transport::CongestionSample sample;
  sample.now_s = now_s;
  sample.offered_fps = offered_fps;
  sample.achieved_fps = achieved_fps;
  sample.rtt_s = rtt_s;
  sample.drain_s = drain_s;
  sample.bytes = bytes;
  const double proposed = controller_->update(sample);
  const bool paces_all = controller_->paces_all_tiers();
  if (paces_all) {
    // A delay law's interval applies at every tier: stretching the pace on
    // rising delay is exactly how it holds the tier steady instead of
    // riding utilization down into a downgrade.
    interval_s_ = std::clamp(proposed, cadence,
                             std::max(cadence, config_.max_interval_s));
  }

  const double util = achieved_fps / offered_fps;
  if (util >= config_.high_util) {
    low_streak_ = 0;
    ++prompt_streak_;
    if (probe_outstanding_ && prompt_streak_ >= config_.upgrade_streak) {
      // The last probe survived a full prompt streak at the richer
      // rate/tier: it stuck. Future probes need no extra caution.
      probe_outstanding_ = false;
      probe_backoff_ = 1;
    }
    if (prompt_streak_ >= config_.upgrade_streak * probe_backoff_ &&
        controller_->probe_ok()) {
      // Delay laws veto the probe while the network still shows rising
      // delay; prompt samples keep accruing and the probe fires the moment
      // the gradient clears.
      prompt_streak_ = 0;
      // The client drains everything offered: probe upward. Restore the
      // frame rate first, then climb a quality tier.
      if (!paces_all && interval_s_ > cadence * 1.01) {
        interval_s_ = std::max(cadence, interval_s_ * 0.5);
        reset_controller_locked(interval_s_);
        probe_outstanding_ = true;
      } else if (tier_ != Tier::kFull) {
        tier_ = static_cast<Tier>(index_of(tier_) - 1);
        tier_snapshot_.store(tier_, std::memory_order_relaxed);
        ++upgrades_;
        interval_s_ = cadence;
        reset_meters_locked(now_s);
        reset_controller_locked(cadence);
        probe_outstanding_ = true;
      }
    }
  } else if (util < config_.low_util) {
    prompt_streak_ = 0;
    if (++low_streak_ >= config_.downgrade_streak) {
      low_streak_ = 0;
      if (probe_outstanding_) {
        // This regression chased an upward probe: the client sits at its
        // capacity boundary. Double the wait before the next probe so it
        // is not bounced across the boundary every upgrade_streak samples.
        probe_outstanding_ = false;
        probe_backoff_ =
            std::min(probe_backoff_ * 2, std::max(1, config_.max_probe_backoff));
      }
      if (index_of(tier_) + 1 < kTierCount) {
        tier_ = static_cast<Tier>(index_of(tier_) + 1);
        tier_snapshot_.store(tier_, std::memory_order_relaxed);
        ++downgrades_;
        reset_meters_locked(now_s);
        reset_controller_locked(cadence);
      } else if (!paces_all) {
        // Already on the cheapest tier: throttle the frame rate itself with
        // the Robbins-Monro interval. (A delay law's interval was already
        // applied above, at every tier.)
        interval_s_ = std::clamp(
            proposed, cadence,
            std::max(cadence, config_.max_interval_s));
      }
    }
  } else {
    prompt_streak_ = 0;
    low_streak_ = 0;
  }
}

void ClientSession::on_timeout(double now_s) {
  std::lock_guard<std::mutex> lock(mutex_);
  last_touch_s_ = now_s;
  ++timeouts_;
}

Tier ClientSession::tier() const {
  return tier_snapshot_.load(std::memory_order_relaxed);
}

double ClientSession::interval_s() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return interval_s_;
}

double ClientSession::goodput_Bps() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return goodput_Bps_;
}

double ClientSession::last_touch_s() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_touch_s_;
}

int ClientSession::probe_backoff() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return probe_backoff_;
}

std::size_t ClientSession::active_views(double now_s) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return active_views_locked(now_s);
}

util::Json ClientSession::stats_json(double now_s) const {
  std::lock_guard<std::mutex> lock(mutex_);
  util::Json out;
  out["client"] = id_;
  if (!peer_.empty()) out["peer"] = peer_;
  out["tier"] = tier_name(tier_);
  out["goodput_Bps"] = goodput_Bps_;
  out["interval_s"] = interval_s_;
  out["controller"] = controller_->name();
  {
    const transport::ControllerTelemetry t = controller_->telemetry();
    if (t.last_rtt_s >= 0.0) out["rtt_s"] = t.last_rtt_s;
    out["gradient"] = t.gradient;
  }
  out["delivered"] = static_cast<double>(delivered_frames_);
  out["bytes"] = static_cast<double>(delivered_bytes_);
  out["skipped"] = static_cast<double>(skipped_frames_);
  out["timeouts"] = static_cast<double>(timeouts_);
  out["downgrades"] = static_cast<double>(downgrades_);
  out["upgrades"] = static_cast<double>(upgrades_);
  out["probe_backoff"] = static_cast<double>(probe_backoff_);
  out["idle_s"] = std::max(0.0, now_s - last_touch_s_);
  out["active_views"] = static_cast<double>(active_views_locked(now_s));
  {
    util::JsonArray views;
    for (const auto& [name, vs] : views_) {
      if (!name.empty()) views.push_back(util::Json(name));
    }
    if (!views.empty()) out["views"] = util::Json(views);
  }
  return out;
}

SessionTable::SessionTable(PacingConfig config) : config_(config) {}

std::shared_ptr<ClientSession> SessionTable::acquire(const std::string& id,
                                                     const std::string& peer,
                                                     double now_s) {
  std::lock_guard<std::mutex> lock(mutex_);
  sweep_locked(now_s);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    if (sessions_.size() >= config_.max_sessions) {
      // Possibly stale entries are holding the table at the cap: sweep
      // immediately (bypassing the throttle) before refusing.
      last_sweep_s_ = -1.0;
      sweep_locked(now_s);
      if (sessions_.size() >= config_.max_sessions) return nullptr;
    }
    it = sessions_
             .emplace(id, std::make_shared<ClientSession>(config_, id, peer,
                                                          now_s))
             .first;
  }
  return it->second;
}

void SessionTable::sweep_locked(double now_s) {
  // Expiry only needs second-granularity: sweeping every acquire would put
  // an O(sessions) walk (locking each session) on every poll's hot path.
  if (last_sweep_s_ >= 0.0 && now_s - last_sweep_s_ < 1.0) return;
  last_sweep_s_ = now_s;
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (now_s - it->second->last_touch_s() > config_.idle_expiry_s) {
      it = sessions_.erase(it);
      ++expired_;
    } else {
      ++it;
    }
  }
}

std::size_t SessionTable::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sessions_.size();
}

std::uint64_t SessionTable::expired() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return expired_;
}

bool SessionTable::wants_half_tier() const {
  // Once per published frame: a lock-free tier read per session keeps the
  // walk cheap and free of per-session mutex contention with live polls.
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [id, session] : sessions_) {
    if (session->tier() == Tier::kHalf) return true;
  }
  return false;
}

util::Json SessionTable::stats_json(double now_s) const {
  std::vector<std::shared_ptr<ClientSession>> snapshot;
  std::uint64_t expired;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snapshot.reserve(sessions_.size());
    for (const auto& [id, session] : sessions_) snapshot.push_back(session);
    expired = expired_;
  }

  util::Json out;
  out["sessions"] = static_cast<double>(snapshot.size());
  out["expired"] = static_cast<double>(expired);
  out["controller"] =
      transport::controller_kind_name(config_.controller.kind);
  std::array<std::uint64_t, kTierCount> by_tier{};
  util::JsonArray clients;
  // Cap the per-client detail: stats stay O(1)-ish for huge fan-outs while
  // the aggregate tier counts remain exact.
  constexpr std::size_t kMaxDetailed = 128;
  for (const auto& session : snapshot) {
    ++by_tier[static_cast<std::size_t>(session->tier())];
    if (clients.size() < kMaxDetailed) {
      clients.push_back(session->stats_json(now_s));
    }
  }
  util::Json tiers;
  for (std::size_t t = 0; t < kTierCount; ++t) {
    tiers[tier_name(static_cast<Tier>(t))] = static_cast<double>(by_tier[t]);
  }
  out["tiers"] = tiers;
  out["clients"] = util::Json(clients);
  return out;
}

}  // namespace ricsa::web
