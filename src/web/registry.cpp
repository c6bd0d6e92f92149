#include "web/registry.hpp"

#include <algorithm>
#include <utility>

namespace ricsa::web {

HubRegistry::HubRegistry(Config config)
    : config_(std::move(config)), sessions_(config_.pacing) {
  if (config_.max_views == 0) config_.max_views = 1;
}

HubRegistry::~HubRegistry() { shutdown(); }

std::shared_ptr<FrameHub> HubRegistry::revive_locked(Shard& shard) {
  if (!shard.hub) {
    shard.hub = std::make_shared<FrameHub>(config_.hub);
    ++stats_.created;
  }
  return shard.hub;
}

std::shared_ptr<FrameHub> HubRegistry::default_hub() {
  return pin(config_.default_view);
}

std::shared_ptr<FrameHub> HubRegistry::pin(const std::string& view) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (shutdown_) return nullptr;
  Shard& shard = shards_[view];
  shard.pinned = true;
  return revive_locked(shard);
}

std::shared_ptr<FrameHub> HubRegistry::hub_for_publish(const std::string& view,
                                                       double now_s) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (shutdown_) return nullptr;
  auto it = shards_.find(view);
  if (it == shards_.end()) {
    // First publish declares the view. The cap guards against a publisher
    // loop generating unbounded names (subscribers cannot reach this path).
    if (shards_.size() >= config_.max_views) return nullptr;
    it = shards_.emplace(view, Shard{}).first;
  }
  it->second.last_publish_s = now_s;
  return revive_locked(it->second);
}

std::uint64_t HubRegistry::publish(const std::string& view, util::Json state,
                                   const viz::Image& image, bool build_half,
                                   util::ThreadPool* encode_pool) {
  const double now_s = mono_now_s();
  const std::shared_ptr<FrameHub> hub = hub_for_publish(view, now_s);
  if (!hub) return 0;
  // Frame building happens outside the registry lock: concurrent publishes
  // into different shards encode in parallel, and subscribers of other
  // views never stall behind this one's render.
  const std::uint64_t seq =
      hub->publish(std::move(state), image, build_half, encode_pool);
  for (const auto& idle : sweep_locked_outside(now_s)) idle->shutdown();
  return seq;
}

std::uint64_t HubRegistry::publish(const std::string& view, util::Json state,
                                   std::vector<std::uint8_t> png) {
  const double now_s = mono_now_s();
  const std::shared_ptr<FrameHub> hub = hub_for_publish(view, now_s);
  if (!hub) return 0;
  const std::uint64_t seq = hub->publish(std::move(state), std::move(png));
  for (const auto& idle : sweep_locked_outside(now_s)) idle->shutdown();
  return seq;
}

std::uint64_t HubRegistry::publish_encoded(const std::string& view,
                                           FrameHub::PreEncoded pre) {
  const double now_s = mono_now_s();
  const std::shared_ptr<FrameHub> hub = hub_for_publish(view, now_s);
  if (!hub) return 0;
  const std::uint64_t seq = hub->publish_encoded(std::move(pre));
  for (const auto& idle : sweep_locked_outside(now_s)) idle->shutdown();
  return seq;
}

std::shared_ptr<FrameHub> HubRegistry::subscribe(const std::string& view) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (shutdown_) return nullptr;
  const auto it = shards_.find(view);
  if (it == shards_.end()) return nullptr;  // never declared: HTTP 404
  it->second.last_subscribe_s = mono_now_s();
  // A known name whose hub was reaped revives empty: the subscriber parks
  // against seq 0 (stale cursors clamp) and resyncs on the next publish.
  return revive_locked(it->second);
}

std::shared_ptr<FrameHub> HubRegistry::find(const std::string& view) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = shards_.find(view);
  return it == shards_.end() ? nullptr : it->second.hub;
}

void HubRegistry::touch(const std::string& view) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (shutdown_) return;
  const auto it = shards_.find(view);
  if (it != shards_.end() && it->second.hub) {
    it->second.last_subscribe_s = mono_now_s();
  }
}

bool HubRegistry::known(const std::string& view) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return shards_.find(view) != shards_.end();
}

std::vector<std::string> HubRegistry::view_names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(shards_.size());
  for (const auto& [name, shard] : shards_) names.push_back(name);
  return names;
}

std::vector<std::shared_ptr<FrameHub>> HubRegistry::sweep_locked(
    double now_s, bool force) {
  // Requires mutex_. Idle = no publish and no subscriber activity for
  // idle_reap_s. Parked long-polls do not refresh the shard after their
  // arrival, so a view whose publisher went away IS reaped from under
  // them: their waits complete with the timeout contract when the caller
  // shuts the collected hubs down, they re-poll, and subscribe() revives
  // an empty shard — the stale-cursor resync, not a stranded client.
  std::vector<std::shared_ptr<FrameHub>> idle;
  if (config_.idle_reap_s <= 0.0) return idle;
  if (!force && last_sweep_s_ >= 0.0 &&
      now_s - last_sweep_s_ < config_.sweep_period_s) {
    return idle;
  }
  last_sweep_s_ = now_s;
  for (auto& [name, shard] : shards_) {
    if (!shard.hub || shard.pinned) continue;
    const double last_activity =
        std::max(shard.last_publish_s, shard.last_subscribe_s);
    if (now_s - last_activity > config_.idle_reap_s) {
      idle.push_back(std::move(shard.hub));
      shard.hub = nullptr;
      ++stats_.reaped;
    }
  }
  return idle;
}

std::vector<std::shared_ptr<FrameHub>> HubRegistry::sweep_locked_outside(
    double now_s) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (shutdown_) return {};
  return sweep_locked(now_s, /*force=*/false);
}

std::size_t HubRegistry::reap_idle_now() {
  std::vector<std::shared_ptr<FrameHub>> idle;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) return 0;
    idle = sweep_locked(mono_now_s(), /*force=*/true);
  }
  // shutdown() runs each hub's pending and parked completions on this
  // thread — outside the registry lock so completions (which may subscribe
  // again) cannot deadlock against it.
  for (const auto& hub : idle) hub->shutdown();
  return idle.size();
}

HubRegistry::Stats HubRegistry::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats out = stats_;
  out.known = shards_.size();
  out.live = 0;
  for (const auto& [name, shard] : shards_) {
    if (shard.hub) ++out.live;
  }
  return out;
}

void HubRegistry::shutdown() {
  std::vector<std::shared_ptr<FrameHub>> hubs;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) return;
    shutdown_ = true;
    for (auto& [name, shard] : shards_) {
      if (shard.hub) hubs.push_back(std::move(shard.hub));
      shard.hub = nullptr;
    }
  }
  for (const auto& hub : hubs) hub->shutdown();
}

}  // namespace ricsa::web
