#include "web/registry.hpp"

#include <utility>

namespace ricsa::web {

HubRegistry::HubRegistry(Config config)
    : config_(std::move(config)), sessions_(config_.pacing) {}

HubRegistry::~HubRegistry() { shutdown(); }

std::shared_ptr<FrameHub> HubRegistry::default_hub() {
  return declare(config_.default_view);
}

std::shared_ptr<FrameHub> HubRegistry::declare(const std::string& view) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (shutdown_) return nullptr;
  auto it = shards_.find(view);
  if (it == shards_.end()) {
    // The cap guards against a publisher loop generating unbounded names
    // (subscribers cannot reach this path).
    if (shards_.size() >= kMaxViews) return nullptr;
    it = shards_.emplace(view, std::make_shared<FrameHub>(config_.hub)).first;
  }
  return it->second;
}

std::uint64_t HubRegistry::publish(const std::string& view, util::Json state,
                                   const viz::Image& image, bool build_half,
                                   util::ThreadPool* encode_pool) {
  const std::shared_ptr<FrameHub> hub = declare(view);
  if (!hub) return 0;
  // Frame building happens outside the registry lock: concurrent publishes
  // into different shards encode in parallel, and subscribers of other
  // views never stall behind this one's render.
  return hub->publish(std::move(state), image, build_half, encode_pool);
}

std::uint64_t HubRegistry::publish_encoded(const std::string& view,
                                           FrameHub::PreEncoded pre) {
  const std::shared_ptr<FrameHub> hub = declare(view);
  if (!hub) return 0;
  return hub->publish_encoded(std::move(pre));
}

std::shared_ptr<FrameHub> HubRegistry::find(const std::string& view) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = shards_.find(view);
  return it == shards_.end() ? nullptr : it->second;
}

std::vector<std::string> HubRegistry::view_names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(shards_.size());
  for (const auto& [name, hub] : shards_) names.push_back(name);
  return names;
}

void HubRegistry::shutdown() {
  std::map<std::string, std::shared_ptr<FrameHub>> hubs;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) return;
    shutdown_ = true;
    hubs.swap(shards_);
  }
  // shutdown() runs each hub's pending and parked completions on this
  // thread — outside the registry lock so completions that look a shard
  // up again cannot deadlock against it.
  for (const auto& [name, hub] : hubs) hub->shutdown();
}

}  // namespace ricsa::web
