// The Ajax front end (Sections 2 & 5.1): bridges the steering session to any
// number of web browsers.
//
// "Using Ajax, only user interface elements that contain new information are
// updated with data received from a server such as next update of a
// monitored computation. Such a non-interrupted data-driven model replaces
// the traditional click-wait-refresh page-driven model."
//
// Implementation: a background monitor loop produces frames from the
// SteeringSession and publishes each one exactly once into a FrameHub;
// browsers long-poll /api/poll?since=N or stream /api/stream and receive
// the shared pre-rendered delta the moment it exists — the XMLHttpRequest
// object-exchange of the paper. Those routes, /api/state, /api/stats and
// the dashboard are the FrameService contract (web/frame_service.hpp),
// which relays serve too. The front end adds what only the origin can do:
// the monitor loop, /api/image, and steering commands, which arrive as
// JSON POSTs and are applied on the next simulation cycle.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "steering/session.hpp"
#include "util/json.hpp"
#include "web/frame_service.hpp"
#include "web/http.hpp"
#include "web/hub.hpp"
#include "web/registry.hpp"
#include "web/session.hpp"

namespace ricsa::web {

/// One extra named view published each frame besides the default view:
/// the same simulation step re-rendered under a different request/camera
/// into its own FrameHub shard (variable × projection, e.g. "rho/iso").
struct ViewSpec {
  std::string name;
  cost::VizRequest viz;
  steering::ExecuteOptions camera;
};

struct FrontEndConfig {
  steering::SessionConfig session;
  /// Pacing of the background monitor loop: seconds between the starts of
  /// consecutive frames, so a frame's own work does not lengthen it. A
  /// frame whose work runs longer starts the next one at once.
  double frame_interval_s = 0.2;
  /// TCP port (0 = ephemeral).
  int port = 0;
  /// Long-poll timeout ceiling.
  double poll_timeout_s = 15.0;
  /// Frames retained for catch-up replay (gap-free streams for clients that
  /// fall at most this many frames behind).
  std::size_t frame_window = 128;
  /// Read by nothing: the hub keeps only the newest frame's raw
  /// framebuffer per image tier. Kept only because the steering benchmark
  /// (perfbench/steer_bench.cpp) still assigns it.
  std::size_t raw_window = 0;
  /// Extra views rendered and published per frame, each into its own hub
  /// shard. The default view ("main") always exists and follows the
  /// steerable request/camera; these are fixed projections.
  std::vector<ViewSpec> views;
  /// Reactor (event-loop) threads; each accepts on its own SO_REUSEPORT
  /// listener, owns its accepted connections outright and runs their route
  /// handlers. 1 reproduces the single-loop server. Together with the
  /// session's host-sized pool and the monitor loop this bounds *every*
  /// server-side thread — neither the client count nor the view count adds
  /// threads (hub shards run on reactor 0).
  std::size_t reactors = 1;
  /// Accepted-connection cap; connections beyond it get 503.
  std::size_t max_connections = 8192;
  /// Fixed SO_SNDBUF for accepted connections (0 = kernel autotuning).
  /// Bounding the kernel send backlog makes a slow consumer's
  /// backpressure reach the pacing meters after this many queued bytes
  /// instead of after megabytes of autotuned buffering.
  int sndbuf = 0;
  /// Read by nothing: the hub ships one changed-region rect per frame and
  /// has no tile grid. Kept only because the steering benchmark
  /// (perfbench/steer_bench.cpp) still assigns it.
  int tile_size = 64;
  /// Per-client adaptive pacing knobs (frame_interval_s is overridden with
  /// the front end's own cadence at construction). `pacing.controller`
  /// selects the per-session congestion-control law — the paper's
  /// Robbins-Monro Eq. 1 by default, or a delay-gradient/trendline law
  /// steering on measured per-delivery RTT
  /// (transport/congestion_controller.hpp).
  PacingConfig pacing;
};

/// The monitor loop's frame clock: when the frame after one that started
/// at `tick` and finished at `now` starts. Frames that fit their slot start
/// one `interval` apart. A frame that overruns its slot starts the next at
/// once, and the clock re-anchors there, so an overrun is never followed by
/// a burst of catch-up frames.
inline std::chrono::steady_clock::time_point next_frame_start(
    std::chrono::steady_clock::time_point tick,
    std::chrono::steady_clock::duration interval,
    std::chrono::steady_clock::time_point now) {
  return std::max(tick + interval, now);
}

class AjaxFrontEnd {
 public:
  explicit AjaxFrontEnd(FrontEndConfig config);
  ~AjaxFrontEnd();

  /// Start the monitor loop and HTTP server; returns the bound port.
  int start();
  /// Ends the monitor loop within one frame's work, without waiting out
  /// the interval, then stops the server.
  void stop();

  int port() const noexcept { return service_.server().port(); }
  std::uint64_t frame_seq() const { return main_hub_->seq(); }
  std::uint64_t steer_count() const noexcept { return steers_.load(); }
  /// Worker threads of the session's pool (solver, renderers, encodes).
  std::size_t session_pool_threads() const noexcept {
    return session_.pool().size();
  }
  const HttpServer& server() const noexcept { return service_.server(); }
  HubRegistry& registry() noexcept { return service_.registry(); }
  const HubRegistry& registry() const noexcept { return service_.registry(); }
  const SessionTable& sessions() const noexcept {
    return service_.registry().sessions();
  }

 private:
  void frame_loop();

  HttpResponse handle_image(const HttpRequest& request);
  HttpResponse handle_steer(const HttpRequest& request);
  HttpResponse handle_view(const HttpRequest& request);

  FrontEndConfig config_;
  steering::SteeringSession session_;
  FrameService service_;
  /// The default view's shard, declared at construction (frame_seq()
  /// rides on it).
  std::shared_ptr<FrameHub> main_hub_;
  std::thread loop_thread_;
  std::atomic<bool> running_{false};
  /// The loop waits here for its next frame; stop() clears running_ under
  /// the mutex and notifies, so the wait ends at once.
  std::mutex clock_mutex_;
  std::condition_variable clock_cv_;
  std::atomic<std::uint64_t> steers_{0};

  /// One validated POST /api/view body: the settings it changes.
  struct ViewChange {
    std::optional<std::string> variable;
    std::optional<cost::VizRequest::Technique> technique;
    std::optional<int> octant;
    std::optional<float> isovalue, azimuth, elevation, zoom;
  };
  /// View/viz changes posted by clients, applied by the loop thread.
  std::mutex pending_mutex_;
  std::deque<ViewChange> pending_view_;
};

}  // namespace ricsa::web
