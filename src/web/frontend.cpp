#include "web/frontend.hpp"

#include <chrono>
#include <cstdint>
#include <string>

#include "util/strings.hpp"

namespace ricsa::web {

namespace {

HubRegistry::Config registry_config_of(const FrontEndConfig& config) {
  HubRegistry::Config registry;
  registry.hub.window = config.frame_window;
  registry.pacing = config.pacing;
  registry.pacing.frame_interval_s = config.frame_interval_s;
  registry.idle_reap_s = config.view_idle_reap_s;
  return registry;
}

/// The session's calibrated Section 4.4 constants (reference-PC seconds
/// and rates) and the host seconds their one-time calibration took at
/// start-up: calibration noise moves them from one process to the next.
util::Json models_json(const cost::CostModels& models) {
  util::Json out;
  out["calibration_s"] = models.calibration.total_s;
  out["alpha_cell_s"] = models.isosurface.alpha_cell_s;
  out["beta_triangle_s"] = models.isosurface.beta_triangle_s;
  out["triangles_per_second"] = models.isosurface.triangles_per_second;
  out["t_sample_s"] = models.raycast.t_sample_s;
  out["t_advection_s"] = models.streamline.t_advection_s;
  out["filter_Bps"] = models.aux.filter_Bps;
  return out;
}

FrameService::Setup setup_of(const FrontEndConfig& config) {
  FrameService::Setup setup;
  setup.poll_timeout_s = config.poll_timeout_s;
  setup.workers = config.http_workers;
  setup.reactors = config.reactors;
  setup.max_connections = config.max_connections;
  return setup;
}

}  // namespace

AjaxFrontEnd::AjaxFrontEnd(FrontEndConfig config)
    : config_(config),
      session_(config.session),
      service_(registry_config_of(config), setup_of(config),
               [this] {
                 ServingPolicy policy;
                 policy.add_stats = [this](util::Json& out) {
                   out["steers"] = static_cast<double>(steers_.load());
                   // Set at construction and never written again, so
                   // safe to read beside the monitor loop.
                   out["models"] = models_json(session_.models());
                 };
                 return policy;
               }(),
               config.frame_interval_s),
      main_hub_(service_.registry().default_hub()) {
  HttpServer& server = service_.server();
  server.set_sndbuf(config_.sndbuf);
  service_.route("GET", "/api/image",
                 [this](const HttpRequest& r) { return handle_image(r); });
  service_.route("POST", "/api/steer",
                 [this](const HttpRequest& r) { return handle_steer(r); });
  service_.route("POST", "/api/view",
                 [this](const HttpRequest& r) { return handle_view(r); });
}

AjaxFrontEnd::~AjaxFrontEnd() { stop(); }

int AjaxFrontEnd::start() {
  const int port = service_.server().start(config_.port);
  running_ = true;
  loop_thread_ = std::thread([this] { frame_loop(); });
  return port;
}

void AjaxFrontEnd::stop() {
  if (!running_.exchange(false)) return;
  if (loop_thread_.joinable()) loop_thread_.join();
  service_.stop();
}

void AjaxFrontEnd::frame_loop() {
  HubRegistry& registry = service_.registry();
  double period_ewma = config_.frame_interval_s;
  service_.set_cadence(period_ewma);
  auto last_publish = std::chrono::steady_clock::now();
  while (running_.load()) {
    // Apply client-posted view/viz changes on the session's thread.
    {
      std::lock_guard<std::mutex> lock(pending_mutex_);
      while (!pending_view_.empty()) {
        const util::Json op = pending_view_.front();
        pending_view_.pop_front();
        if (op.contains("variable")) {
          session_.set_variable(op.at("variable").as_string());
        }
        if (op.contains("isovalue")) {
          session_.viz_request().isovalue =
              static_cast<float>(op.at("isovalue").as_number(0.5));
        }
        if (op.contains("azimuth")) {
          session_.view().azimuth =
              static_cast<float>(op.at("azimuth").as_number(0.7));
        }
        if (op.contains("elevation")) {
          session_.view().elevation =
              static_cast<float>(op.at("elevation").as_number(0.35));
        }
        if (op.contains("zoom")) {
          session_.view().zoom =
              static_cast<float>(op.at("zoom").as_number(1.0));
        }
        if (op.contains("octant")) {
          session_.view().octant =
              static_cast<int>(op.at("octant").as_int(-1));
        }
        if (op.contains("technique")) {
          const std::string t = op.at("technique").as_string();
          auto& technique = session_.viz_request().technique;
          if (t == "isosurface") technique = cost::VizRequest::Technique::kIsosurface;
          if (t == "raycast") technique = cost::VizRequest::Technique::kRayCast;
          if (t == "streamline") technique = cost::VizRequest::Technique::kStreamline;
        }
      }
    }

    const auto frame = session_.next_frame();

    util::Json state;
    state["view"] = registry.default_view_name();
    state["cycle"] = frame.cycle;
    state["sim_time"] = frame.sim_time;
    state["variable"] = frame.variable;
    state["vrt"] = frame.vrt.to_string();
    state["predicted_delay_s"] = frame.vrt.predicted_delay_s;
    state["filter_s"] = frame.exec.filter_s;
    state["transform_s"] = frame.exec.transform_s;
    state["render_s"] = frame.exec.render_s;
    state["geometry_bytes"] = static_cast<double>(frame.exec.geometry_bytes);
    // Wall-clock publish stamp so clients (and the fan-out bench) can
    // measure publish-to-delivery latency.
    state["published_ms"] = static_cast<double>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count()) / 1000.0;
    util::JsonObject params;
    for (const auto& [key, value] : session_.parameters()) {
      params[key] = util::Json(value);
    }
    state["parameters"] = util::Json(params);

    // One snapshot, one encode per quality tier, one base64 per image tier,
    // one JSON render per tier body — per *view*, however many clients are
    // watching it. Each view publishes into its own hub shard, which fans
    // out to that shard's parked pollers. The reduced image is only built
    // while some client actually occupies the half tier (session-global:
    // tiers are per client, not per view). The session's pool, idle
    // between renders, runs each frame's encodes.
    const bool build_half = registry.sessions().wants_half_tier();
    util::ThreadPool& pool = session_.pool();
    registry.publish(registry.default_view_name(), std::move(state),
                     frame.image, build_half, &pool);
    for (const ViewSpec& spec : config_.views) {
      const auto exec = session_.render_view(spec.viz, spec.camera);
      if (!exec) continue;
      util::Json view_state;
      view_state["view"] = spec.name;
      view_state["cycle"] = frame.cycle;
      view_state["sim_time"] = frame.sim_time;
      view_state["variable"] = frame.variable;
      view_state["filter_s"] = exec->filter_s;
      view_state["transform_s"] = exec->transform_s;
      view_state["render_s"] = exec->render_s;
      view_state["geometry_bytes"] =
          static_cast<double>(exec->geometry_bytes);
      // Per-view publish stamp: delivery latency is measured against the
      // instant THIS shard's frame became available, not the main view's.
      view_state["published_ms"] = static_cast<double>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::system_clock::now().time_since_epoch())
              .count()) / 1000.0;
      registry.publish(spec.name, std::move(view_state), exec->image,
                       build_half, &pool);
    }

    const auto now = std::chrono::steady_clock::now();
    const double period =
        std::chrono::duration<double>(now - last_publish).count();
    last_publish = now;
    // EWMA of the real publish period (sim + render + sleep): pacing must
    // judge clients against what is actually published, not the nominal
    // cadence.
    period_ewma = 0.8 * period_ewma + 0.2 * period;
    service_.set_cadence(period_ewma);

    std::this_thread::sleep_for(
        std::chrono::duration<double>(config_.frame_interval_s));
  }
}

namespace {

enum class RangeParse { kNone, kOk, kUnsatisfiable };

/// RFC 7233 single byte-range parser for `Range: bytes=a-b` / `a-` / `-N`.
/// kNone means "serve the full 200": absent, malformed, or multi-range
/// headers are all legally ignorable; only a parsable-but-out-of-bounds
/// range earns the 416.
RangeParse parse_byte_range(const std::string& header, std::size_t total,
                            std::size_t* first, std::size_t* last) {
  if (!util::starts_with(header, "bytes=")) return RangeParse::kNone;
  const std::string spec = header.substr(6);
  if (spec.empty() || spec.find(',') != std::string::npos) {
    return RangeParse::kNone;  // multi-range: out of scope, full body
  }
  const std::size_t dash = spec.find('-');
  if (dash == std::string::npos) return RangeParse::kNone;
  const std::string a = spec.substr(0, dash);
  const std::string b = spec.substr(dash + 1);
  const auto digits = [](const std::string& str) {
    return !str.empty() &&
           str.find_first_not_of("0123456789") == std::string::npos;
  };
  // Saturating decimal: a number too long for size_t is larger than any
  // body, which is all the bounds checks below need to know.
  const auto position = [](const std::string& str) {
    std::size_t value = 0;
    for (const char c : str) {
      const auto digit = static_cast<std::size_t>(c - '0');
      if (value > (SIZE_MAX - digit) / 10) return SIZE_MAX;
      value = value * 10 + digit;
    }
    return value;
  };
  if (a.empty()) {
    // Suffix form `-N`: the final N bytes.
    if (!digits(b)) return RangeParse::kNone;
    const std::size_t n = position(b);
    if (n == 0) return RangeParse::kUnsatisfiable;
    *first = n >= total ? 0 : total - n;
    *last = total - 1;
    return RangeParse::kOk;
  }
  if (!digits(a) || (!b.empty() && !digits(b))) return RangeParse::kNone;
  *first = position(a);
  if (*first >= total) return RangeParse::kUnsatisfiable;
  *last = b.empty() ? total - 1 : position(b);
  if (*last < *first) return RangeParse::kNone;  // malformed, not a miss
  if (*last >= total) *last = total - 1;
  return RangeParse::kOk;
}

}  // namespace

HttpResponse AjaxFrontEnd::handle_image(const HttpRequest& request) {
  const std::shared_ptr<FrameHub> hub = service_.resolve_view(request, nullptr);
  if (!hub) return HttpResponse::not_found();
  const FramePtr frame = hub->latest();
  if (!frame || frame->png.empty()) return HttpResponse::not_found();
  HttpResponse response = HttpResponse::binary(frame->png, "image/png");
  response.headers["Accept-Ranges"] = "bytes";
  const auto range = request.headers.find("range");
  if (range == request.headers.end()) return response;
  const std::size_t total = response.body.size();
  std::size_t first = 0;
  std::size_t last = 0;
  switch (parse_byte_range(range->second, total, &first, &last)) {
    case RangeParse::kNone:
      return response;
    case RangeParse::kUnsatisfiable: {
      HttpResponse miss = HttpResponse::text("range not satisfiable", 416);
      miss.headers["Content-Range"] = "bytes */" + std::to_string(total);
      miss.headers["Accept-Ranges"] = "bytes";
      return miss;
    }
    case RangeParse::kOk:
      break;
  }
  response.status = 206;
  response.headers["Content-Range"] = "bytes " + std::to_string(first) + "-" +
                                      std::to_string(last) + "/" +
                                      std::to_string(total);
  response.body = response.body.substr(first, last - first + 1);
  return response;
}

HttpResponse AjaxFrontEnd::handle_steer(const HttpRequest& request) {
  util::Json body;
  try {
    body = util::Json::parse(request.body);
  } catch (const std::exception& e) {
    return HttpResponse::bad_request(e.what());
  }
  if (!body.is_object()) return HttpResponse::bad_request("expected object");
  util::JsonArray applied;
  for (const auto& [name, value] : body.as_object()) {
    if (!value.is_number()) continue;
    session_.steer(name, value.as_number());  // thread-safe mailbox post
    applied.push_back(util::Json(name));
    ++steers_;
  }
  util::Json out;
  out["posted"] = util::Json(applied);
  return HttpResponse::json(out.dump());
}

HttpResponse AjaxFrontEnd::handle_view(const HttpRequest& request) {
  util::Json body;
  try {
    body = util::Json::parse(request.body);
  } catch (const std::exception& e) {
    return HttpResponse::bad_request(e.what());
  }
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    pending_view_.push_back(std::move(body));
  }
  return HttpResponse::json("{\"ok\":true}");
}

}  // namespace ricsa::web
