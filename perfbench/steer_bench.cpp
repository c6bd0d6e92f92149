// Steering-loop benchmark harness. Starts a live origin (AjaxFrontEnd over
// a steerable bowshock simulation) and, for relay_sse, a relay node, drives
// them with emulated browsers and one steering user over loopback HTTP, and
// prints what those users see as one JSON line. perfbench/run.py builds and
// runs it; see there for the command line.
//
// Every workload runs the same origin (configured as the web dashboard
// example deploys it: a ray-cast main view and an isosurface view) and the
// same reference clients:
//   steering user  POST /api/steer {"mach": v}, then long-polls the main
//                  view (delta=1) until v shows in a delivered frame's
//                  state: the steer-to-visible latency the paper's user
//                  feels;
//   auditors       one per view, long-poll full bodies from the origin and
//                  fingerprint every decoded image, the reference the
//                  viewers' delta-reassembled canvases are checked against.
// The workloads differ in their four viewers (two per view), chosen to load
// different layers:
//   live_steer  long-poll viewers follow the live head with tile deltas:
//               every frame parks in the hub and is dispatched on publish;
//   catch_up    viewers leave for a seeded 1-3 s, rejoin on a fresh
//               connection with their stale cursor, replay the hub window
//               back to back, then follow 12 live frames before leaving
//               again: about a third of deliveries are window hits;
//   relay_sse   SSE viewers on a relay that subscribes to the origin over
//               SSE; the steering user steers and watches through the relay.
//
// --trace 1 measures single layers instead (the tracing-off run gives the
// end-to-end numbers): probes of the HTTP/hub path during the live phase, a
// relay-hop measurement, and a replay of the run's steering schedule
// through each frame-path layer (simulation, ray-cast and isosurface
// pipelines, tile diff/coalesce, PNG/deflate, base64/JSON) with one span per
// layer call, written to --trace-out.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "relay/relay.hpp"
#include "steering/session.hpp"
#include "util/base64.hpp"
#include "util/json.hpp"
#include "util/prng.hpp"
#include "viz/deflate.hpp"
#include "viz/image.hpp"
#include "viz/tiles.hpp"
#include "web/frontend.hpp"
#include "web/http.hpp"

namespace {

using ricsa::util::Json;
using Clock = std::chrono::steady_clock;

// One origin for every workload, configured as examples/web_dashboard.cpp
// deploys it: a 40^3 bowshock ray-cast to 192x192 ("main", the steered
// view) plus the same step rendered as an isosurface from a second camera
// ("density/iso"), 24 px dirty-rect tiles, raw pixels kept for the newest
// 32 frames, and a 0.25 s pause between frames.
constexpr int kResolution = 40;
constexpr int kImageSize = 192;
constexpr int kTileSize = 24;
constexpr std::size_t kRawWindow = 32;
constexpr double kFrameIntervalS = 0.25;
constexpr const char* kIsoView = "density/iso";
// Two viewers per published view: even slots watch main, odd ones the
// isosurface. Slots 0 and 1 verify their view's reassembled canvas.
constexpr int kViewers = 4;
constexpr double kWarmupS = 1.0;
// catch_up viewers stay away 3-10 frame periods, inside the raw window, so
// every rejoin replays a backlog that still anchors tile deltas. They then
// follow enough live frames that parked deliveries stay the majority: the
// median delivery time then reads the parked mode, not the sub-ms window
// hits, whose round trip drifts with the host's wake-up latency.
constexpr double kAwayMinS = 1.0;
constexpr double kAwayMaxS = 3.0;
constexpr int kLiveFrames = 12;
// Server-side long-poll wait. Frames publish every frame interval plus the
// render time, about 0.3 s, so a poll that waits this long without one
// means the publisher stalled, which counts as a failure.
constexpr double kPollTimeoutS = 2.0;
constexpr double kClientTimeoutS = 5.0;
constexpr int kReplayFrames = 40;
constexpr double kRelayHopS = 5.0;

double wall_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

double mono_us() {
  return std::chrono::duration<double, std::micro>(
             Clock::now().time_since_epoch())
      .count();
}

void sleep_s(double seconds) {
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

ricsa::web::FrontEndConfig origin_config() {
  ricsa::web::FrontEndConfig config;
  config.session.simulation = ricsa::hydro::HydroSimulation::Kind::kBowshock;
  config.session.resolution = kResolution;
  config.session.viz.technique = ricsa::cost::VizRequest::Technique::kRayCast;
  config.session.viz.image_width = kImageSize;
  config.session.viz.image_height = kImageSize;
  config.session.cycles_per_frame = 1;
  config.frame_interval_s = kFrameIntervalS;
  config.tile_size = kTileSize;
  config.raw_window = kRawWindow;
  config.poll_timeout_s = 5.0;
  ricsa::web::ViewSpec iso;
  iso.name = kIsoView;
  iso.viz = config.session.viz;
  iso.viz.technique = ricsa::cost::VizRequest::Technique::kIsosurface;
  iso.viz.isovalue = 1.1f;
  iso.camera.azimuth = 2.2f;
  iso.camera.elevation = 0.5f;
  config.views.push_back(iso);
  return config;
}

/// Query parameter selecting a view (kIsoView, URL-encoded); the default
/// view needs none.
std::string view_query(const std::string& view) {
  return view == "main" ? "" : "&view=density%2Fiso";
}

ricsa::relay::RelayNodeConfig relay_config(int upstream_port,
                                           const std::string& id) {
  ricsa::relay::RelayNodeConfig config;
  config.subscriber.upstream_port = upstream_port;
  config.subscriber.views = {"main", kIsoView};
  config.subscriber.relay_id = id;
  config.subscriber.transport = "sse";
  config.poll_timeout_s = 5.0;
  return config;
}

std::uint64_t head_seq(ricsa::web::HttpClient& client,
                       const std::string& view = "main") {
  const auto response = client.get("/api/state?" + view_query(view),
                                   kClientTimeoutS);
  if (response.status != 200) {
    throw std::runtime_error("GET /api/state answered " +
                             std::to_string(response.status));
  }
  return static_cast<std::uint64_t>(
      Json::parse(response.body).at("seq").as_int());
}

/// Until both views have published a frame on `port`. A view is unknown,
/// so answers 404, until its first publish.
void wait_for_frame(int port) {
  ricsa::web::HttpClient client(port);
  const double deadline = wall_ms() + 60000.0;
  for (const std::string view : {"main", kIsoView}) {
    while (client.get("/api/state?" + view_query(view), kClientTimeoutS)
                   .status == 404 ||
           head_seq(client, view) == 0) {
      if (wall_ms() > deadline) {
        throw std::runtime_error("no frame on port " + std::to_string(port) +
                                 " within 60 s");
      }
      sleep_s(0.002);
    }
  }
}

/// The servers under test. Clients connect to serve_port: the relay when
/// there is one, else the origin.
struct Stack {
  std::unique_ptr<ricsa::web::AjaxFrontEnd> origin;
  std::unique_ptr<ricsa::relay::RelayNode> relay;
  int origin_port = 0;
  int serve_port = 0;

  void start(bool with_relay) {
    origin = std::make_unique<ricsa::web::AjaxFrontEnd>(origin_config());
    origin_port = origin->start();
    serve_port = origin_port;
    wait_for_frame(origin_port);
    if (with_relay) {
      relay = std::make_unique<ricsa::relay::RelayNode>(
          relay_config(origin_port, "bench-relay"));
      serve_port = relay->start();
      wait_for_frame(serve_port);
    }
  }

  void stop() {
    if (relay) relay->stop();
    relay.reset();
    if (origin) origin->stop();
    origin.reset();
  }

  ~Stack() { stop(); }
};

/// Measurement window in wall-clock ms: samples count only when received
/// inside it, and clients run until it closes.
struct Window {
  double begin_ms = 0.0;
  double end_ms = 0.0;
  bool contains(double t) const { return t >= begin_ms && t <= end_ms; }
};

/// What one client thread observed. Each thread owns its result; the main
/// thread reads it after join.
struct ClientResult {
  std::vector<double> delivery_ms;
  std::vector<double> steer_ms;
  std::vector<double> dispatch_ms;
  std::vector<double> published_ms;  // publish stamps inside the window
  std::vector<double> state_rtt_us;
  std::vector<double> window_hit_us;
  std::uint64_t frames = 0;      // frames delivered inside the window
  std::uint64_t body_bytes = 0;  // their body bytes
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_error;
  /// cycle -> image fingerprint (verifier canvas, or auditor decode).
  std::map<std::int64_t, std::uint32_t> fingerprints;
  /// (cycle at which the value became visible, mach value), in order.
  std::vector<std::pair<std::int64_t, double>> steers;

  void fail(const std::string& why) {
    ++failed;
    if (first_error.empty()) first_error = why;
  }
};

std::uint32_t fingerprint(const ricsa::viz::Image& image) {
  const auto& pixels = image.pixels();
  return ricsa::viz::crc32(
      reinterpret_cast<const std::uint8_t*>(pixels.data()),
      pixels.size() * sizeof(ricsa::viz::Rgba));
}

ricsa::viz::Image decode_b64_png(const std::string& b64) {
  return ricsa::viz::Image::decode_png(ricsa::util::base64_decode(b64));
}

/// One delivered poll body or SSE event, with the fields every check uses.
struct Delivery {
  Json body;
  std::uint64_t seq = 0;
  std::int64_t cycle = -1;
  double published_ms = 0.0;
  bool timeout = false;
};

Delivery parse_delivery(const std::string& text) {
  Delivery d;
  d.body = Json::parse(text);
  d.timeout = d.body.at("timeout").as_bool(false);
  d.seq = static_cast<std::uint64_t>(d.body.at("seq").as_int());
  const Json& state = d.body.at("state");
  d.cycle = state.at("cycle").as_int(-1);
  d.published_ms = state.at("published_ms").as_number(0.0);
  return d;
}

/// Client-side reassembly of a delta stream, as the dashboard's canvas
/// does it: full images replace the canvas, tiles patch the frame named by
/// base_seq, bodies with neither keep the pixels. Each reassembled frame is
/// fingerprinted by its simulation cycle.
class Canvas {
 public:
  /// False when a tile delta does not patch the frame the canvas holds.
  bool apply(const Delivery& d, ClientResult& out) {
    const Json& body = d.body;
    if (body.contains("image_b64")) {
      image_ = decode_b64_png(body.at("image_b64").as_string());
    } else if (body.contains("tiles")) {
      const auto base = static_cast<std::uint64_t>(body.at("base_seq").as_int());
      if (image_.width() == 0 || base != seq_) return false;
      for (const Json& tile : body.at("tiles").as_array()) {
        const ricsa::viz::Image patch =
            decode_b64_png(tile.at("png_b64").as_string());
        ricsa::viz::TileGrid::composite(
            image_, patch, static_cast<int>(tile.at("x").as_int()),
            static_cast<int>(tile.at("y").as_int()));
      }
    } else if (image_.width() == 0) {
      return false;
    }
    seq_ = d.seq;
    out.fingerprints[d.cycle] = fingerprint(image_);
    return true;
  }

 private:
  ricsa::viz::Image image_;
  std::uint64_t seq_ = 0;
};

/// Runs `step` until it returns false, turning exceptions into recorded
/// failures so one broken exchange does not end the client.
void guarded(ClientResult& out, const Window& window,
             const std::function<bool()>& step) {
  while (true) {
    try {
      if (!step()) return;
    } catch (const std::exception& e) {
      out.fail(e.what());
      if (wall_ms() > window.end_ms) return;
      sleep_s(0.01);
    }
  }
}

std::string poll_path(const std::string& view, std::uint64_t since, bool delta,
                      bool full) {
  return "/api/poll?since=" + std::to_string(since) +
         (delta ? "&delta=1" : "") + "&timeout=" +
         std::to_string(kPollTimeoutS) + (full ? "&full=1" : "") +
         view_query(view);
}

/// Long-poll viewer (live_steer, catch_up). Delivery time is receipt minus
/// the later of request sent and frame published: for a parked poll the
/// publish-to-receipt latency, for a window hit the round trip.
void poll_viewer(int port, const std::string& view, bool catch_up, bool verify,
                 std::uint64_t seed, const Window& window, ClientResult& out) {
  ricsa::util::Xoshiro256 rng(seed);
  ricsa::web::HttpClient client(port);
  Canvas canvas;
  std::uint64_t since = 0;
  bool need_full = verify;
  int live_left = kLiveFrames;  // catch_up: live frames before leaving
  guarded(out, window, [&] {
    if (wall_ms() > window.end_ms) return false;
    if (since == 0) since = head_seq(client, view);
    if (catch_up && live_left == 0) {
      client.close();
      sleep_s(rng.uniform(kAwayMinS, kAwayMaxS));
      live_left = kLiveFrames;
      return true;
    }
    const double sent = wall_ms();
    ++out.attempted;
    const auto response =
        client.get(poll_path(view, since, true, need_full), kClientTimeoutS);
    const double got = wall_ms();
    if (response.status != 200) {
      out.fail("poll answered " + std::to_string(response.status));
      return true;
    }
    const Delivery d = parse_delivery(response.body);
    if (d.timeout) {
      out.fail("poll timed out while frames were being published");
      return true;
    }
    if (d.seq != since + 1) out.fail("gap in the frame sequence");
    since = d.seq;
    if (catch_up && d.published_ms >= sent) --live_left;
    if (verify) {
      need_full = !canvas.apply(d, out);
      if (need_full) out.fail("tile delta does not patch the canvas");
    }
    if (window.contains(got)) {
      out.delivery_ms.push_back(got - std::max(sent, d.published_ms));
      ++out.frames;
      out.body_bytes += response.body.size();
    }
    return true;
  });
}

/// Minimal SSE subscriber over a raw socket: HTTP/1.1 chunked decoding and
/// event splitting (keepalive comments are skipped).
class SseConnection {
 public:
  SseConnection(int port, const std::string& path) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("sse: socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    timeval tv{};
    tv.tv_usec = 200000;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    const std::string request =
        "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        !ricsa::web::detail::write_all(fd_, request.data(), request.size())) {
      ::close(fd_);
      throw std::runtime_error("sse: cannot open " + path);
    }
  }
  ~SseConnection() { ::close(fd_); }
  SseConnection(const SseConnection&) = delete;
  SseConnection& operator=(const SseConnection&) = delete;

  /// Next event's data line; false once `deadline_ms` passes without one.
  /// Throws when the stream breaks or ends.
  bool next(std::string* data, double deadline_ms) {
    while (!pop_event(data)) {
      if (wall_ms() > deadline_ms) return false;
      char buf[16384];
      const ssize_t got = ::recv(fd_, buf, sizeof(buf), 0);
      if (got == 0) throw std::runtime_error("sse: stream closed");
      if (got < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
        throw std::runtime_error("sse: recv failed");
      }
      raw_.append(buf, static_cast<std::size_t>(got));
      decode();
    }
    return true;
  }

 private:
  void decode() {
    if (!headers_done_) {
      const auto end = raw_.find("\r\n\r\n");
      if (end == std::string::npos) return;
      const std::string status = raw_.substr(0, raw_.find("\r\n"));
      if (status.find(" 200") == std::string::npos) {
        throw std::runtime_error("sse: " + status);
      }
      raw_.erase(0, end + 4);
      headers_done_ = true;
    }
    while (true) {
      const auto line_end = raw_.find("\r\n");
      if (line_end == std::string::npos) return;
      const auto size = static_cast<std::size_t>(
          std::stoull(raw_.substr(0, line_end), nullptr, 16));
      if (raw_.size() < line_end + 2 + size + 2) return;
      if (size == 0) throw std::runtime_error("sse: stream ended");
      payload_.append(raw_, line_end + 2, size);
      raw_.erase(0, line_end + 2 + size + 2);
    }
  }

  bool pop_event(std::string* data) {
    while (true) {
      const auto end = payload_.find("\n\n");
      if (end == std::string::npos) return false;
      const std::string block = payload_.substr(0, end);
      payload_.erase(0, end + 2);
      const auto pos = block.find("data: ");
      if (pos == std::string::npos) continue;  // keepalive comment
      const auto line_end = block.find('\n', pos);
      *data = block.substr(pos + 6, line_end == std::string::npos
                                        ? std::string::npos
                                        : line_end - pos - 6);
      return true;
    }
  }

  int fd_ = -1;
  bool headers_done_ = false;
  std::string raw_;
  std::string payload_;
};

std::string stream_path(const std::string& view, std::uint64_t since,
                        bool full) {
  return "/api/stream?since=" + std::to_string(since) + "&delta=1&timeout=" +
         std::to_string(kPollTimeoutS) + (full ? "&full=1" : "") +
         view_query(view);
}

/// SSE viewer (relay_sse). Delivery time is receipt minus the later of
/// "ready for the next event" and frame published.
void sse_viewer(int port, const std::string& view, bool verify,
                const Window& window, ClientResult& out) {
  ricsa::web::HttpClient state_client(port);
  SseConnection stream(port,
                       stream_path(view, head_seq(state_client, view), verify));
  Canvas canvas;
  std::uint64_t since = 0;
  double ready = wall_ms();
  guarded(out, window, [&] {
    std::string data;
    if (!stream.next(&data, window.end_ms)) return false;
    const double got = wall_ms();
    ++out.attempted;
    const Delivery d = parse_delivery(data);
    if (since != 0 && d.seq != since + 1) out.fail("gap in the event stream");
    since = d.seq;
    if (verify && !canvas.apply(d, out)) {
      out.fail("tile delta does not patch the canvas");
    }
    if (window.contains(got)) {
      out.delivery_ms.push_back(got - std::max(ready, d.published_ms));
      ++out.frames;
      out.body_bytes += data.size();
    }
    ready = wall_ms();
    return true;
  });
}

/// The steering user: one steer at a time, then sequential delta polls
/// until a frame's state carries the value. The values are mach 2.55-3.50
/// in steps of 0.05 (the bowshock starts at 2.5), dealt in seeded shuffled
/// passes that visit each value once: seeds change the order, not which
/// values a run visits, so the image change per steer, and with it the
/// bytes per frame and the isosurface's size, stay alike across seeds.
/// Think time 2-10 ms. Its polls that park in the hub also give the
/// dispatch time: receipt minus the frame's publish stamp.
void steering_user(int port, std::uint64_t seed, const Window& window,
                   ClientResult& out) {
  ricsa::util::Xoshiro256 rng(seed);
  ricsa::web::HttpClient client(port);
  std::uint64_t since = 0;
  int applied = 250;  // mach in hundredths
  std::vector<int> deck;
  guarded(out, window, [&] {
    if (wall_ms() > window.end_ms) return false;
    if (since == 0) since = head_seq(client);
    if (deck.empty()) {
      for (int v = 255; v <= 350; v += 5) deck.push_back(v);
      for (std::size_t i = deck.size() - 1; i > 0; --i) {
        std::swap(deck[i], deck[static_cast<std::size_t>(rng.uniform_int(
                               0, static_cast<std::int64_t>(i)))]);
      }
      if (deck.back() == applied) std::swap(deck.front(), deck.back());
    }
    const int next = deck.back();
    deck.pop_back();
    const double value = next / 100.0;
    char body[64];
    std::snprintf(body, sizeof(body), "{\"mach\":%.2f}", value);
    ++out.attempted;
    const double t0 = wall_ms();
    const auto posted =
        client.post("/api/steer", body, "application/json", kClientTimeoutS);
    if (posted.status != 200 || posted.body.find("mach") == std::string::npos) {
      out.fail("steer answered " + std::to_string(posted.status));
      return true;
    }
    applied = next;
    bool seen = false;
    while (!seen && wall_ms() < t0 + 10000.0) {
      const double sent = wall_ms();
      const auto response =
          client.get(poll_path("main", since, true, false), kClientTimeoutS);
      const double got = wall_ms();
      if (response.status != 200) {
        out.fail("poll answered " + std::to_string(response.status));
        return true;
      }
      const Delivery d = parse_delivery(response.body);
      if (d.timeout) continue;
      if (d.seq != since + 1) out.fail("gap in the steering user's stream");
      since = d.seq;
      if (window.contains(got) && d.published_ms > sent) {
        out.dispatch_ms.push_back(got - d.published_ms);
      }
      const double mach =
          d.body.at("state").at("parameters").at("mach").as_number(-1.0);
      if (std::abs(mach - value) < 1e-9) {
        seen = true;
        out.steers.emplace_back(d.cycle, value);
        if (window.contains(got)) out.steer_ms.push_back(got - t0);
      }
    }
    if (!seen) out.fail("steered value never became visible");
    sleep_s(rng.uniform(0.002, 0.01));
    return true;
  });
}

/// Full-body reference stream of one view from the origin: every frame is
/// decoded and fingerprinted.
void auditor(int port, const std::string& view, const Window& window,
             ClientResult& out) {
  ricsa::web::HttpClient client(port);
  std::uint64_t since = 0;
  guarded(out, window, [&] {
    if (wall_ms() > window.end_ms) return false;
    if (since == 0) since = head_seq(client, view);
    ++out.attempted;
    const auto response =
        client.get(poll_path(view, since, false, false), kClientTimeoutS);
    if (response.status != 200) {
      out.fail("audit poll answered " + std::to_string(response.status));
      return true;
    }
    const Delivery d = parse_delivery(response.body);
    if (d.timeout) {
      out.fail("audit poll timed out while frames were being published");
      return true;
    }
    if (d.seq != since + 1) out.fail("gap in the auditor's stream");
    since = d.seq;
    out.fingerprints[d.cycle] =
        fingerprint(decode_b64_png(d.body.at("image_b64").as_string()));
    if (window.contains(d.published_ms)) {
      out.published_ms.push_back(d.published_ms);
    }
    return true;
  });
}

/// Trace-only probe of the serving HTTP path every 20 ms: GET /api/state
/// (routing and response write, no hub wait) and a poll for the newest
/// retained frame (a hub window hit), each timed client-side.
void probe(int port, const Window& window, ClientResult& out) {
  ricsa::web::HttpClient client(port);
  guarded(out, window, [&] {
    if (wall_ms() > window.end_ms) return false;
    const double t0 = mono_us();
    const std::uint64_t head = head_seq(client);
    const double t1 = mono_us();
    ++out.attempted;
    const auto response = client.get(
        "/api/poll?since=" + std::to_string(head - 1) + "&delta=1&timeout=0",
        kClientTimeoutS);
    const double t2 = mono_us();
    if (response.status != 200 || parse_delivery(response.body).seq != head) {
      out.fail("window-hit probe did not return the retained frame");
    }
    if (window.contains(wall_ms())) {
      out.state_rtt_us.push_back(t1 - t0);
      out.window_hit_us.push_back(t2 - t1);
    }
    sleep_s(0.02);
    return true;
  });
}

/// Flat span log for the replay, written out when the run ends.
class Trace {
 public:
  long begin(const std::string& name, long parent, std::int64_t cycle) {
    spans_.push_back({name, parent, cycle, mono_us(), 0.0});
    return static_cast<long>(spans_.size()) - 1;
  }
  void end(long id) {
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.dur_us = mono_us() - span.start_us;
  }
  /// A stage the library timed itself (the pipeline's stage stamps).
  void stamp(const std::string& name, long parent, std::int64_t cycle,
             double dur_us) {
    spans_.push_back({name, parent, cycle, mono_us(), dur_us});
  }
  std::vector<double> durations_us(const std::string& name) const {
    std::vector<double> out;
    for (const Span& span : spans_) {
      if (span.name == name) out.push_back(span.dur_us);
    }
    return out;
  }
  void write(const std::string& path) const {
    std::ofstream file(path);
    file << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[256];
      std::snprintf(line, sizeof(line),
                    "{\"id\":%zu,\"name\":\"%s\",\"parent\":%ld,"
                    "\"cycle\":%lld,\"start_us\":%.3f,\"dur_us\":%.3f}%s\n",
                    i, s.name.c_str(), s.parent,
                    static_cast<long long>(s.cycle), s.start_us, s.dur_us,
                    i + 1 < spans_.size() ? "," : "");
      file << line;
    }
    file << "]\n";
  }

 private:
  struct Span {
    std::string name;
    long parent = -1;
    std::int64_t cycle = -1;
    double start_us = 0.0;
    double dur_us = 0.0;
  };
  std::vector<Span> spans_;
};

/// The zlib stream of a PNG: its IDAT payloads, concatenated.
std::vector<std::uint8_t> png_idat(const std::vector<std::uint8_t>& png) {
  std::vector<std::uint8_t> out;
  std::size_t pos = 8;  // signature
  while (pos + 12 <= png.size()) {
    const std::uint32_t length = (std::uint32_t{png[pos]} << 24) |
                                 (std::uint32_t{png[pos + 1]} << 16) |
                                 (std::uint32_t{png[pos + 2]} << 8) |
                                 std::uint32_t{png[pos + 3]};
    const std::size_t data = pos + 8;
    if (data + length + 4 > png.size()) break;
    if (std::memcmp(png.data() + pos + 4, "IDAT", 4) == 0) {
      out.insert(out.end(), png.begin() + static_cast<std::ptrdiff_t>(data),
                 png.begin() + static_cast<std::ptrdiff_t>(data + length));
    }
    pos = data + length + 4;
  }
  return out;
}

/// Frame-path replay. A fresh session fast-forwards to the last
/// kReplayFrames cycles of the live run (at most its second half), applying
/// the run's steers at the cycles they became visible (the last
/// kReplayFrames plain simulation steps are timed on the way), then
/// produces those frames again while each layer the origin's publish path
/// runs is timed on its own: the ray-cast pipeline, the isosurface view's
/// re-render, and for the main view tile diff, coalesce, dirty-rect
/// encodes, full PNG, deflate, base64 and body JSON. Deflate is timed on
/// the PNG's own filtered scanlines, recovered from its IDAT outside the
/// span, so png_encode minus deflate is the filter stage and framing.
/// `ratios` receives the dirty fraction, rect count and compression ratio
/// per frame.
void replay_frame_path(
    const std::vector<std::pair<std::int64_t, double>>& steers,
    std::int64_t last_cycle, Trace& trace,
    std::map<std::string, std::vector<double>>& ratios) {
  const ricsa::web::FrontEndConfig config = origin_config();
  const ricsa::web::ViewSpec& iso = config.views.front();
  ricsa::steering::SteeringSession session(config.session);
  ricsa::hydro::Steerable& sim = session.simulation();
  std::size_t next = 0;
  const auto apply_steers = [&](std::int64_t cycle) {
    while (next < steers.size() && steers[next].first <= cycle) {
      sim.set_parameter("mach", steers[next].second);
      ++next;
    }
  };
  // Replay at most half the run, so the other half's plain steps are timed.
  const std::int64_t replayed =
      std::min<std::int64_t>(kReplayFrames, last_cycle / 2);
  const std::int64_t first = last_cycle - replayed + 1;
  for (std::int64_t cycle = 1; cycle < first; ++cycle) {
    apply_steers(cycle);
    const bool timed = cycle >= first - kReplayFrames;
    const long span = timed ? trace.begin("sim_step", -1, cycle) : -1;
    sim.advance(1);
    if (timed) trace.end(span);
  }
  ricsa::viz::Image prev;
  std::size_t sink = 0;
  for (std::int64_t cycle = first; cycle <= last_cycle; ++cycle) {
    apply_steers(cycle);
    const long frame = trace.begin("frame", -1, cycle);
    long span = trace.begin("frame_build", frame, cycle);
    const auto result = session.next_frame();
    trace.end(span);
    trace.stamp("filter", span, cycle, result.exec.filter_s * 1e6);
    trace.stamp("transform", span, cycle, result.exec.transform_s * 1e6);
    span = trace.begin("iso_frame_build", frame, cycle);
    const auto iso_exec = session.render_view(iso.viz, iso.camera);
    trace.end(span);
    if (iso_exec) {
      trace.stamp("iso_transform", span, cycle, iso_exec->transform_s * 1e6);
      trace.stamp("iso_render", span, cycle, iso_exec->render_s * 1e6);
      sink += iso_exec->image.bytes();
    }
    const ricsa::viz::Image& image = result.image;
    if (image.width() > 0 && prev.width() == image.width() &&
        prev.height() == image.height()) {
      const ricsa::viz::TileGrid grid(image.width(), image.height(), kTileSize);
      span = trace.begin("tile_diff", frame, cycle);
      const ricsa::viz::TileSet dirty = grid.diff(prev, image);
      trace.end(span);
      ratios["dirty_fraction"].push_back(grid.dirty_fraction(dirty));
      span = trace.begin("tile_coalesce", frame, cycle);
      const std::vector<ricsa::viz::TileRect> rects = grid.coalesce(dirty);
      trace.end(span);
      ratios["dirty_rects"].push_back(static_cast<double>(rects.size()));
      span = trace.begin("rect_encode", frame, cycle);
      for (const ricsa::viz::TileRect& rect : rects) {
        const ricsa::viz::Image patch =
            ricsa::viz::TileGrid::extract(image, rect);
        sink += ricsa::util::base64_encode(patch.encode_png()).size();
      }
      trace.end(span);
    }
    span = trace.begin("png_encode", frame, cycle);
    const std::vector<std::uint8_t> png = image.encode_png();
    trace.end(span);
    const std::vector<std::uint8_t> idat = png_idat(png);
    const std::vector<std::uint8_t> scanlines =
        ricsa::viz::zlib_decompress(idat.data(), idat.size());
    span = trace.begin("deflate", frame, cycle);
    const std::vector<std::uint8_t> deflated =
        ricsa::viz::zlib_compress(scanlines.data(), scanlines.size());
    trace.end(span);
    sink += deflated.size();
    ratios["compression_ratio"].push_back(static_cast<double>(image.bytes()) /
                                          static_cast<double>(png.size()));
    span = trace.begin("base64", frame, cycle);
    const std::string b64 = ricsa::util::base64_encode(png);
    trace.end(span);
    Json state;
    state["view"] = "main";
    state["cycle"] = result.cycle;
    state["sim_time"] = result.sim_time;
    state["variable"] = result.variable;
    state["vrt"] = result.vrt.to_string();
    state["predicted_delay_s"] = result.vrt.predicted_delay_s;
    state["filter_s"] = result.exec.filter_s;
    state["transform_s"] = result.exec.transform_s;
    state["render_s"] = result.exec.render_s;
    state["published_ms"] = wall_ms();
    ricsa::util::JsonObject params;
    for (const auto& [key, value] : session.parameters()) {
      params[key] = Json(value);
    }
    state["parameters"] = Json(params);
    span = trace.begin("body_build", frame, cycle);
    Json body;
    body["seq"] = static_cast<double>(cycle);
    body["delta"] = false;
    body["tier"] = "full";
    body["state"] = std::move(state);
    body["image_b64"] = b64;
    sink += body.dump().size();
    trace.end(span);
    trace.end(frame);
    prev = image;
  }
  std::fprintf(stderr, "steer_bench: replayed cycles %lld..%lld (%zu bytes)\n",
               static_cast<long long>(first),
               static_cast<long long>(last_cycle), sink);
}

/// Cycle -> receipt time of every isosurface event on one SSE stream until
/// end_ms.
void stream_receipts(int port, double end_ms,
                     std::map<std::int64_t, double>& receipts,
                     ClientResult& out) {
  try {
    ricsa::web::HttpClient state_client(port);
    SseConnection stream(
        port, stream_path(kIsoView, head_seq(state_client, kIsoView), false));
    std::string data;
    while (stream.next(&data, end_ms)) {
      receipts[parse_delivery(data).cycle] = wall_ms();
    }
  } catch (const std::exception& e) {
    out.fail(e.what());
  }
}

/// Relay hop: the same frames received over SSE straight from the origin
/// and through a fresh relay subscribed to it; the hop is the per-frame
/// difference in receipt time. It is taken on the isosurface view, the last
/// publish of each monitor iteration: after a main-view publish the
/// isosurface render competes with both deliveries, and its jitter
/// outweighs the sub-ms hop.
std::vector<double> measure_relay_hop(int origin_port, ClientResult& out) {
  ricsa::relay::RelayNode hop(relay_config(origin_port, "hop-relay"));
  const int port = hop.start();
  wait_for_frame(port);
  const double end_ms = wall_ms() + kRelayHopS * 1000.0;
  std::map<std::int64_t, double> direct;
  std::map<std::int64_t, double> relayed;
  ClientResult relayed_out;
  std::thread a([&] { stream_receipts(origin_port, end_ms, direct, out); });
  std::thread b([&] { stream_receipts(port, end_ms, relayed, relayed_out); });
  a.join();
  b.join();
  hop.stop();
  if (relayed_out.failed > 0) out.fail(relayed_out.first_error);
  std::vector<double> hops;
  for (const auto& [cycle, at] : relayed) {
    const auto it = direct.find(cycle);
    if (it != direct.end()) hops.push_back(at - it->second);
  }
  if (hops.empty()) out.fail("relay hop: no frame seen on both streams");
  return hops;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::string trace_out;
};

double stat_number(int port, const char* key) {
  const auto response = ricsa::web::http_get(port, "/api/stats");
  return Json::parse(response.body).at(key).as_number(0.0);
}

int run(const Options& opt) {
  const bool relay = opt.workload == "relay_sse";
  const bool catch_up = opt.workload == "catch_up";
  if (!relay && !catch_up && opt.workload != "live_steer") {
    std::fprintf(stderr, "steer_bench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }

  if (opt.setup_only) {
    const double t0 = mono_us();
    Stack stack;
    stack.start(relay);
    std::printf("{\"setup_s\": %.9f}\n", (mono_us() - t0) / 1e6);
    return 0;
  }

  Stack stack;
  stack.start(relay);
  Window window;
  window.begin_ms = wall_ms() + kWarmupS * 1000.0;
  window.end_ms = window.begin_ms + opt.seconds * 1000.0;

  ricsa::util::Xoshiro256 seeds(opt.seed);
  // Slots: the viewers, then steering user, the main and iso auditors,
  // probe.
  const auto view_of = [](int slot) {
    return std::string(slot % 2 == 0 ? "main" : kIsoView);
  };
  std::vector<ClientResult> results(kViewers + 4);
  ClientResult& steerer = results[kViewers];
  ClientResult* audits = &results[kViewers + 1];
  ClientResult& probes = results[kViewers + 3];
  std::vector<std::thread> threads;
  for (int i = 0; i < kViewers; ++i) {
    const std::uint64_t seed = seeds();
    ClientResult* out = &results[static_cast<std::size_t>(i)];
    const std::string view = view_of(i);
    const bool verify = i < 2;
    threads.emplace_back([&stack, &window, out, view, verify, relay, catch_up,
                          seed] {
      try {
        if (relay) {
          sse_viewer(stack.serve_port, view, verify, window, *out);
        } else {
          poll_viewer(stack.serve_port, view, catch_up, verify, seed, window,
                      *out);
        }
      } catch (const std::exception& e) {
        out->fail(e.what());
      }
    });
  }
  const std::uint64_t steer_seed = seeds();
  threads.emplace_back(
      [&] { steering_user(stack.serve_port, steer_seed, window, steerer); });
  for (int v = 0; v < 2; ++v) {
    threads.emplace_back([&, v] {
      auditor(stack.origin_port, view_of(v), window, audits[v]);
    });
  }
  if (opt.trace) {
    threads.emplace_back([&] { probe(stack.serve_port, window, probes); });
  }

  sleep_s((window.begin_ms - wall_ms()) / 1000.0);
  const double begin_us = mono_us();
  const std::uint64_t seq0 = stack.origin->frame_seq();
  double served0 = 0.0;
  double bytes0 = 0.0;
  if (opt.trace) {
    served0 = stat_number(stack.origin_port, "served");
    bytes0 = stat_number(stack.origin_port, "bytes_sent");
  }
  sleep_s((window.end_ms - wall_ms()) / 1000.0);
  const double elapsed_s = (mono_us() - begin_us) / 1e6;
  const std::uint64_t seq1 = stack.origin->frame_seq();
  double served1 = 0.0;
  double bytes1 = 0.0;
  if (opt.trace) {
    served1 = stat_number(stack.origin_port, "served");
    bytes1 = stat_number(stack.origin_port, "bytes_sent");
  }
  for (std::thread& t : threads) t.join();

  ClientResult total;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ClientResult& r = results[i];
    total.attempted += r.attempted;
    total.failed += r.failed;
    if (r.failed > 0) {
      std::fprintf(stderr, "steer_bench: client %zu: %llu failures, first: %s\n",
                   i, static_cast<unsigned long long>(r.failed),
                   r.first_error.c_str());
    }
    if (i < static_cast<std::size_t>(kViewers)) {
      total.delivery_ms.insert(total.delivery_ms.end(), r.delivery_ms.begin(),
                               r.delivery_ms.end());
      total.frames += r.frames;
      total.body_bytes += r.body_bytes;
    }
  }

  // Byte-identical reassembly: each view's verifier's delta-built canvas
  // must equal its auditor's full-body decode wherever both saw the same
  // cycle.
  std::size_t compared = 0;
  for (int v = 0; v < 2; ++v) {
    std::size_t matched = 0;
    const ClientResult& verifier = results[static_cast<std::size_t>(v)];
    for (const auto& [cycle, crc] : verifier.fingerprints) {
      const auto it = audits[v].fingerprints.find(cycle);
      if (it == audits[v].fingerprints.end()) continue;
      ++matched;
      ++total.attempted;
      if (it->second != crc) {
        total.fail(view_of(v) + " canvas differs from the full frame at " +
                   "cycle " + std::to_string(cycle));
      }
    }
    if (matched == 0) total.fail(view_of(v) + ": no canvas cross-checked");
    compared += matched;
  }
  const std::uint64_t frames_published = seq1 - seq0;
  std::fprintf(stderr,
               "steer_bench: %s seed %llu: %zu deliveries, %zu steers, "
               "%llu frames published, %zu canvases cross-checked\n",
               opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
               total.delivery_ms.size(), steerer.steer_ms.size(),
               static_cast<unsigned long long>(frames_published), compared);

  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics.push_back({"steer_ms", median(steerer.steer_ms), "ms"});
    metrics.push_back({"delivery_ms", median(total.delivery_ms), "ms"});
    // From the publish stamps rather than a frame count, which would move
    // in whole frames per window.
    const std::vector<double>& stamps = audits[0].published_ms;
    metrics.push_back(
        {"frames_per_s",
         stamps.size() > 1 ? 1000.0 * static_cast<double>(stamps.size() - 1) /
                                 (stamps.back() - stamps.front())
                           : 0.0,
         "1/s"});
    metrics.push_back(
        {"bytes_per_frame",
         total.frames ? static_cast<double>(total.body_bytes) /
                            static_cast<double>(total.frames)
                      : 0.0,
         "B"});
  } else {
    ClientResult hop_out;
    const std::vector<double> hops =
        measure_relay_hop(stack.origin_port, hop_out);
    total.attempted += hops.size();
    total.failed += hop_out.failed;
    if (hop_out.failed > 0) {
      std::fprintf(stderr, "steer_bench: relay hop: %s\n",
                   hop_out.first_error.c_str());
    }
    const auto& audited = audits[0].fingerprints;
    const std::int64_t last_cycle =
        audited.empty() ? kReplayFrames : audited.rbegin()->first;
    stack.stop();

    Trace trace;
    std::map<std::string, std::vector<double>> ratios;
    replay_frame_path(steerer.steers, last_cycle, trace, ratios);
    if (!opt.trace_out.empty()) trace.write(opt.trace_out);
    const auto us = [&](const char* name) {
      return median(trace.durations_us(name));
    };
    const auto ms = [&](const char* name) { return us(name) / 1000.0; };
    metrics.push_back({"sim_step_ms", ms("sim_step"), "ms"});
    metrics.push_back({"frame_build_ms", ms("frame_build"), "ms"});
    metrics.push_back({"filter_ms", ms("filter"), "ms"});
    metrics.push_back({"transform_ms", ms("transform"), "ms"});
    metrics.push_back({"iso_frame_build_ms", ms("iso_frame_build"), "ms"});
    metrics.push_back({"iso_transform_ms", ms("iso_transform"), "ms"});
    metrics.push_back({"render_ms", ms("iso_render"), "ms"});
    metrics.push_back({"tile_diff_us", us("tile_diff"), "us"});
    metrics.push_back({"tile_coalesce_us", us("tile_coalesce"), "us"});
    metrics.push_back(
        {"dirty_fraction", median(ratios["dirty_fraction"]), "ratio"});
    metrics.push_back({"dirty_rects", median(ratios["dirty_rects"]), "count"});
    metrics.push_back({"rect_encode_us", us("rect_encode"), "us"});
    metrics.push_back({"png_encode_us", us("png_encode"), "us"});
    metrics.push_back({"deflate_us", us("deflate"), "us"});
    metrics.push_back(
        {"compression_ratio", median(ratios["compression_ratio"]), "ratio"});
    metrics.push_back({"base64_us", us("base64"), "us"});
    metrics.push_back({"body_build_us", us("body_build"), "us"});
    metrics.push_back({"hub_dispatch_ms", median(steerer.dispatch_ms), "ms"});
    metrics.push_back({"state_rtt_us", median(probes.state_rtt_us), "us"});
    metrics.push_back({"window_hit_us", median(probes.window_hit_us), "us"});
    metrics.push_back(
        {"hub_served_per_s", (served1 - served0) / elapsed_s, "1/s"});
    metrics.push_back(
        {"origin_bytes_per_frame",
         frames_published
             ? (bytes1 - bytes0) / static_cast<double>(frames_published)
             : 0.0,
         "B"});
    metrics.push_back({"relay_hop_ms", median(hops), "ms"});
  }

  const bool correct = total.failed == 0 && compared > 0 &&
                       !steerer.steer_ms.empty() && !total.delivery_ms.empty();
  std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(total.attempted) +
                     ", \"failed\": " + std::to_string(total.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char entry[160];
    std::snprintf(entry, sizeof(entry),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    line += entry;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      opt.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "steer_bench: missing value for %s\n", flag.c_str());
      return 2;
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(value);
    } else if (flag == "--trace") {
      opt.trace = std::atoi(value) != 0;
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else {
      std::fprintf(stderr, "steer_bench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (opt.seconds <= 0.0) {
    std::fprintf(stderr, "steer_bench: --seconds must be positive\n");
    return 2;
  }
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "steer_bench: %s\n", e.what());
    return 1;
  }
}
