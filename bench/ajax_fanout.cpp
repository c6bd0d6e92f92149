// Fan-out load harness for the Ajax long-poll hub.
//
// Drives N in-process HTTP clients (up to thousands) against one
// AjaxFrontEnd, every client long-polling /api/poll?since=N&delta=1 (or
// riding /api/stream) over a persistent keep-alive connection: the browser
// behaviour of Section 5.1 at a scale no browser farm provides. Reports, as
// JSON per client count: publish-to-delivery latency percentiles, poll
// round-trip percentiles, frame throughput, bytes per quality tier, and
// gap/timeout/error counts. The scaling claim of the paper ("any number of
// clients") is measured here, not asserted.
//
// Every client runs on the epoll fleet (bench/epoll_client.hpp): one
// load-generator thread however many clients, so generator scheduling
// jitter does not show up as tail latency attributed to the server. Every
// round of a server-backed scenario goes through measure_round, which also
// samples the process's fd/thread/RSS peaks and the origin's connections
// and egress while the fleet runs.
//
// The scenarios are the rows of kScenarios; each runs its rounds once per
// client count and may add a comparison of them. Every round carries
// `scenario`, `variant` (which side of the comparison it is), `clients`,
// the `server_threads` it ran under and the `bench_threads` beside them;
// scripts/bench_delta.py matches rounds across runs on (scenario, variant,
// clients).
//
// Usage: ajax_fanout [--scenario plain|mixed|fanout|delta|shard|transport|
//                     multireactor|relay|congestion]
//                    [--clients 64,256,512] [--duration-s S]
//                    [--slow-fraction F] [--frame-interval-s S] [--relays N]
#include <dirent.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "epoll_client.hpp"
#include "netsim/cross_traffic.hpp"
#include "netsim/link.hpp"
#include "netsim/simulator.hpp"
#include "relay/relay.hpp"
#include "transport/congestion_controller.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "web/frontend.hpp"
#include "web/http.hpp"
#include "web/session.hpp"

namespace {

using benchweb::ClientResult;
using benchweb::ClientSpec;
using benchweb::EpollClientFleet;
using benchweb::bench_now_unix_ms;
using ricsa::util::Json;

/// Raise RLIMIT_NOFILE to its hard limit: a 4k-client round needs ~8k fds
/// (both ends are in this process), far above the usual 1024 soft default.
void raise_fd_limit() {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) == 0 && lim.rlim_cur < lim.rlim_max) {
    lim.rlim_cur = lim.rlim_max;
    ::setrlimit(RLIMIT_NOFILE, &lim);
  }
}

std::size_t count_open_fds() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  std::size_t count = 0;
  while (::readdir(dir) != nullptr) ++count;
  ::closedir(dir);
  return count > 2 ? count - 2 : 0;  // drop "." and ".."
}

/// Value of a "Key:   1234 kB"-style line in /proc/self/status, or 0.
long proc_status_value(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long value = 0;
  const std::size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0 && line[key_len] == ':') {
      value = std::atol(line + key_len + 1);
      break;
    }
  }
  std::fclose(f);
  return value;
}

double percentile(std::vector<double>& xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

Json latency_json(std::vector<double>& xs) {
  Json out;
  out["p50_ms"] = percentile(xs, 50);
  out["p90_ms"] = percentile(xs, 90);
  out["p99_ms"] = percentile(xs, 99);
  out["max_ms"] = xs.empty() ? 0.0 : *std::max_element(xs.begin(), xs.end());
  return out;
}

/// `block`'s p99 in a round, or null when the round has no such block (a
/// round whose clients are all slow has no fast-client percentiles).
Json p99_of(const Json& round, const char* block) {
  return round.contains(block) ? round.at(block).at("p99_ms") : Json();
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void accumulate(const ClientResult& r, ClientResult& total) {
  total.delivery_ms.insert(total.delivery_ms.end(), r.delivery_ms.begin(),
                           r.delivery_ms.end());
  total.rtt_ms.insert(total.rtt_ms.end(), r.rtt_ms.begin(), r.rtt_ms.end());
  total.frames += r.frames;
  total.polls += r.polls;
  total.gaps += r.gaps;
  total.skips += r.skips;
  total.timeouts += r.timeouts;
  total.errors += r.errors;
  total.bytes += r.bytes;
  total.wire_bytes += r.wire_bytes;
  total.tile_frames += r.tile_frames;
  total.tiles_received += r.tiles_received;
  total.image_frames += r.image_frames;
  total.delta_breaks += r.delta_breaks;
  for (std::size_t t = 0; t < 3; ++t) {
    total.tier_frames[t] += r.tier_frames[t];
    total.tier_bytes[t] += r.tier_bytes[t];
  }
  total.reconnects += std::max(0, r.reconnects);
  total.errors_503 += r.errors_503;
  total.errors_http += r.errors_http;
  total.errors_parse += r.errors_parse;
  total.errors_io += r.errors_io;
}

void add_stats(ricsa::web::FrameHub::Stats& sum,
               const ricsa::web::FrameHub::Stats& s) {
  sum.published += s.published;
  sum.served += s.served;
  sum.timeouts += s.timeouts;
  sum.waiting_peak = std::max(sum.waiting_peak, s.waiting_peak);
  sum.image_encodes += s.image_encodes;
  sum.preencoded_publishes += s.preencoded_publishes;
  sum.image_bytes_in += s.image_bytes_in;
  sum.image_bytes_out += s.image_bytes_out;
}

/// Sum of the hub stats of every view a registry serves.
ricsa::web::FrameHub::Stats hub_totals(
    const ricsa::web::HubRegistry& registry) {
  ricsa::web::FrameHub::Stats sum;
  for (const std::string& name : registry.view_names()) {
    if (const auto hub = registry.find(name)) add_stats(sum, hub->stats());
  }
  return sum;
}

/// What the origin has published, served and sent so far.
struct OriginCounters {
  ricsa::web::FrameHub::Stats hubs;
  std::uint64_t bytes_sent = 0;
  std::uint64_t requests_served = 0;
};

OriginCounters origin_counters(const ricsa::web::AjaxFrontEnd& origin) {
  return {hub_totals(origin.registry()), origin.server().bytes_sent(),
          origin.server().requests_served()};
}

/// Runs `tick` every `period_s` on a thread of its own until destroyed.
class Ticker {
 public:
  Ticker(double period_s, std::function<void()> tick)
      : thread_([this, period_s, tick = std::move(tick)] {
          while (running_.load()) {
            tick();
            std::this_thread::sleep_for(
                std::chrono::duration<double>(period_s));
          }
        }) {}
  ~Ticker() {
    running_.store(false);
    thread_.join();
  }
  Ticker(const Ticker&) = delete;
  Ticker& operator=(const Ticker&) = delete;

 private:
  std::atomic<bool> running_{true};
  std::thread thread_;
};

/// One /api/view azimuth step per call, for a Ticker at frame cadence:
/// every frame then renders a different image (the live-visualization
/// regime the tier pipeline targets), instead of the byte-identical PNGs a
/// converged tiny simulation produces.
std::function<void()> orbit_step(int port) {
  auto http = std::make_shared<ricsa::web::HttpClient>(port);
  return [http, k = 0]() mutable {
    const std::string body =
        "{\"azimuth\": " + std::to_string(0.7 + 0.031 * (k++ % 100)) + "}";
    try {
      http->post("/api/view", body);
    } catch (const std::exception&) {
    }
  };
}

/// The command line, with the scenario's defaults filled in.
struct Options {
  std::vector<int> clients;
  double duration_s = 0.0;
  double slow_fraction = 0.0;
  double frame_interval_s = 0.0;
  int relays = 4;
};

/// The origin under test and the settings every round of the run shares.
struct Bench {
  Options opt;
  ricsa::web::FrontEndConfig config;
  std::unique_ptr<ricsa::web::AjaxFrontEnd> frontend;
  int port = 0;

  /// Replace the front end with a fresh one built from `config`: sessions
  /// left behind by one round (idle expiry is 60 s), its hub window and its
  /// peaks must not leak into the next.
  void restart() {
    frontend.reset();
    frontend = std::make_unique<ricsa::web::AjaxFrontEnd>(config);
    port = frontend->start();
    // Let the monitor loop publish its first frames before measuring.
    while (frontend->frame_seq() < 3) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    std::fprintf(stderr,
                 "[ajax_fanout] hub on port %d, %zu reactor(s), frame "
                 "interval %.0f ms\n",
                 port, frontend->server().reactor_count(),
                 opt.frame_interval_s * 1e3);
  }

  /// Think time of a slow consumer: ~3 frame intervals, tied to the
  /// cadence so the cohort stays genuinely slower than publication at any
  /// --frame-interval-s (a fixed delay under the interval would make it
  /// indistinguishable from the fast one).
  double slow_delay_s() const {
    return std::max(0.15, 3.0 * opt.frame_interval_s);
  }

  /// `n` long-poll clients: the first `slow_fraction` of them slow
  /// consumers, and `paced_fraction` of them, spread evenly through both
  /// cohorts, with a session identity of their own (adaptive pacing).
  /// Identities are fresh per call: reusing one would carry a round's
  /// adapted tier into the next.
  std::vector<ClientSpec> clients(int n, double slow_fraction = 0.0,
                                  double paced_fraction = 0.0) {
    static int round = 0;
    ++round;
    std::vector<ClientSpec> specs(static_cast<std::size_t>(n));
    const int n_slow = static_cast<int>(slow_fraction * n);
    for (int i = 0; i < n; ++i) {
      ClientSpec& spec = specs[static_cast<std::size_t>(i)];
      if (i < n_slow) spec.inter_poll_delay_s = slow_delay_s();
      if (static_cast<int>(static_cast<double>(i) * paced_fraction) !=
          static_cast<int>(static_cast<double>(i + 1) * paced_fraction)) {
        spec.client_id =
            "bench-r" + std::to_string(round) + "-c" + std::to_string(i);
      }
    }
    return specs;
  }
};

/// One round of a server-backed scenario.
struct Round {
  Round(std::string variant, std::vector<ClientSpec> specs, bool orbit = false)
      : variant(std::move(variant)), specs(std::move(specs)), orbit(orbit) {}

  std::string variant;
  std::vector<ClientSpec> specs;
  /// Drive /api/view azimuth changes at frame cadence during the round.
  bool orbit = false;
  /// Relay nodes the specs' ports point into; their threads join the
  /// round's server budget and their hubs its relay-tier roll-up.
  std::vector<ricsa::relay::RelayNode*> relays;
};

/// Threads of one relay node besides its reactors: the upstream
/// subscriber and the steering forwarder.
constexpr std::size_t kRelayOwnThreads = 2;

Json measure_round(Bench& b, const Round& round) {
  const ricsa::web::AjaxFrontEnd& origin = *b.frontend;
  std::fprintf(stderr, "[ajax_fanout]   %s: %zu clients for %.1f s...\n",
               round.variant.c_str(), round.specs.size(), b.opt.duration_s);
  // Let the server reap the previous round's connections first: starting a
  // new fleet while the old one's FINs are still queued would transiently
  // double the connection count and 503 the overlap. Each relay keeps its
  // one upstream connection.
  for (int i = 0;
       i < 300 && origin.server().connections_open() > round.relays.size();
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const OriginCounters before = origin_counters(origin);
  OriginCounters after;
  std::size_t peak_fds = 0;
  long peak_threads = 0;
  std::size_t peak_connections = 0;
  std::vector<ClientResult> results;
  double elapsed_s = 0.0;
  {
    // Peaks *during* the round: both ends of every connection and every
    // thread of the bench live in this process.
    Ticker sampler(0.1, [&] {
      peak_fds = std::max(peak_fds, count_open_fds());
      peak_threads = std::max(peak_threads, proc_status_value("Threads"));
      peak_connections =
          std::max(peak_connections, origin.server().connections_open());
    });
    std::optional<Ticker> orbit;
    if (round.orbit) orbit.emplace(b.opt.frame_interval_s, orbit_step(b.port));
    const double t0 = bench_now_unix_ms();
    results = EpollClientFleet(b.port, round.specs).run(b.opt.duration_s);
    elapsed_s = (bench_now_unix_ms() - t0) / 1000.0;
    // The round ends with the fleet, not with the helpers' last sleep:
    // polls left parked at the origin are answered at the next publish.
    after = origin_counters(origin);
  }

  struct ViewTally {
    ClientResult result;
    int clients = 0;
    bool slow = false;
  };
  ClientResult total;
  // Prompt clients only: the hub's own fan-out latency, not the
  // client-chosen think time.
  std::vector<double> fast_delivery_ms;
  std::map<std::string, ViewTally> views;
  std::uint64_t min_frames = results.empty() ? 0 : results.front().frames;
  int n_slow = 0;
  int n_paced = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ClientSpec& spec = round.specs[i];
    const bool slow = spec.inter_poll_delay_s > 0.0;
    accumulate(results[i], total);
    if (!slow) {
      fast_delivery_ms.insert(fast_delivery_ms.end(),
                              results[i].delivery_ms.begin(),
                              results[i].delivery_ms.end());
    }
    n_slow += slow ? 1 : 0;
    n_paced += spec.client_id.empty() ? 0 : 1;
    min_frames = std::min(min_frames, results[i].frames);
    if (!spec.view.empty()) {
      ViewTally& view = views[spec.view];
      accumulate(results[i], view.result);
      ++view.clients;
      view.slow = view.slow || slow;
    }
  }

  Json out;
  out["variant"] = round.variant;
  out["clients"] = static_cast<int>(round.specs.size());
  {
    // The server-side thread budget: the reactor loops, which also run the
    // route handlers and every hub shard, the session's render pool and the
    // monitor loop, plus each relay's reactors, subscriber and forwarder.
    // It is constant in the client count and the view count.
    const std::size_t reactors = origin.server().reactor_count();
    const std::size_t session_pool = origin.session_pool_threads();
    std::size_t relay_threads = 0;
    for (ricsa::relay::RelayNode* relay : round.relays) {
      relay_threads += relay->server().reactor_count() + kRelayOwnThreads;
    }
    Json threads;
    threads["reactors"] = reactors;
    threads["session_pool"] = session_pool;
    threads["monitor_loop"] = 1;
    threads["relays"] = relay_threads;
    threads["total"] = reactors + session_pool + 1 + relay_threads;
    out["server_threads"] = threads;
    // The bench's own: the fleet (this thread), the sampler and, where one
    // runs, the orbit driver.
    out["bench_threads"] = round.orbit ? 3 : 2;
  }
  out["slow_clients"] = n_slow;
  out["paced_clients"] = n_paced;
  out["duration_s"] = elapsed_s;
  out["frames_published"] =
      static_cast<double>(after.hubs.published - before.hubs.published);
  out["polls"] = static_cast<double>(total.polls);
  out["frames_delivered"] = static_cast<double>(total.frames);
  out["frames_delivered_min_per_client"] = static_cast<double>(min_frames);
  out["deliveries_per_sec"] =
      static_cast<double>(total.frames) / std::max(1e-9, elapsed_s);
  out["gaps"] = static_cast<double>(total.gaps);
  out["pacing_skips"] = static_cast<double>(total.skips);
  out["timeouts"] = static_cast<double>(total.timeouts);
  out["errors"] = static_cast<double>(total.errors);
  {
    Json errs;
    errs["http_503"] = static_cast<double>(total.errors_503);
    errs["http_other"] = static_cast<double>(total.errors_http);
    errs["parse"] = static_cast<double>(total.errors_parse);
    errs["io"] = static_cast<double>(total.errors_io);
    out["error_breakdown"] = errs;
  }
  out["client_reconnects"] = static_cast<double>(total.reconnects);
  out["bytes_total"] = static_cast<double>(total.bytes);
  out["bandwidth_Bps"] =
      static_cast<double>(total.bytes) / std::max(1e-9, elapsed_s);
  out["bytes_per_frame"] = ratio(static_cast<double>(total.bytes),
                                 static_cast<double>(total.frames));
  // Transport envelope cost: everything on the wire that is not frame
  // body (request lines, response headers, chunk and SSE event framing),
  // amortized per delivered frame.
  out["wire_bytes_total"] = static_cast<double>(total.wire_bytes);
  out["overhead_bytes_per_frame"] =
      ratio(static_cast<double>(total.wire_bytes - total.bytes),
            static_cast<double>(total.frames));
  {
    Json image_delta;
    image_delta["tile_frames"] = static_cast<double>(total.tile_frames);
    image_delta["tiles_received"] = static_cast<double>(total.tiles_received);
    image_delta["full_image_frames"] = static_cast<double>(total.image_frames);
    image_delta["delta_breaks"] = static_cast<double>(total.delta_breaks);
    out["image_delta"] = image_delta;
  }
  {
    static const char* kTierNames[3] = {"full", "half", "state"};
    Json tiers;
    for (std::size_t t = 0; t < 3; ++t) {
      Json tier;
      tier["frames"] = static_cast<double>(total.tier_frames[t]);
      tier["bytes"] = static_cast<double>(total.tier_bytes[t]);
      tier["bandwidth_Bps"] =
          static_cast<double>(total.tier_bytes[t]) / std::max(1e-9, elapsed_s);
      tiers[kTierNames[t]] = tier;
    }
    out["tiers"] = tiers;
  }
  out["delivery_latency"] = latency_json(total.delivery_ms);
  if (!fast_delivery_ms.empty()) {
    out["delivery_latency_fast_clients"] = latency_json(fast_delivery_ms);
  }
  out["poll_rtt"] = latency_json(total.rtt_ms);
  // Per-view breakdown, the cross-shard isolation evidence: every view
  // reports its own gap/error/latency numbers.
  if (!views.empty()) {
    Json by_view;
    for (auto& [name, view] : views) {
      Json v;
      v["clients"] = view.clients;
      v["slow"] = view.slow;
      v["frames"] = static_cast<double>(view.result.frames);
      v["gaps"] = static_cast<double>(view.result.gaps);
      v["errors"] = static_cast<double>(view.result.errors);
      v["timeouts"] = static_cast<double>(view.result.timeouts);
      v["bytes"] = static_cast<double>(view.result.bytes);
      v["delivery_latency"] = latency_json(view.result.delivery_ms);
      by_view[name] = v;
    }
    out["views"] = by_view;
  }
  {
    Json hub;
    hub["waiting_peak"] = static_cast<double>(after.hubs.waiting_peak);
    hub["served"] = static_cast<double>(after.hubs.served - before.hubs.served);
    hub["hub_timeouts"] =
        static_cast<double>(after.hubs.timeouts - before.hubs.timeouts);
    out["hub"] = hub;
  }
  {
    // The codec's own ratio over this round's publishes: raw framebuffer
    // bytes handed to the PNG encoder against the PNG bytes it produced,
    // across every full-frame and rect encode. The wire bytes above also
    // carry base64 and JSON framing.
    const double in = static_cast<double>(after.hubs.image_bytes_in -
                                          before.hubs.image_bytes_in);
    const double png = static_cast<double>(after.hubs.image_bytes_out -
                                           before.hubs.image_bytes_out);
    Json compression;
    compression["raw_bytes_in"] = in;
    compression["png_bytes_out"] = png;
    compression["compression_ratio"] = ratio(in, png);
    out["compression"] = compression;
  }
  // What the origin paid for this round: the relay tree's whole point.
  out["origin_connections_peak"] = static_cast<double>(peak_connections);
  out["origin_bytes_sent"] =
      static_cast<double>(after.bytes_sent - before.bytes_sent);
  out["origin_requests_served"] =
      static_cast<double>(after.requests_served - before.requests_served);
  if (!round.relays.empty()) {
    // Relay-tier roll-up: forwarding counters plus the never-encodes proof
    // (image_encodes must be zero; every local publish pre-encoded).
    ricsa::web::FrameHub::Stats hubs;
    std::uint64_t resyncs = 0;
    std::uint64_t reconnects = 0;
    std::uint64_t epoch_changes = 0;
    std::uint64_t relay_bytes = 0;
    for (ricsa::relay::RelayNode* relay : round.relays) {
      add_stats(hubs, hub_totals(relay->registry()));
      for (const auto& [view, s] : relay->subscriber().stats()) {
        resyncs += s.resyncs;
        reconnects += s.reconnects;
        epoch_changes += s.epoch_changes;
      }
      relay_bytes += relay->server().bytes_sent();
    }
    Json tier;
    tier["nodes"] = static_cast<int>(round.relays.size());
    tier["image_encodes"] = static_cast<double>(hubs.image_encodes);
    tier["preencoded_publishes"] =
        static_cast<double>(hubs.preencoded_publishes);
    tier["frames_published"] = static_cast<double>(hubs.published);
    tier["resyncs"] = static_cast<double>(resyncs);
    tier["upstream_reconnects"] = static_cast<double>(reconnects);
    tier["epoch_changes"] = static_cast<double>(epoch_changes);
    tier["bytes_sent_total"] = static_cast<double>(relay_bytes);
    out["relay_tier"] = tier;
  }
  Json process;
  process["peak_fds"] = static_cast<double>(peak_fds);
  process["peak_threads"] = static_cast<double>(peak_threads);
  process["peak_rss_kb"] = static_cast<double>(proc_status_value("VmHWM"));
  out["process"] = process;
  return out;
}

/// One client count's rounds and, where the scenario compares them, the
/// comparison (null otherwise).
struct Outcome {
  std::vector<Json> rounds;
  Json comparison;
};

Outcome run_plain(Bench& b, int n) {
  return {{measure_round(b, {"unpaced", b.clients(n, b.opt.slow_fraction)})},
          Json()};
}

/// The same fast/slow mix on an orbiting isosurface twice: adaptive pacing
/// off (every browser gets the full stream), then on. Slow consumers should
/// stop inflating total bytes sent without costing the fast clients
/// latency. The adaptive round's paced clients skip frames, so it is also
/// where cursor-anchored deltas meet real pacing skips (delta_breaks is the
/// protocol-correctness signal).
Outcome run_mixed(Bench& b, int n) {
  Json baseline = measure_round(
      b, {"baseline", b.clients(n, b.opt.slow_fraction, 0.0), true});
  Json adaptive = measure_round(
      b, {"adaptive", b.clients(n, b.opt.slow_fraction, 1.0), true});
  Json cmp;
  const double bytes_b = baseline.at("bytes_total").as_number();
  const double bytes_a = adaptive.at("bytes_total").as_number();
  cmp["bytes_baseline"] = bytes_b;
  cmp["bytes_adaptive"] = bytes_a;
  cmp["bytes_saved_fraction"] = ratio(bytes_b - bytes_a, bytes_b);
  cmp["fast_p99_ms_baseline"] =
      p99_of(baseline, "delivery_latency_fast_clients");
  cmp["fast_p99_ms_adaptive"] =
      p99_of(adaptive, "delivery_latency_fast_clients");
  cmp["adaptive_tiers"] = adaptive.at("tiers");
  return {{std::move(baseline), std::move(adaptive)}, cmp};
}

/// Thousands of clients, a quarter of them slow and half of them paced,
/// against one reactor: the server thread budget stays constant while the
/// client count scales.
Outcome run_fanout(Bench& b, int n) {
  return {{measure_round(
              b, {"half-paced", b.clients(n, b.opt.slow_fraction, 0.5)})},
          Json()};
}

/// The same prompt, unpaced clients twice on the localized-change workload:
/// full-frame resends forced (full=1), then deltas accepted. Sequential
/// polls make each delta exactly one frame's changed-region rect.
Outcome run_delta(Bench& b, int n) {
  Round full{"full", b.clients(n), true};
  for (ClientSpec& spec : full.specs) spec.force_full = true;
  Json full_round = measure_round(b, full);
  Json delta_round = measure_round(b, {"delta", b.clients(n), true});
  Json cmp;
  const double full_bpf = full_round.at("bytes_per_frame").as_number();
  const double delta_bpf = delta_round.at("bytes_per_frame").as_number();
  cmp["bytes_per_frame_full"] = full_bpf;
  cmp["bytes_per_frame_delta"] = delta_bpf;
  cmp["bytes_saved_fraction"] = ratio(full_bpf - delta_bpf, full_bpf);
  cmp["tile_frames"] = delta_round.at("image_delta").at("tile_frames");
  cmp["tiles_received"] = delta_round.at("image_delta").at("tiles_received");
  cmp["delta_breaks"] = delta_round.at("image_delta").at("delta_breaks");
  cmp["gaps"] = delta_round.at("gaps");
  cmp["errors"] = delta_round.at("errors");
  cmp["compression_ratio"] =
      delta_round.at("compression").at("compression_ratio");
  return {{std::move(full_round), std::move(delta_round)}, cmp};
}

/// Clients split round-robin across the views; every client of `slow_view`
/// (when set) is a slow consumer. Unpaced: per-view gap counts are the
/// correctness signal.
std::vector<ClientSpec> shard_clients(Bench& b,
                                      const std::vector<std::string>& views,
                                      int n, const std::string& slow_view) {
  std::vector<ClientSpec> specs = b.clients(n);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].view = views[i % views.size()];
    if (specs[i].view == slow_view) {
      specs[i].inter_poll_delay_s = b.slow_delay_s();
    }
  }
  return specs;
}

/// The same view split twice: every view prompt, then one view's clients
/// slow. Shard isolation means the other views' fast p99 must not move; a
/// single shared hub window would drag it up with the slow view's replay
/// traffic.
Outcome run_shard(Bench& b, int n) {
  std::vector<std::string> views = {"main"};
  for (const ricsa::web::ViewSpec& view : b.config.views) {
    views.push_back(view.name);
  }
  const std::string slow_view = views.back();
  Json all_fast =
      measure_round(b, {"all-fast", shard_clients(b, views, n, "")});
  Json perturbed =
      measure_round(b, {"slow-view", shard_clients(b, views, n, slow_view)});
  Json cmp;
  cmp["view_count"] = static_cast<int>(views.size());
  cmp["slow_view"] = slow_view;
  cmp["gaps_all_fast"] = all_fast.at("gaps");
  cmp["gaps_with_slow_view"] = perturbed.at("gaps");
  cmp["errors_all_fast"] = all_fast.at("errors");
  cmp["errors_with_slow_view"] = perturbed.at("errors");
  cmp["fast_p99_ms_all_fast"] =
      p99_of(all_fast, "delivery_latency_fast_clients");
  cmp["fast_p99_ms_with_slow_view"] =
      p99_of(perturbed, "delivery_latency_fast_clients");
  // The "zero gaps on every view" acceptance check in one place.
  Json by_view;
  for (const auto& [name, v] : perturbed.at("views").as_object()) {
    Json entry;
    entry["slow"] = v.at("slow");
    entry["gaps"] = v.at("gaps");
    entry["errors"] = v.at("errors");
    entry["p99_ms"] = v.at("delivery_latency").at("p99_ms");
    by_view[name] = entry;
  }
  cmp["views"] = by_view;
  return {{std::move(all_fast), std::move(perturbed)}, cmp};
}

/// The same frame source and the same prompt, unpaced fleet (pacing skips
/// and think time would only blur the per-frame overhead) twice: long-poll,
/// then a fresh front end and the SSE push channel. The body stream is the
/// same on both; the envelope cost per frame is the differing number.
Outcome run_transport(Bench& b, int n) {
  Json poll = measure_round(b, {"long-poll", b.clients(n)});
  b.restart();
  Round stream{"sse", b.clients(n)};
  for (ClientSpec& spec : stream.specs) spec.sse = true;
  Json sse = measure_round(b, stream);
  Json cmp;
  cmp["frames_long_poll"] = poll.at("frames_delivered");
  cmp["frames_sse"] = sse.at("frames_delivered");
  cmp["gaps_long_poll"] = poll.at("gaps");
  cmp["gaps_sse"] = sse.at("gaps");
  cmp["errors_long_poll"] = poll.at("errors");
  cmp["errors_sse"] = sse.at("errors");
  cmp["delta_breaks_long_poll"] = poll.at("image_delta").at("delta_breaks");
  cmp["delta_breaks_sse"] = sse.at("image_delta").at("delta_breaks");
  // The headline: long-poll pays a request line + response headers per
  // frame; SSE pays one subscription, then chunk + event framing.
  const double lp_ov = poll.at("overhead_bytes_per_frame").as_number();
  const double sse_ov = sse.at("overhead_bytes_per_frame").as_number();
  cmp["overhead_bytes_per_frame_long_poll"] = lp_ov;
  cmp["overhead_bytes_per_frame_sse"] = sse_ov;
  cmp["overhead_saved_fraction"] = ratio(lp_ov - sse_ov, lp_ov);
  cmp["delivery_p99_ms_long_poll"] = p99_of(poll, "delivery_latency");
  cmp["delivery_p99_ms_sse"] = p99_of(sse, "delivery_latency");
  cmp["sse_subscriptions"] = sse.at("polls");
  cmp["sse_keepalives"] = sse.at("timeouts");
  return {{std::move(poll), std::move(sse)}, cmp};
}

/// The multireactor scenario's reactor count (its setup hook sets it).
constexpr std::size_t kMultiReactors = 4;

/// The same prompt, unpaced fleet (raw serving capacity is the measurement)
/// three ways: kMultiReactors reactors at n clients, one reactor at n, one
/// at n / kMultiReactors. The headline is the multi/single deliveries/s
/// ratio at n; the quarter-load round shows one reactor is comfortable
/// there, so the scaling lives in the reactor count, not the workload.
Outcome run_multireactor(Bench& b, int n) {
  const int quarter = std::max(1, n / static_cast<int>(kMultiReactors));
  Json multi =
      measure_round(b, {std::to_string(kMultiReactors), b.clients(n)});
  b.config.reactors = 1;
  b.restart();
  Json single = measure_round(b, {"1", b.clients(n)});
  b.restart();
  Json quarter_load = measure_round(b, {"1", b.clients(quarter)});
  b.config.reactors = kMultiReactors;
  Json cmp;
  cmp["reactors"] = static_cast<int>(kMultiReactors);
  cmp["deliveries_per_sec_multi"] = multi.at("deliveries_per_sec");
  cmp["deliveries_per_sec_single"] = single.at("deliveries_per_sec");
  // >= 1 means the reactors bought real capacity; the acceptance target at
  // the full 8k fleet is >= 2.5x once a single reactor saturates.
  cmp["capacity_ratio"] = ratio(multi.at("deliveries_per_sec").as_number(),
                                single.at("deliveries_per_sec").as_number());
  cmp["gaps_multi"] = multi.at("gaps");
  cmp["gaps_single"] = single.at("gaps");
  cmp["errors_multi"] = multi.at("errors");
  cmp["errors_single"] = single.at("errors");
  cmp["timeouts_multi"] = multi.at("timeouts");
  cmp["timeouts_single"] = single.at("timeouts");
  cmp["delivery_p99_ms_multi"] = p99_of(multi, "delivery_latency");
  cmp["delivery_p99_ms_single"] = p99_of(single, "delivery_latency");
  cmp["clients_single_quarter"] = quarter;
  cmp["gaps_single_quarter"] = quarter_load.at("gaps");
  cmp["delivery_p99_ms_single_quarter"] =
      p99_of(quarter_load, "delivery_latency");
  return {{std::move(multi), std::move(single), std::move(quarter_load)},
          cmp};
}

/// The same prompt fleet twice: every client direct on the origin, then
/// spread evenly across --relays relay nodes that each subscribe to the
/// origin over one SSE connection (a depth-2 re-publish tree). The origin's
/// connections and egress are the headline; end clients must stay
/// gap-free and delta-consistent through the extra hop.
Outcome run_relay(Bench& b, int n) {
  const int relay_count = std::max(1, b.opt.relays);
  Json direct = measure_round(b, {"direct", b.clients(n)});

  std::vector<std::unique_ptr<ricsa::relay::RelayNode>> nodes;
  Round relayed{"relayed", b.clients(n)};
  for (int r = 0; r < relay_count; ++r) {
    ricsa::relay::RelayNodeConfig rc;
    rc.subscriber.upstream_port = b.port;
    rc.subscriber.views = {"main"};
    rc.subscriber.relay_id = "bench-relay-" + std::to_string(r);
    rc.max_connections =
        static_cast<std::size_t>(n / relay_count) + 128;
    nodes.push_back(std::make_unique<ricsa::relay::RelayNode>(rc));
    const int port = nodes.back()->start();
    for (std::size_t i = static_cast<std::size_t>(r);
         i < relayed.specs.size(); i += static_cast<std::size_t>(relay_count)) {
      relayed.specs[i].port = port;
    }
    relayed.relays.push_back(nodes.back().get());
  }
  // Wait for every relay's first forwarded frame: clients joining an empty
  // relay hub would measure the subscription ramp, not steady fan-out.
  for (const auto& node : nodes) {
    const auto hub = node->registry().find("main");
    for (int i = 0; i < 500 && (!hub || hub->seq() < 1); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  Json relayed_round = measure_round(b, relayed);
  for (const auto& node : nodes) node->stop();

  Json cmp;
  cmp["relay_fanout"] = relay_count;
  cmp["origin_connections_direct"] = direct.at("origin_connections_peak");
  cmp["origin_connections_relayed"] =
      relayed_round.at("origin_connections_peak");
  const double bytes_direct = direct.at("origin_bytes_sent").as_number();
  const double bytes_relayed =
      relayed_round.at("origin_bytes_sent").as_number();
  cmp["origin_bytes_direct"] = bytes_direct;
  cmp["origin_bytes_relayed"] = bytes_relayed;
  // How many times less the origin sends at the same end-client count
  // (acceptance: >= 4x at 4 relays x 256 clients).
  cmp["origin_bytes_reduction"] = ratio(bytes_direct, bytes_relayed);
  cmp["gaps_direct"] = direct.at("gaps");
  cmp["gaps_relayed"] = relayed_round.at("gaps");
  cmp["errors_relayed"] = relayed_round.at("errors");
  cmp["delta_breaks_relayed"] =
      relayed_round.at("image_delta").at("delta_breaks");
  cmp["delivery_p99_ms_direct"] = p99_of(direct, "delivery_latency");
  cmp["delivery_p99_ms_relayed"] = p99_of(relayed_round, "delivery_latency");
  // Forwarding without decoding: the tier must not have touched an
  // encoder.
  cmp["relay_image_encodes"] =
      relayed_round.at("relay_tier").at("image_encodes");
  cmp["relay_preencoded_publishes"] =
      relayed_round.at("relay_tier").at("preencoded_publishes");
  return {{std::move(direct), std::move(relayed_round)}, cmp};
}

/// One emulated browser of the congestion scenario: a production
/// ClientSession paced by the controller under test, its deliveries
/// serialized through its own netsim last-mile link (slow clients share
/// theirs with an on/off cross-traffic source).
struct CongestionClient {
  std::unique_ptr<ricsa::web::ClientSession> session;
  ricsa::netsim::Link* link = nullptr;  // owned by the round's link pool
  bool slow = false;
  std::uint64_t since = 0;
  std::uint64_t frames = 0;
  std::uint64_t skips = 0;
  std::uint64_t bytes = 0;
  std::uint64_t downgrades = 0;
  std::uint64_t upgrades = 0;
  ricsa::web::Tier last_tier = ricsa::web::Tier::kFull;
  std::vector<double> delivery_ms;
};

/// One controller's virtual-time round: n_clients long-poll sessions (the
/// slow fraction behind a congested last-mile) against an ideal publisher
/// at `cadence_s`, for `duration_s` *simulated* seconds. The serve loop
/// mirrors the origin server's: decide() at poll time (tier, not_before,
/// skip_to_latest), dispatch stamped at wire handoff, on_delivered() at
/// the link's delivery instant — so the controller sees exactly the RTT
/// bracket production code feeds it.
Json run_congestion_round(ricsa::transport::ControllerKind kind,
                          int n_clients, double slow_fraction,
                          double duration_s, double cadence_s) {
  namespace ns = ricsa::netsim;
  using ricsa::web::ClientSession;
  using ricsa::web::Tier;

  ns::Simulator sim;
  ricsa::web::PacingConfig pacing;
  pacing.frame_interval_s = cadence_s;
  pacing.controller.kind = kind;

  // Tier body sizes (bytes), mirroring the pacing test's full/half/state
  // ratio; the wire adds a fixed envelope per response.
  const std::size_t kTierBytes[3] = {20000, 6000, 900};
  const double kEnvelopeBytes = 160.0;

  const int n_slow = static_cast<int>(slow_fraction * n_clients);
  // Slow clients share a congested bottleneck in groups of four — a
  // branch-office uplink with competing cross traffic. Sharing is what
  // makes pacing causal: send faster than the group's fair share and the
  // standing queue (everyone's RTT) grows, which the delay laws see
  // immediately and utilization-only feedback sees only after deliveries
  // collapse. Fast clients get private ample links.
  constexpr int kSlowShare = 4;
  std::vector<std::unique_ptr<ns::Link>> links;
  std::vector<std::unique_ptr<ns::CrossTraffic>> crosses;
  std::vector<std::unique_ptr<CongestionClient>> clients;
  clients.reserve(static_cast<std::size_t>(n_clients));
  const auto make_link = [&](bool slow, int index) {
    ns::LinkConfig lc;
    // No random loss and a deep queue: congestion shows up as queueing
    // delay (the delay laws' signal) and collapsed utilization (RMSA's),
    // never as a wedged client.
    lc.queue_capacity_bytes = 1 << 20;
    if (slow) {
      // 250 KB/s for four clients: full tier at cadence wants 1.6 MB/s,
      // half tier wants 480 KB/s — the group can hold quality only by
      // stretching its pace, and the boundary is where probing laws flap.
      lc.bandwidth_Bps = 2.5e5;
      lc.prop_delay_s = 0.02;
    } else {
      lc.bandwidth_Bps = 2.5e6;
      lc.prop_delay_s = 0.005;
    }
    links.push_back(std::make_unique<ns::Link>(
        sim, lc,
        0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(index + 1)));
    ns::Link* link = links.back().get();
    if (slow) {
      ns::CrossTrafficConfig ct;
      ct.on_load = 0.5;
      ct.mean_on_s = 1.0;
      ct.mean_off_s = 1.0;
      crosses.push_back(std::make_unique<ns::CrossTraffic>(
          sim, *link, ct,
          0xd1b54a32d192ed03ull * static_cast<std::uint64_t>(index + 1)));
      crosses.back()->start();
    }
    return link;
  };
  ns::Link* shared_slow_link = nullptr;
  for (int i = 0; i < n_clients; ++i) {
    auto c = std::make_unique<CongestionClient>();
    c->slow = i < n_slow;
    if (c->slow) {
      if (i % kSlowShare == 0) shared_slow_link = make_link(true, i);
      c->link = shared_slow_link;
    } else {
      c->link = make_link(false, i);
    }
    c->session = std::make_unique<ClientSession>(
        pacing, "sim-" + std::to_string(i), "netsim", 0.0);
    clients.push_back(std::move(c));
  }

  // The ideal publisher: frame seq s exists from s * cadence onward.
  const auto latest_at = [cadence_s](double t) {
    return static_cast<std::uint64_t>(std::floor(t / cadence_s));
  };

  std::function<void(CongestionClient*)> poll =
      [&](CongestionClient* c) {
        if (sim.now() >= duration_s) return;
        const ClientSession::Decision d =
            c->session->decide(sim.now(), cadence_s);
        const double avail = static_cast<double>(c->since + 1) * cadence_s;
        const double serve_t =
            std::max({sim.now(), d.not_before_s, avail});
        sim.at(serve_t, [&, c, d] {
          if (sim.now() >= duration_s) return;
          std::uint64_t seq = c->since + 1;
          if (d.skip_to_latest) seq = std::max(seq, latest_at(sim.now()));
          const std::uint64_t skipped =
              (c->since != 0 && seq > c->since + 1) ? seq - c->since - 1 : 0;
          const std::size_t body =
              kTierBytes[static_cast<std::size_t>(d.tier)];
          const double published_t = static_cast<double>(seq) * cadence_s;
          c->session->note_dispatch(sim.now());
          ns::Packet p;
          p.seq = seq;
          p.wire_bytes = body + static_cast<std::size_t>(kEnvelopeBytes);
          c->link->send(p, [&, c, seq, skipped, body, published_t,
                            tier = d.tier](const ns::Packet&) {
            c->since = seq;
            ++c->frames;
            c->skips += skipped;
            c->bytes += body;
            c->delivery_ms.push_back((sim.now() - published_t) * 1e3);
            c->session->on_delivered(sim.now(), body, skipped, tier,
                                     cadence_s);
            const Tier now_tier = c->session->tier();
            if (now_tier != c->last_tier) {
              if (static_cast<int>(now_tier) > static_cast<int>(c->last_tier)) {
                ++c->downgrades;
              } else {
                ++c->upgrades;
              }
              c->last_tier = now_tier;
            }
            poll(c);
          });
        });
      };
  for (auto& c : clients) poll(c.get());
  // run_until (not run()): the cross-traffic sources schedule themselves
  // forever; the horizon is what ends the round.
  sim.run_until(duration_s);
  for (auto& ct : crosses) ct->stop();

  std::uint64_t flaps = 0, downgrades = 0, upgrades = 0, skips = 0;
  std::uint64_t frames = 0, bytes = 0, slow_bytes = 0;
  double slow_interval_sum = 0.0;
  std::vector<double> fast_delivery_ms, slow_delivery_ms;
  for (const auto& c : clients) {
    downgrades += c->downgrades;
    upgrades += c->upgrades;
    flaps += c->downgrades + c->upgrades;
    skips += c->skips;
    frames += c->frames;
    bytes += c->bytes;
    auto& sink = c->slow ? slow_delivery_ms : fast_delivery_ms;
    sink.insert(sink.end(), c->delivery_ms.begin(), c->delivery_ms.end());
    if (c->slow) {
      slow_bytes += c->bytes;
      slow_interval_sum += c->session->interval_s();
    }
  }

  Json out;
  out["variant"] = ricsa::transport::controller_kind_name(kind);
  out["clients"] = n_clients;
  out["slow_clients"] = n_slow;
  out["paced_clients"] = n_clients;
  out["duration_s"] = duration_s;
  out["frames_delivered"] = static_cast<double>(frames);
  out["pacing_skips"] = static_cast<double>(skips);
  out["bytes_total"] = static_cast<double>(bytes);
  // The headline pair: oscillation at the capacity boundary vs what the
  // prompt cohort pays for the slow cohort's law.
  out["tier_flaps"] = static_cast<double>(flaps);
  out["tier_downgrades"] = static_cast<double>(downgrades);
  out["tier_upgrades"] = static_cast<double>(upgrades);
  out["delivery_latency_fast_clients"] = latency_json(fast_delivery_ms);
  out["delivery_latency_slow_clients"] = latency_json(slow_delivery_ms);
  out["slow_goodput_Bps"] =
      static_cast<double>(slow_bytes) / std::max(1e-9, duration_s);
  out["slow_interval_s_mean"] =
      n_slow > 0 ? slow_interval_sum / n_slow : 0.0;
  return out;
}

/// The same fleet and WAN once per pacing law: rmsa is the paper's Eq. 1
/// baseline, gradient the delay-based law under gate, trendline rides
/// along for reference. The delay laws must hold slow clients steady where
/// utilization-only feedback probes and collapses, without costing prompt
/// clients latency. Virtual time and seeded PRNGs make it deterministic.
Outcome run_congestion(Bench& b, int n) {
  using ricsa::transport::ControllerKind;
  Outcome out;
  Json cmp;
  for (const ControllerKind kind :
       {ControllerKind::kRmsa, ControllerKind::kDelayGradient,
        ControllerKind::kTrendline}) {
    Json r = run_congestion_round(kind, n, b.opt.slow_fraction,
                                  b.opt.duration_s, b.opt.frame_interval_s);
    const std::string suffix = "_" + r.at("variant").as_string();
    cmp["tier_flaps" + suffix] = r.at("tier_flaps");
    cmp["fast_p99_ms" + suffix] = p99_of(r, "delivery_latency_fast_clients");
    cmp["slow_goodput_Bps" + suffix] = r.at("slow_goodput_Bps");
    out.rounds.push_back(std::move(r));
  }
  // The acceptance headline: the delay-gradient law holds slow clients
  // steady (fewer flaps) at equal-or-better fast-client latency.
  const double rmsa_flaps = cmp.at("tier_flaps_rmsa").as_number();
  cmp["flap_reduction_gradient_vs_rmsa"] = ratio(
      rmsa_flaps - cmp.at("tier_flaps_gradient").as_number(), rmsa_flaps);
  out.comparison = cmp;
  return out;
}

struct Scenario {
  const char* name;
  std::vector<int> clients;
  double frame_interval_s;
  double duration_s;
  /// Used when --slow-fraction is absent or not positive.
  double slow_fraction;
  /// Configures the front end; null for the scenario that runs no server.
  void (*setup)(ricsa::web::FrontEndConfig&);
  Outcome (*run)(Bench&, int clients);
};

void no_setup(ricsa::web::FrontEndConfig&) {}

/// An isosurface that exists at `size` px: it changes frame to frame as
/// the bow shock evolves and the view orbits, at a size where the client
/// mix, not loopback throughput, is what is measured.
void iso_view(ricsa::web::FrontEndConfig& config, int size) {
  config.session.viz.isovalue = 1.1f;
  config.session.viz.image_width = size;
  config.session.viz.image_height = size;
}

/// The default "main" view plus three fixed projections, each published
/// into its own hub shard every frame. Small images keep 4x per-frame
/// rendering CI-sized.
void shard_setup(ricsa::web::FrontEndConfig& config) {
  iso_view(config, 64);
  const float azimuths[3] = {1.6f, 2.8f, 4.1f};
  const char* names[3] = {"rho/iso", "pressure/iso", "energy/iso"};
  for (int v = 0; v < 3; ++v) {
    ricsa::web::ViewSpec spec;
    spec.name = names[v];
    spec.viz = config.session.viz;
    spec.camera.azimuth = azimuths[v];
    spec.camera.zoom = 1.0f + 0.2f * static_cast<float>(v);
    config.views.push_back(spec);
  }
}

// Defaults: the concurrency scenarios run at a 250 ms cadence, where the
// server (not loopback throughput) is what saturates first; delta is about
// bandwidth, so a handful of prompt clients is enough signal; congestion
// runs in virtual time, where 60 simulated seconds (several RMSA probe
// backoff cycles) cost nothing and half the fleet sits behind the
// congested last-mile.
const Scenario kScenarios[] = {
    {"plain", {64, 256, 512}, 0.05, 4.0, 0.0, no_setup, run_plain},
    {"mixed", {64, 256, 512}, 0.05, 4.0, 0.25,
     [](ricsa::web::FrontEndConfig& c) { iso_view(c, 128); }, run_mixed},
    {"fanout", {512, 4096}, 0.25, 4.0, 0.25, no_setup, run_fanout},
    {"delta", {32}, 0.05, 4.0, 0.0,
     [](ricsa::web::FrontEndConfig& c) { iso_view(c, 192); }, run_delta},
    {"shard", {512}, 0.25, 4.0, 0.0, shard_setup, run_shard},
    {"transport", {1024}, 0.25, 4.0, 0.0, no_setup, run_transport},
    {"multireactor", {8192}, 0.25, 4.0, 0.0,
     [](ricsa::web::FrontEndConfig& c) { c.reactors = kMultiReactors; },
     run_multireactor},
    {"relay", {1024}, 0.25, 4.0, 0.0, no_setup, run_relay},
    {"congestion", {32}, 0.05, 60.0, 0.5, nullptr, run_congestion},
};

int usage() {
  std::string names;
  for (const Scenario& s : kScenarios) {
    if (!names.empty()) names += '|';
    names += s.name;
  }
  std::fprintf(stderr,
               "usage: ajax_fanout [--scenario %s] [--clients 64,256,512]"
               " [--duration-s S] [--slow-fraction F] [--frame-interval-s S]"
               " [--relays N]\n",
               names.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  raise_fd_limit();
  std::string name = "plain";
  std::optional<std::vector<int>> clients;
  std::optional<double> duration_s;
  std::optional<double> frame_interval_s;
  Bench bench;
  Options& opt = bench.opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--clients") {
      clients.emplace();
      for (const std::string& tok : ricsa::util::split(next(), ',')) {
        clients->push_back(std::atoi(tok.c_str()));
      }
    } else if (arg == "--duration-s") {
      duration_s = std::atof(next().c_str());
    } else if (arg == "--slow-fraction") {
      opt.slow_fraction = std::atof(next().c_str());
    } else if (arg == "--frame-interval-s") {
      frame_interval_s = std::atof(next().c_str());
    } else if (arg == "--scenario") {
      name = next();
    } else if (arg == "--relays") {
      opt.relays = std::atoi(next().c_str());
    } else {
      return usage();
    }
  }
  const auto row =
      std::find_if(std::begin(kScenarios), std::end(kScenarios),
                   [&](const Scenario& s) { return name == s.name; });
  if (row == std::end(kScenarios)) {
    std::fprintf(stderr, "unknown --scenario '%s'\n", name.c_str());
    return usage();
  }
  const Scenario& scenario = *row;
  opt.clients = clients.value_or(scenario.clients);
  opt.duration_s = duration_s.value_or(scenario.duration_s);
  opt.frame_interval_s = frame_interval_s.value_or(scenario.frame_interval_s);
  if (opt.slow_fraction <= 0.0) opt.slow_fraction = scenario.slow_fraction;

  if (scenario.setup != nullptr) {
    ricsa::web::FrontEndConfig& config = bench.config;
    // Small grid: the hub, not the simulation, is under test.
    config.session.resolution = 16;
    config.session.cycles_per_frame = 1;
    config.frame_interval_s = opt.frame_interval_s;
    config.frame_window = 256;
    // Connections and pacing sessions for every client of the biggest
    // round.
    const int biggest = *std::max_element(opt.clients.begin(),
                                          opt.clients.end());
    config.max_connections = static_cast<std::size_t>(biggest) + 128;
    config.pacing.max_sessions = static_cast<std::size_t>(biggest) + 64;
    scenario.setup(config);
  }

  Json rounds{ricsa::util::JsonArray{}};
  Json comparisons{ricsa::util::JsonArray{}};
  for (const int n : opt.clients) {
    // A fresh front end per client count: one count's adapted sessions
    // and peak stats must not contaminate the next.
    if (scenario.setup != nullptr) bench.restart();
    std::fprintf(stderr, "[ajax_fanout] %s: %d clients (%.0f%% slow)\n",
                 scenario.name, n, opt.slow_fraction * 100);
    Outcome outcome = scenario.run(bench, n);
    for (Json& round : outcome.rounds) {
      round["scenario"] = scenario.name;
      rounds.as_array().push_back(std::move(round));
    }
    if (!outcome.comparison.is_null()) {
      outcome.comparison["scenario"] = scenario.name;
      outcome.comparison["clients"] = n;
      comparisons.as_array().push_back(std::move(outcome.comparison));
    }
  }
  bench.frontend.reset();

  Json report;
  report["bench"] = "ajax_fanout";
  report["scenario"] = scenario.name;
  report["frame_interval_s"] = opt.frame_interval_s;
  report["rounds"] = rounds;
  if (!comparisons.as_array().empty()) report["comparisons"] = comparisons;
  std::printf("%s\n", report.dump(1).c_str());
  return 0;
}
