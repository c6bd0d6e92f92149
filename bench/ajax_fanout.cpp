// Fan-out load harness for the Ajax long-poll hub.
//
// Drives N in-process HTTP clients (N up to 512 and beyond) against one
// AjaxFrontEnd, every client long-polling /api/poll?since=N&delta=1 over a
// persistent keep-alive connection — the browser behaviour of Section 5.1 at
// a scale no browser farm provides. Reports, as JSON per client count:
// publish-to-delivery latency percentiles (how stale is a frame by the time
// the slowest-served client holds it), poll round-trip percentiles, frame
// throughput, gap and timeout counts. The scaling claim of the paper
// ("any number of clients") is measured here, not asserted.
//
// The mixed scenario (--scenario mixed) runs every client count twice —
// once without client identities (baseline: every browser gets the full
// stream) and once with per-client adaptive pacing enabled — and reports
// per-tier delivery bandwidth plus the byte savings: slow consumers are
// downgraded to cheaper tiers instead of inflating total bytes sent, while
// fast-client delivery latency stays put.
//
// The fanout scenario (--scenario fanout) is the epoll-reactor scaling
// proof: thousands of concurrent long-poll clients (default 512 and 4096)
// in a mixed population — fast, slow, and adaptively paced — against one
// reactor-driven server. Besides the latency/throughput metrics it samples
// process-wide fd count, thread count, and peak RSS during the round and
// reports the configured server thread budget (reactors + session pool +
// monitor loop; route handlers run on the reactors), which stays constant
// while client count scales 8x. The
// clients are driven by the epoll fleet (bench/epoll_client.hpp): ONE
// load-generator thread, so generator scheduling jitter no longer inflates
// the tail latency attributed to the server.
//
// The shard scenario (--scenario shard) is the multi-hub sharding proof:
// the server publishes 4 views (variable x projection shards, each its own
// FrameHub), and >= 512 epoll-fleet clients split evenly across them. Each
// client count runs twice — all views prompt, then one view's clients
// turned into slow consumers — and the comparison block reports per-view
// gap/error counts plus the fast views' delivery p99 both ways: a slow
// *view* must not pace or delay the other shards, the isolation that a
// single shared hub window cannot give.
//
// The delta scenario (--scenario delta) measures image deltas (one
// changed-region rect per frame) on a localized-change workload — a steady
// isosurface under an orbiting view, where most of the frame (background)
// is static — by running the same client mix twice: once forcing
// full-frame resends (full=1) and once accepting deltas (delta=1). The comparison reports steady-state bytes/frame both ways and
// the saved fraction.
//
// The transport scenario (--scenario transport) is the long-poll vs SSE
// head-to-head: the same frame source and the same epoll-fleet client
// count (>= 1024 by default) run twice, once long-polling /api/poll and
// once riding the /api/stream chunked push channel. Both rounds count
// every byte on the wire in both directions, so the comparison reports the
// per-frame framing overhead — request line + response headers per frame
// for long-poll, chunk + event framing for SSE — beside delivery p99,
// gap, and delta-break counts. The tiered/delta body stream itself is
// identical on both transports; only the envelope differs.
//
// The relay scenario (--scenario relay) is the fan-out-tree capacity
// proof: the same prompt long-poll fleet runs twice — every client
// directly against the origin, then spread evenly across `--relays` relay
// nodes subscribed to the origin over SSE (a depth-2 re-publish tree).
// Both rounds report what the origin pays (peak connections, bytes out)
// beside the end-client numbers (gaps, delta breaks, delivery p99); the
// comparison's headline is the origin byte/connection reduction at equal
// client counts, with the relay hubs' encode counters proving the relays
// forwarded every frame pre-encoded (image_encodes must stay zero).
//
// The congestion scenario (--scenario congestion) is the controller A/B:
// real per-client ClientSession objects (the production pacing stack) are
// driven through an emulated WAN (src/netsim/: bandwidth-limited last-mile
// links with propagation delay and on/off cross-traffic bursts) in virtual
// time, once per congestion-control law — the paper's Robbins-Monro Eq. 1
// (rmsa), the delay-gradient law (gradient), and the trendline law. The
// comparison reports tier flaps (downgrade/upgrade oscillation at the
// capacity boundary) and fast-client delivery p99 per controller: the
// delay-based laws must hold slow clients steady where utilization-only
// feedback probes and collapses, without costing prompt clients latency.
// Deterministic (virtual time, seeded PRNGs) and CI-cheap: simulated
// seconds are free.
//
// Usage: ajax_fanout [--clients 64,256,512] [--duration-s 4]
//                    [--slow-fraction 0.1] [--frame-interval-s 0.05]
//                    [--relays 4] [--controller rmsa|gradient|trendline]
//                    [--scenario plain|mixed|fanout|delta|shard|transport|
//                     multireactor|relay|congestion]
#include <dirent.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
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
using benchweb::tier_index;
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

/// One emulated browser: long-poll loop with a private cursor. A "slow"
/// client sleeps between polls, the mix the hub must not let starve. A
/// non-empty `client_id` opts into a per-client adaptive pacing session.
/// `force_full` adds full=1 — the tile-delta opt-out, used as the
/// full-resend baseline of the delta scenario.
void client_loop(int port, double duration_s, double inter_poll_delay_s,
                 std::string client_id, bool force_full, std::atomic<bool>& go,
                 ClientResult& out) {
  ricsa::web::HttpClient http(port);
  // Join at the live head: replaying the retention window would count old
  // frames (with old publish stamps) as slow deliveries.
  std::uint64_t since = 0;
  try {
    const auto state = http.get("/api/state", 10.0);
    since = static_cast<std::uint64_t>(
        Json::parse(state.body).at("seq").as_number());
  } catch (const std::exception&) {
  }
  while (!go.load()) std::this_thread::yield();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(duration_s);
  while (std::chrono::steady_clock::now() < deadline) {
    const double t0 = bench_now_unix_ms();
    ricsa::web::HttpClient::Response r;
    try {
      r = http.get("/api/poll?since=" + std::to_string(since) +
                       "&delta=1&timeout=2" + (force_full ? "&full=1" : "") +
                       (client_id.empty() ? "" : "&client=" + client_id),
                   10.0);
    } catch (const std::exception&) {
      ++out.errors;
      continue;
    }
    const double t1 = bench_now_unix_ms();
    ++out.polls;
    if (r.status != 200) {
      ++out.errors;
      continue;
    }
    Json body;
    try {
      body = Json::parse(r.body);
    } catch (const std::exception&) {
      ++out.errors;
      continue;
    }
    if (body.contains("timeout")) {
      ++out.timeouts;
      continue;
    }
    const auto seq = static_cast<std::uint64_t>(body.at("seq").as_number());
    if (seq <= since) continue;
    // Adaptive sessions skip frames by design (latest_only pacing); count
    // those separately so `gaps` stays the hub-correctness signal.
    if (since != 0 && seq != since + 1) {
      if (client_id.empty()) ++out.gaps;
      else out.skips += seq - since - 1;
    }
    // Tile-delta protocol accounting. `since` doubles as the composited
    // cursor: a gap-free client composites every frame, so tiles must
    // always anchor at exactly the previous frame received.
    if (body.contains("tiles")) {
      ++out.tile_frames;
      out.tiles_received += body.at("tiles").as_array().size();
      if (static_cast<std::uint64_t>(body.at("base_seq").as_number()) !=
          since) {
        ++out.delta_breaks;
      }
    } else if (body.contains("image_b64")) {
      ++out.image_frames;
    }
    since = seq;
    ++out.frames;
    out.bytes += r.body.size();
    const std::size_t tier =
        body.contains("tier") ? tier_index(body.at("tier").as_string()) : 0;
    ++out.tier_frames[tier];
    out.tier_bytes[tier] += r.body.size();
    out.rtt_ms.push_back(t1 - t0);
    if (body.at("state").contains("published_ms")) {
      out.delivery_ms.push_back(t1 -
                                body.at("state").at("published_ms").as_number());
    }
    if (inter_poll_delay_s > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(inter_poll_delay_s));
    }
  }
  out.reconnects = http.reconnects();
}

/// `orbit` drives /api/view azimuth changes at frame cadence for the round:
/// every frame renders a different image (the live-visualization regime the
/// tier pipeline targets), instead of the byte-identical PNGs a converged
/// tiny simulation produces.
///
/// `paced_fraction` of the clients present a session identity and get
/// per-client adaptive pacing (1.0 = the adaptive rounds, 0.0 = baseline,
/// in between = the fanout scenario's mixed population).
///
/// `force_full` makes every client ask for complete frames (full=1) — the
/// delta scenario's full-resend baseline.
Json run_round(ricsa::web::AjaxFrontEnd& frontend, int port, int n_clients,
               double duration_s, double slow_fraction, double paced_fraction,
               bool orbit, double frame_interval_s, bool force_full = false) {
  const std::uint64_t seq_before = frontend.frame_seq();
  const auto stats_before = frontend.hub().stats();

  std::vector<ClientResult> results(static_cast<std::size_t>(n_clients));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n_clients));
  std::atomic<bool> go{false};
  const int n_slow = static_cast<int>(slow_fraction * n_clients);
  // Fresh session identities per round: reusing ids would leak one round's
  // adapted tier state into the next.
  static std::atomic<int> round_counter{0};
  const int round = round_counter++;
  int n_paced = 0;
  for (int i = 0; i < n_clients; ++i) {
    // Slow consumers sleep ~3 frame intervals between polls — tied to the
    // cadence so they stay genuinely slower than publication at any
    // --frame-interval-s (a fixed delay under the interval would make the
    // "slow" cohort indistinguishable from the fast one).
    const double delay =
        i < n_slow ? std::max(0.15, 3.0 * frame_interval_s) : 0.0;
    // Spread paced clients evenly through the population so both the slow
    // and the fast mix contain paced and unpaced members.
    const bool paced =
        static_cast<int>(static_cast<double>(i) * paced_fraction) !=
        static_cast<int>(static_cast<double>(i + 1) * paced_fraction);
    n_paced += paced ? 1 : 0;
    const std::string client_id =
        paced ? "bench-r" + std::to_string(round) + "-c" + std::to_string(i)
              : std::string();
    threads.emplace_back(client_loop, port, duration_s, delay, client_id,
                         force_full, std::ref(go),
                         std::ref(results[static_cast<std::size_t>(i)]));
  }
  // Process-wide resource sampler: peak fds and threads *during* the round
  // (after it, the client sockets and threads are gone again).
  std::atomic<bool> sampling{true};
  std::size_t peak_fds = 0;
  long peak_threads = 0;
  std::thread sampler([&] {
    while (sampling.load()) {
      peak_fds = std::max(peak_fds, count_open_fds());
      peak_threads = std::max(peak_threads, proc_status_value("Threads"));
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });
  std::atomic<bool> orbiting{orbit};
  std::thread orbit_thread;
  if (orbit) {
    orbit_thread = std::thread([port, frame_interval_s, &orbiting] {
      ricsa::web::HttpClient http(port);
      int k = 0;
      while (orbiting.load()) {
        const std::string body = "{\"azimuth\": " +
                                 std::to_string(0.7 + 0.031 * (k++ % 100)) +
                                 "}";
        try {
          http.post("/api/view", body);
        } catch (const std::exception&) {
        }
        std::this_thread::sleep_for(
            std::chrono::duration<double>(frame_interval_s));
      }
    });
  }
  const double t0 = bench_now_unix_ms();
  go.store(true);
  for (auto& t : threads) t.join();
  const double elapsed_s = (bench_now_unix_ms() - t0) / 1000.0;
  orbiting.store(false);
  if (orbit_thread.joinable()) orbit_thread.join();
  sampling.store(false);
  sampler.join();

  ClientResult total;
  std::vector<double> fast_delivery_ms;  // prompt pollers only: the hub's
                                         // own fan-out latency, not the
                                         // client-chosen replay pace
  std::uint64_t min_frames = results.empty() ? 0 : results.front().frames;
  for (int i = 0; i < n_clients; ++i) {
    const ClientResult& r = results[static_cast<std::size_t>(i)];
    total.delivery_ms.insert(total.delivery_ms.end(), r.delivery_ms.begin(),
                             r.delivery_ms.end());
    if (i >= n_slow) {
      fast_delivery_ms.insert(fast_delivery_ms.end(), r.delivery_ms.begin(),
                              r.delivery_ms.end());
    }
    total.rtt_ms.insert(total.rtt_ms.end(), r.rtt_ms.begin(), r.rtt_ms.end());
    total.frames += r.frames;
    total.polls += r.polls;
    total.gaps += r.gaps;
    total.skips += r.skips;
    total.timeouts += r.timeouts;
    total.errors += r.errors;
    total.bytes += r.bytes;
    total.tile_frames += r.tile_frames;
    total.tiles_received += r.tiles_received;
    total.image_frames += r.image_frames;
    total.delta_breaks += r.delta_breaks;
    for (std::size_t t = 0; t < 3; ++t) {
      total.tier_frames[t] += r.tier_frames[t];
      total.tier_bytes[t] += r.tier_bytes[t];
    }
    total.reconnects += std::max(0, r.reconnects);
    min_frames = std::min(min_frames, r.frames);
  }

  Json out;
  out["clients"] = n_clients;
  out["slow_clients"] = n_slow;
  out["paced_clients"] = n_paced;
  out["adaptive"] = paced_fraction > 0.0;
  out["full_resend"] = force_full;
  out["duration_s"] = elapsed_s;
  out["frames_published"] =
      static_cast<double>(frontend.frame_seq() - seq_before);
  out["polls"] = static_cast<double>(total.polls);
  out["frames_delivered"] = static_cast<double>(total.frames);
  out["frames_delivered_min_per_client"] = static_cast<double>(min_frames);
  out["deliveries_per_sec"] =
      static_cast<double>(total.frames) / std::max(1e-9, elapsed_s);
  out["gaps"] = static_cast<double>(total.gaps);
  out["pacing_skips"] = static_cast<double>(total.skips);
  out["timeouts"] = static_cast<double>(total.timeouts);
  out["errors"] = static_cast<double>(total.errors);
  out["client_reconnects"] = static_cast<double>(total.reconnects);
  out["bytes_total"] = static_cast<double>(total.bytes);
  out["bandwidth_Bps"] =
      static_cast<double>(total.bytes) / std::max(1e-9, elapsed_s);
  out["bytes_per_frame"] =
      total.frames > 0
          ? static_cast<double>(total.bytes) / static_cast<double>(total.frames)
          : 0.0;
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

  Json delivery;
  delivery["p50_ms"] = percentile(total.delivery_ms, 50);
  delivery["p90_ms"] = percentile(total.delivery_ms, 90);
  delivery["p99_ms"] = percentile(total.delivery_ms, 99);
  delivery["max_ms"] =
      total.delivery_ms.empty()
          ? 0.0
          : *std::max_element(total.delivery_ms.begin(), total.delivery_ms.end());
  out["delivery_latency"] = delivery;

  if (!fast_delivery_ms.empty()) {
    Json fast;
    fast["p50_ms"] = percentile(fast_delivery_ms, 50);
    fast["p90_ms"] = percentile(fast_delivery_ms, 90);
    fast["p99_ms"] = percentile(fast_delivery_ms, 99);
    fast["max_ms"] = *std::max_element(fast_delivery_ms.begin(),
                                       fast_delivery_ms.end());
    out["delivery_latency_fast_clients"] = fast;
  }

  Json rtt;
  rtt["p50_ms"] = percentile(total.rtt_ms, 50);
  rtt["p90_ms"] = percentile(total.rtt_ms, 90);
  rtt["p99_ms"] = percentile(total.rtt_ms, 99);
  out["poll_rtt"] = rtt;

  const auto stats_after = frontend.hub().stats();
  Json hub;
  hub["waiting_peak"] = static_cast<double>(stats_after.waiting_peak);
  hub["served"] = static_cast<double>(stats_after.served - stats_before.served);
  hub["hub_timeouts"] =
      static_cast<double>(stats_after.timeouts - stats_before.timeouts);
  out["hub"] = hub;

  // Encoder-side compression accounting over this round: raw framebuffer
  // bytes handed to the PNG encoder vs compressed bytes it produced,
  // across every full-frame and rect encode the hub performed. The
  // wire bytes above additionally carry base64 and JSON framing, so this
  // is the codec's own ratio, not the end-to-end one.
  out["codec"] = "deflate";
  {
    const double enc_in = static_cast<double>(stats_after.image_bytes_in -
                                              stats_before.image_bytes_in);
    const double enc_out = static_cast<double>(stats_after.image_bytes_out -
                                               stats_before.image_bytes_out);
    Json compression;
    compression["raw_bytes_in"] = enc_in;
    compression["png_bytes_out"] = enc_out;
    compression["compression_ratio"] = enc_out > 0 ? enc_in / enc_out : 0.0;
    out["compression"] = compression;
  }

  // Process-wide peaks during the round. Both ends of every connection are
  // in this process, so fds ~ 2x clients + constants, and threads include
  // the bench's own client threads — the *server's* thread budget is the
  // constant reported at the top level of the report.
  Json process;
  process["peak_fds"] = static_cast<double>(peak_fds);
  process["peak_threads"] = static_cast<double>(peak_threads);
  process["peak_rss_kb"] = static_cast<double>(proc_status_value("VmHWM"));
  out["process"] = process;
  return out;
}

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

Json latency_json(std::vector<double>& xs) {
  Json out;
  out["p50_ms"] = percentile(xs, 50);
  out["p90_ms"] = percentile(xs, 90);
  out["p99_ms"] = percentile(xs, 99);
  out["max_ms"] = xs.empty() ? 0.0 : *std::max_element(xs.begin(), xs.end());
  return out;
}

/// Sum of the per-shard hub stats across every live view — the registry-
/// wide equivalent of run_round's single-hub before/after snapshot.
ricsa::web::FrameHub::Stats registry_stats(ricsa::web::AjaxFrontEnd& fe) {
  ricsa::web::FrameHub::Stats sum;
  for (const std::string& name : fe.registry().view_names()) {
    const auto hub = fe.registry().find(name);
    if (!hub) continue;
    const auto s = hub->stats();
    sum.published += s.published;
    sum.served += s.served;
    sum.timeouts += s.timeouts;
    sum.waiting_peak = std::max(sum.waiting_peak, s.waiting_peak);
  }
  return sum;
}

/// One round driven by the epoll client fleet (one load-generator thread,
/// however many clients) — the fanout, shard, and transport scenarios.
/// `scenario`, `view_count`, and `slow_view` tag shard rounds so
/// bench_delta.py can match rounds across runs by (scenario, view_count,
/// slow-view presence); fanout rounds pass empty tags and keep their
/// historical round key. `transport` tags the transport scenario's rounds
/// ("long-poll" vs "sse") — empty everywhere else, so pre-transport
/// artifacts keep matching too.
Json run_fleet_round(ricsa::web::AjaxFrontEnd& frontend, int port,
                     const std::vector<ClientSpec>& specs, double duration_s,
                     const std::string& scenario, std::size_t view_count,
                     const std::string& slow_view,
                     const std::string& transport = "") {
  // Let the server reap the previous round's connections first: starting a
  // new full fleet while the old one's FINs are still queued would
  // transiently double the connection count and 503 the overlap.
  for (int i = 0; i < 300 && frontend.server().connections_open() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const auto stats_before = registry_stats(frontend);

  // Process-wide resource sampler, as in run_round: peaks *during* the
  // round. The expected thread picture here is the server budget plus ONE
  // fleet thread — the satellite's point.
  std::atomic<bool> sampling{true};
  std::size_t peak_fds = 0;
  long peak_threads = 0;
  std::thread sampler([&] {
    while (sampling.load()) {
      peak_fds = std::max(peak_fds, count_open_fds());
      peak_threads = std::max(peak_threads, proc_status_value("Threads"));
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });

  const double t0 = bench_now_unix_ms();
  EpollClientFleet fleet(port, specs);
  std::vector<ClientResult> results = fleet.run(duration_s);
  const double elapsed_s = (bench_now_unix_ms() - t0) / 1000.0;
  sampling.store(false);
  sampler.join();

  ClientResult total;
  std::vector<double> fast_delivery_ms;
  std::uint64_t min_frames = results.empty() ? 0 : results.front().frames;
  std::map<std::string, ClientResult> by_view;
  std::map<std::string, int> view_clients;
  for (std::size_t i = 0; i < results.size(); ++i) {
    accumulate(results[i], total);
    if (!specs[i].slow) {
      fast_delivery_ms.insert(fast_delivery_ms.end(),
                              results[i].delivery_ms.begin(),
                              results[i].delivery_ms.end());
    }
    min_frames = std::min(min_frames, results[i].frames);
    if (!specs[i].view.empty()) {
      accumulate(results[i], by_view[specs[i].view]);
      ++view_clients[specs[i].view];
    }
  }

  Json out;
  out["clients"] = static_cast<int>(specs.size());
  int n_slow = 0;
  int n_paced = 0;
  for (const ClientSpec& spec : specs) {
    n_slow += spec.slow ? 1 : 0;
    n_paced += spec.client_id.empty() ? 0 : 1;
  }
  out["slow_clients"] = n_slow;
  out["paced_clients"] = n_paced;
  out["adaptive"] = n_paced > 0;
  out["full_resend"] = false;
  out["harness"] = "epoll";
  if (!scenario.empty()) {
    out["scenario"] = scenario;
    out["view_count"] = static_cast<int>(view_count);
    out["slow_view"] = slow_view;
  }
  if (!transport.empty()) out["transport"] = transport;
  out["duration_s"] = elapsed_s;
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
  out["bytes_per_frame"] =
      total.frames > 0
          ? static_cast<double>(total.bytes) / static_cast<double>(total.frames)
          : 0.0;
  // Transport envelope cost: everything on the wire that is not frame
  // body — request lines, response headers, chunk and SSE event framing —
  // amortized per delivered frame. This is the long-poll vs SSE headline.
  out["wire_bytes_total"] = static_cast<double>(total.wire_bytes);
  out["overhead_bytes_per_frame"] =
      total.frames > 0
          ? static_cast<double>(total.wire_bytes - total.bytes) /
                static_cast<double>(total.frames)
          : 0.0;
  {
    Json image_delta;
    image_delta["tile_frames"] = static_cast<double>(total.tile_frames);
    image_delta["tiles_received"] = static_cast<double>(total.tiles_received);
    image_delta["full_image_frames"] = static_cast<double>(total.image_frames);
    image_delta["delta_breaks"] = static_cast<double>(total.delta_breaks);
    out["image_delta"] = image_delta;
  }
  out["delivery_latency"] = latency_json(total.delivery_ms);
  if (!fast_delivery_ms.empty()) {
    out["delivery_latency_fast_clients"] = latency_json(fast_delivery_ms);
  }
  out["poll_rtt"] = latency_json(total.rtt_ms);

  // Per-view breakdown: the cross-shard isolation evidence. Every view
  // reports its own gap/error/latency numbers, and views whose clients are
  // all prompt additionally report them under `fast` for the bench_delta
  // per-view gate.
  if (!by_view.empty()) {
    Json views;
    for (auto& [name, r] : by_view) {
      Json v;
      v["clients"] = view_clients[name];
      v["slow"] = name == slow_view;
      v["frames"] = static_cast<double>(r.frames);
      v["gaps"] = static_cast<double>(r.gaps);
      v["errors"] = static_cast<double>(r.errors);
      v["timeouts"] = static_cast<double>(r.timeouts);
      v["bytes"] = static_cast<double>(r.bytes);
      v["delivery_latency"] = latency_json(r.delivery_ms);
      views[name] = v;
    }
    out["views"] = views;
  }

  const auto stats_after = registry_stats(frontend);
  Json hub;
  hub["waiting_peak"] = static_cast<double>(stats_after.waiting_peak);
  hub["served"] = static_cast<double>(stats_after.served - stats_before.served);
  hub["hub_timeouts"] =
      static_cast<double>(stats_after.timeouts - stats_before.timeouts);
  out["frames_published"] =
      static_cast<double>(stats_after.published - stats_before.published);
  out["hub"] = hub;

  Json process;
  process["peak_fds"] = static_cast<double>(peak_fds);
  process["peak_threads"] = static_cast<double>(peak_threads);
  process["peak_rss_kb"] = static_cast<double>(proc_status_value("VmHWM"));
  out["process"] = process;
  return out;
}

/// One relay-scenario fleet run. The specs carry per-client ports (the
/// origin for the direct baseline, relay ports for the relayed round), so
/// the same function measures both sides of the comparison; what changes
/// is who the clients talk to — the origin's own counters are sampled
/// either way, and that asymmetry is the result.
Json run_relay_round(ricsa::web::AjaxFrontEnd& origin,
                     const std::vector<ricsa::relay::RelayNode*>& relays,
                     int origin_port, const std::vector<ClientSpec>& specs,
                     double duration_s, int relay_depth, int relay_fanout) {
  // Let the previous round's connections drain (relay upstream links stay
  // up by design, so wait for the *fleet's* connections only: the floor is
  // one upstream connection per relay).
  const std::size_t floor = relays.size();
  for (int i = 0; i < 300 && origin.server().connections_open() > floor; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const std::uint64_t origin_bytes_before = origin.server().bytes_sent();
  const std::uint64_t origin_served_before = origin.server().requests_served();

  // Origin connection peak *during* the round: the capacity headline. The
  // direct round should peak at the client count; the relayed round at the
  // relay fan-out.
  std::atomic<bool> sampling{true};
  std::size_t origin_conn_peak = 0;
  std::thread sampler([&] {
    while (sampling.load()) {
      origin_conn_peak =
          std::max(origin_conn_peak, origin.server().connections_open());
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  const double t0 = bench_now_unix_ms();
  EpollClientFleet fleet(origin_port, specs);
  std::vector<ClientResult> results = fleet.run(duration_s);
  const double elapsed_s = (bench_now_unix_ms() - t0) / 1000.0;
  sampling.store(false);
  sampler.join();

  ClientResult total;
  std::uint64_t min_frames = results.empty() ? 0 : results.front().frames;
  for (const ClientResult& r : results) {
    accumulate(r, total);
    min_frames = std::min(min_frames, r.frames);
  }

  Json out;
  out["scenario"] = "relay";
  out["harness"] = "epoll";
  out["clients"] = static_cast<int>(specs.size());
  out["relay_depth"] = relay_depth;
  out["relay_fanout"] = relay_fanout;
  out["duration_s"] = elapsed_s;
  out["polls"] = static_cast<double>(total.polls);
  out["frames_delivered"] = static_cast<double>(total.frames);
  out["frames_delivered_min_per_client"] = static_cast<double>(min_frames);
  out["deliveries_per_sec"] =
      static_cast<double>(total.frames) / std::max(1e-9, elapsed_s);
  out["gaps"] = static_cast<double>(total.gaps);
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
  out["bytes_per_frame"] =
      total.frames > 0
          ? static_cast<double>(total.bytes) / static_cast<double>(total.frames)
          : 0.0;
  {
    Json image_delta;
    image_delta["tile_frames"] = static_cast<double>(total.tile_frames);
    image_delta["tiles_received"] = static_cast<double>(total.tiles_received);
    image_delta["full_image_frames"] = static_cast<double>(total.image_frames);
    image_delta["delta_breaks"] = static_cast<double>(total.delta_breaks);
    out["image_delta"] = image_delta;
  }
  out["delivery_latency"] = latency_json(total.delivery_ms);
  out["poll_rtt"] = latency_json(total.rtt_ms);

  // What the origin paid for this round — the tree's whole point.
  out["origin_connections_peak"] = static_cast<double>(origin_conn_peak);
  out["origin_bytes_sent"] =
      static_cast<double>(origin.server().bytes_sent() - origin_bytes_before);
  out["origin_requests_served"] = static_cast<double>(
      origin.server().requests_served() - origin_served_before);

  // Relay-tier roll-up: forwarding counters plus the never-decodes proof
  // (image_encodes must be zero; every local publish pre-encoded).
  if (!relays.empty()) {
    std::uint64_t image_encodes = 0;
    std::uint64_t preencoded = 0;
    std::uint64_t published = 0;
    std::uint64_t resyncs = 0;
    std::uint64_t reconnects = 0;
    std::uint64_t epoch_changes = 0;
    std::uint64_t relay_bytes = 0;
    for (ricsa::relay::RelayNode* relay : relays) {
      for (const std::string& name : relay->registry().view_names()) {
        const auto hub = relay->registry().find(name);
        if (!hub) continue;
        const ricsa::web::FrameHub::Stats s = hub->stats();
        image_encodes += s.image_encodes;
        preencoded += s.preencoded_publishes;
        published += s.published;
      }
      for (const auto& [view, s] : relay->subscriber().stats()) {
        resyncs += s.resyncs;
        reconnects += s.reconnects;
        epoch_changes += s.epoch_changes;
      }
      relay_bytes += relay->server().bytes_sent();
    }
    Json tier;
    tier["nodes"] = static_cast<int>(relays.size());
    tier["image_encodes"] = static_cast<double>(image_encodes);
    tier["preencoded_publishes"] = static_cast<double>(preencoded);
    tier["frames_published"] = static_cast<double>(published);
    tier["resyncs"] = static_cast<double>(resyncs);
    tier["upstream_reconnects"] = static_cast<double>(reconnects);
    tier["epoch_changes"] = static_cast<double>(epoch_changes);
    tier["bytes_sent_total"] = static_cast<double>(relay_bytes);
    out["relay_tier"] = tier;
  }
  return out;
}

/// Prompt delta-accepting clients split evenly across the relay ports
/// (empty `ports` = everyone on the fleet default, the direct baseline).
std::vector<ClientSpec> relay_specs(int n_clients,
                                    const std::vector<int>& ports) {
  std::vector<ClientSpec> specs(static_cast<std::size_t>(n_clients));
  if (!ports.empty()) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      specs[i].port = ports[i % ports.size()];
    }
  }
  return specs;
}

/// Fleet population for the fanout scenario: same mix the thread-based
/// harness used — `slow_fraction` slow consumers and `paced_fraction`
/// adaptive sessions spread through the population.
std::vector<ClientSpec> fanout_specs(int n_clients, double slow_fraction,
                                     double paced_fraction,
                                     double frame_interval_s, int round) {
  std::vector<ClientSpec> specs;
  specs.reserve(static_cast<std::size_t>(n_clients));
  const int n_slow = static_cast<int>(slow_fraction * n_clients);
  for (int i = 0; i < n_clients; ++i) {
    ClientSpec spec;
    if (i < n_slow) {
      spec.slow = true;
      spec.inter_poll_delay_s = std::max(0.15, 3.0 * frame_interval_s);
    }
    const bool paced =
        static_cast<int>(static_cast<double>(i) * paced_fraction) !=
        static_cast<int>(static_cast<double>(i + 1) * paced_fraction);
    if (paced) {
      spec.client_id =
          "bench-r" + std::to_string(round) + "-c" + std::to_string(i);
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// Fleet population for the transport scenario: every client prompt and
/// unpaced — the head-to-head isolates the *envelope* cost of the two
/// transports, so pacing skips and think-time pauses would only blur the
/// per-frame overhead number. `sse` flips the whole fleet between the
/// long-poll loop and the /api/stream push channel.
std::vector<ClientSpec> transport_specs(int n_clients, bool sse) {
  std::vector<ClientSpec> specs;
  specs.reserve(static_cast<std::size_t>(n_clients));
  for (int i = 0; i < n_clients; ++i) {
    ClientSpec spec;
    spec.sse = sse;
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// Fleet population for the multireactor scenario: every client prompt,
/// unpaced, long-poll. Raw serving capacity is the measurement — pacing
/// skips or think-time pauses would mask the reactor saturation point.
std::vector<ClientSpec> plain_specs(int n_clients) {
  return std::vector<ClientSpec>(static_cast<std::size_t>(n_clients));
}

/// Fleet population for the shard scenario: clients split round-robin
/// across the views; every client of `slow_view` (when set) is a slow
/// consumer. Unpaced — per-view gap counts are the correctness signal.
std::vector<ClientSpec> shard_specs(const std::vector<std::string>& views,
                                    int n_clients,
                                    const std::string& slow_view,
                                    double frame_interval_s) {
  std::vector<ClientSpec> specs;
  specs.reserve(static_cast<std::size_t>(n_clients));
  for (int i = 0; i < n_clients; ++i) {
    ClientSpec spec;
    spec.view = views[static_cast<std::size_t>(i) % views.size()];
    if (spec.view == slow_view) {
      spec.slow = true;
      spec.inter_poll_delay_s = std::max(0.15, 3.0 * frame_interval_s);
    }
    specs.push_back(std::move(spec));
  }
  return specs;
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
  out["scenario"] = "congestion";
  out["controller"] = ricsa::transport::controller_kind_name(kind);
  out["harness"] = "netsim";
  out["clients"] = n_clients;
  out["slow_clients"] = n_slow;
  out["paced_clients"] = n_clients;
  out["adaptive"] = true;
  out["full_resend"] = false;
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

}  // namespace

int main(int argc, char** argv) {
  raise_fd_limit();
  std::vector<int> client_counts = {64, 256, 512};
  bool clients_set = false;
  double duration_s = 4.0;
  bool duration_set = false;
  double slow_fraction = 0.0;
  double frame_interval_s = 0.05;
  bool frame_interval_set = false;
  int relay_count = 4;
  ricsa::transport::ControllerKind controller_kind =
      ricsa::transport::ControllerKind::kRmsa;
  std::string scenario = "plain";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--clients") {
      client_counts.clear();
      clients_set = true;
      for (const std::string& tok : ricsa::util::split(next(), ',')) {
        client_counts.push_back(std::atoi(tok.c_str()));
      }
    } else if (arg == "--duration-s") {
      duration_s = std::atof(next().c_str());
      duration_set = true;
    } else if (arg == "--slow-fraction") {
      slow_fraction = std::atof(next().c_str());
    } else if (arg == "--frame-interval-s") {
      frame_interval_s = std::atof(next().c_str());
      frame_interval_set = true;
    } else if (arg == "--scenario") {
      scenario = next();
    } else if (arg == "--relays") {
      relay_count = std::atoi(next().c_str());
    } else if (arg == "--controller") {
      const std::string name = next();
      if (!ricsa::transport::parse_controller_kind(name, &controller_kind)) {
        std::fprintf(stderr, "unknown --controller '%s'\n", name.c_str());
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: ajax_fanout [--clients 64,256,512] [--duration-s S]"
                   " [--slow-fraction F] [--frame-interval-s S] [--relays N]"
                   " [--controller rmsa|gradient|trendline]"
                   " [--scenario plain|mixed|fanout|delta|shard|transport|"
                   "multireactor|relay|congestion]\n");
      return 2;
    }
  }
  if ((scenario == "mixed" || scenario == "fanout") && slow_fraction <= 0.0) {
    slow_fraction = 0.25;
  }
  if (scenario == "fanout") {
    // The reactor scaling proof: 8x the thread-per-connection comfort zone
    // by default, at a cadence where the server (not loopback throughput)
    // is what saturates first.
    if (!clients_set) client_counts = {512, 4096};
    if (!frame_interval_set) frame_interval_s = 0.25;
  }
  if (scenario == "shard") {
    // The sharding proof: >= 4 views, >= 512 clients split across them,
    // all on the single-threaded epoll fleet.
    if (!clients_set) client_counts = {512};
    if (!frame_interval_set) frame_interval_s = 0.25;
  }
  if (scenario == "delta") {
    // Bandwidth, not concurrency, is under test: a handful of prompt
    // clients on the localized-change workload is enough signal.
    if (!clients_set) client_counts = {32};
  }
  if (scenario == "transport") {
    // The envelope head-to-head at reactor scale: enough clients that
    // per-frame request overhead is a real aggregate cost, at a cadence
    // where both transports comfortably keep up.
    if (!clients_set) client_counts = {1024};
    if (!frame_interval_set) frame_interval_s = 0.25;
  }
  // The multi-reactor capacity proof: the acceptance fleet is 8k prompt
  // long-poll clients on four reactors, against a single-reactor baseline
  // at the same load and at a quarter of it.
  const std::size_t kMultiReactors = 4;
  if (scenario == "multireactor") {
    if (!clients_set) client_counts = {8192};
    if (!frame_interval_set) frame_interval_s = 0.25;
  }
  if (scenario == "relay") {
    // The fan-out-tree acceptance shape: 1024 end clients, direct vs a
    // 4-relay tier (256 clients each), at a cadence both sides keep up
    // with comfortably.
    if (!clients_set) client_counts = {1024};
    if (!frame_interval_set) frame_interval_s = 0.25;
    relay_count = std::max(1, relay_count);
  }
  if (scenario == "congestion") {
    // The controller A/B runs in virtual time: seconds are simulated, so a
    // long round costs nothing — 60 s is enough for several RMSA probe
    // backoff cycles at the capacity boundary. Half the fleet sits behind
    // the congested last-mile.
    if (!clients_set) client_counts = {32};
    if (!frame_interval_set) frame_interval_s = 0.05;
    if (!duration_set) duration_s = 60.0;
    if (slow_fraction <= 0.0) slow_fraction = 0.5;
  }

  ricsa::web::FrontEndConfig config;
  config.session.resolution = 16;  // small grid: the hub, not the sim, is under test
  config.session.cycles_per_frame = 1;
  // The controller knob reaches every paced session, whatever the
  // scenario; the congestion scenario ignores it (it runs all laws).
  config.pacing.controller.kind = controller_kind;
  config.frame_interval_s = frame_interval_s;
  config.frame_window = 256;
  if (scenario == "fanout" || scenario == "shard" || scenario == "transport" ||
      scenario == "multireactor" || scenario == "relay") {
    const int biggest =
        *std::max_element(client_counts.begin(), client_counts.end());
    config.max_connections = static_cast<std::size_t>(biggest) + 128;
    // Sessions for every paced client in the biggest round.
    config.pacing.max_sessions = static_cast<std::size_t>(biggest) + 64;
  }
  // The shard scenario's view namespace: the default "main" view plus three
  // fixed projections, each published into its own hub shard every frame.
  // Small images keep 4x per-frame rendering CI-sized.
  std::vector<std::string> shard_views = {"main"};
  if (scenario == "shard") {
    config.session.viz.isovalue = 1.1f;
    config.session.viz.image_width = 64;
    config.session.viz.image_height = 64;
    const float azimuths[3] = {1.6f, 2.8f, 4.1f};
    const char* names[3] = {"rho/iso", "pressure/iso", "energy/iso"};
    for (int v = 0; v < 3; ++v) {
      ricsa::web::ViewSpec spec;
      spec.name = names[v];
      spec.viz = config.session.viz;
      spec.camera.azimuth = azimuths[v];
      spec.camera.zoom = 1.0f + 0.2f * static_cast<float>(v);
      config.views.push_back(spec);
      shard_views.push_back(spec.name);
    }
  }
  if (scenario == "mixed") {
    // The tier pipeline is about image bandwidth: render an isosurface that
    // actually exists (and therefore changes frame to frame as the bow
    // shock evolves and the view orbits), at a size where the client mix —
    // not loopback throughput — is what is being measured.
    config.session.viz.isovalue = 1.1f;
    config.session.viz.image_width = 128;
    config.session.viz.image_height = 128;
    // The adaptive round exercises cursor-anchored deltas under real
    // pacing skips (delta_breaks is the protocol-correctness signal).
  }
  if (scenario == "delta") {
    // The localized-change workload: a steady isosurface under an orbiting
    // view. The object occupies the middle of the frame; the background
    // never changes, so each frame's changed-region rect should carry a
    // fraction of the full image.
    config.session.viz.isovalue = 1.1f;
    config.session.viz.image_width = 192;
    config.session.viz.image_height = 192;
  }
  // Mixed rounds each get a fresh front end: sessions left behind by one
  // adaptive round (idle expiry is 60 s) must not contaminate the next
  // round's baseline (wants_half_tier) or eat into the session cap.
  // The multireactor scenario flips config.reactors between rounds; every
  // other scenario runs the default single reactor.
  if (scenario == "multireactor") config.reactors = kMultiReactors;
  std::unique_ptr<ricsa::web::AjaxFrontEnd> frontend;
  int port = 0;
  const auto fresh_frontend = [&] {
    if (frontend) frontend->stop();
    frontend = std::make_unique<ricsa::web::AjaxFrontEnd>(config);
    port = frontend->start();
    // Let the monitor loop publish its first frames before measuring.
    while (frontend->frame_seq() < 3) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  };
  // The congestion scenario is pure virtual time — no server, no sockets.
  if (scenario != "congestion") {
    fresh_frontend();
    std::fprintf(stderr,
                 "[ajax_fanout] hub on port %d, frame interval %.0f ms\n",
                 port, frame_interval_s * 1e3);
  }

  Json rounds{ricsa::util::JsonArray{}};
  Json comparisons{ricsa::util::JsonArray{}};
  bool first_round = true;
  for (const int n : client_counts) {
    if (scenario == "mixed") {
      if (!first_round) fresh_frontend();
      // Same fast/slow client mix twice: adaptive pacing off (baseline:
      // everyone full tier) then on. Slow consumers must stop inflating
      // total bytes sent without costing the fast clients latency.
      std::fprintf(stderr,
                   "[ajax_fanout] %d clients (%.0f%% slow) baseline...\n", n,
                   slow_fraction * 100);
      Json baseline = run_round(*frontend, port, n, duration_s, slow_fraction,
                                0.0, true, frame_interval_s);
      std::fprintf(stderr,
                   "[ajax_fanout] %d clients (%.0f%% slow) adaptive...\n", n,
                   slow_fraction * 100);
      Json adaptive = run_round(*frontend, port, n, duration_s, slow_fraction,
                                1.0, true, frame_interval_s);

      Json cmp;
      cmp["clients"] = n;
      cmp["bytes_baseline"] = baseline.at("bytes_total");
      cmp["bytes_adaptive"] = adaptive.at("bytes_total");
      const double b = baseline.at("bytes_total").as_number();
      const double a = adaptive.at("bytes_total").as_number();
      cmp["bytes_saved_fraction"] = b > 0 ? (b - a) / b : 0.0;
      if (baseline.contains("delivery_latency_fast_clients")) {
        cmp["fast_p99_ms_baseline"] =
            baseline.at("delivery_latency_fast_clients").at("p99_ms");
      }
      if (adaptive.contains("delivery_latency_fast_clients")) {
        cmp["fast_p99_ms_adaptive"] =
            adaptive.at("delivery_latency_fast_clients").at("p99_ms");
      }
      cmp["adaptive_tiers"] = adaptive.at("tiers");
      comparisons.as_array().push_back(cmp);
      rounds.as_array().push_back(std::move(baseline));
      rounds.as_array().push_back(std::move(adaptive));
    } else if (scenario == "delta") {
      if (!first_round) fresh_frontend();
      // Same workload twice: full-frame resends forced, then deltas
      // accepted. Clients are unpaced and prompt — steady-state sequential
      // polls, where the per-frame delta is exactly one frame's rect.
      std::fprintf(stderr,
                   "[ajax_fanout] delta: %d clients full-resend baseline...\n",
                   n);
      Json baseline = run_round(*frontend, port, n, duration_s, 0.0, 0.0,
                                /*orbit=*/true, frame_interval_s,
                                /*force_full=*/true);
      std::fprintf(stderr,
                   "[ajax_fanout] delta: %d clients tile deltas...\n", n);
      Json tiled = run_round(*frontend, port, n, duration_s, 0.0, 0.0,
                             /*orbit=*/true, frame_interval_s,
                             /*force_full=*/false);

      Json cmp;
      cmp["clients"] = n;
      const double full_bpf = baseline.at("bytes_per_frame").as_number();
      const double delta_bpf = tiled.at("bytes_per_frame").as_number();
      cmp["bytes_per_frame_full"] = full_bpf;
      cmp["bytes_per_frame_delta"] = delta_bpf;
      cmp["bytes_saved_fraction"] =
          full_bpf > 0 ? (full_bpf - delta_bpf) / full_bpf : 0.0;
      cmp["tile_frames"] = tiled.at("image_delta").at("tile_frames");
      cmp["tiles_received"] = tiled.at("image_delta").at("tiles_received");
      cmp["delta_breaks"] = tiled.at("image_delta").at("delta_breaks");
      cmp["gaps"] = tiled.at("gaps");
      cmp["errors"] = tiled.at("errors");
      cmp["codec"] = tiled.at("codec");
      cmp["compression_ratio"] =
          tiled.at("compression").at("compression_ratio");
      comparisons.as_array().push_back(cmp);
      rounds.as_array().push_back(std::move(baseline));
      rounds.as_array().push_back(std::move(tiled));
    } else if (scenario == "fanout") {
      // Fresh front end per count: one round's adapted sessions and peak
      // stats must not contaminate the next.
      if (!first_round) fresh_frontend();
      std::fprintf(stderr,
                   "[ajax_fanout] fanout: %d clients (%.0f%% slow, 50%% "
                   "paced) on the epoll fleet for %.1f s...\n",
                   n, slow_fraction * 100, duration_s);
      static std::atomic<int> fleet_round{0};
      rounds.as_array().push_back(run_fleet_round(
          *frontend, port,
          fanout_specs(n, slow_fraction, 0.5, frame_interval_s,
                       fleet_round++),
          duration_s, "", 0, ""));
    } else if (scenario == "transport") {
      if (!first_round) fresh_frontend();
      // Same frame source, same client count, both transports: long-poll
      // round first, then a fresh front end and the SSE round. Fleet
      // accounting is field-identical (account_frame runs on both paths),
      // so gaps/delta_breaks/tier counts compare one-to-one; the envelope
      // cost per frame is the differing number.
      std::fprintf(stderr,
                   "[ajax_fanout] transport: %d long-poll clients...\n", n);
      Json poll_round =
          run_fleet_round(*frontend, port, transport_specs(n, false),
                          duration_s, "transport", 0, "", "long-poll");
      fresh_frontend();
      std::fprintf(stderr,
                   "[ajax_fanout] transport: %d SSE stream clients...\n", n);
      Json sse_round =
          run_fleet_round(*frontend, port, transport_specs(n, true),
                          duration_s, "transport", 0, "", "sse");

      Json cmp;
      cmp["clients"] = n;
      cmp["frames_long_poll"] = poll_round.at("frames_delivered");
      cmp["frames_sse"] = sse_round.at("frames_delivered");
      cmp["gaps_long_poll"] = poll_round.at("gaps");
      cmp["gaps_sse"] = sse_round.at("gaps");
      cmp["errors_long_poll"] = poll_round.at("errors");
      cmp["errors_sse"] = sse_round.at("errors");
      cmp["delta_breaks_long_poll"] =
          poll_round.at("image_delta").at("delta_breaks");
      cmp["delta_breaks_sse"] = sse_round.at("image_delta").at("delta_breaks");
      // The headline: bytes of transport envelope per delivered frame.
      // Long-poll pays a request line + response headers per frame; SSE
      // pays one subscription, then chunk + event framing per frame.
      const double lp_ov =
          poll_round.at("overhead_bytes_per_frame").as_number();
      const double sse_ov =
          sse_round.at("overhead_bytes_per_frame").as_number();
      cmp["overhead_bytes_per_frame_long_poll"] = lp_ov;
      cmp["overhead_bytes_per_frame_sse"] = sse_ov;
      cmp["overhead_saved_fraction"] =
          lp_ov > 0 ? (lp_ov - sse_ov) / lp_ov : 0.0;
      cmp["delivery_p99_ms_long_poll"] =
          poll_round.at("delivery_latency").at("p99_ms");
      cmp["delivery_p99_ms_sse"] =
          sse_round.at("delivery_latency").at("p99_ms");
      cmp["sse_subscriptions"] = sse_round.at("polls");
      cmp["sse_keepalives"] = sse_round.at("timeouts");
      comparisons.as_array().push_back(cmp);
      rounds.as_array().push_back(std::move(poll_round));
      rounds.as_array().push_back(std::move(sse_round));
    } else if (scenario == "multireactor") {
      // Same prompt fleet three ways: N reactors at n clients, one reactor
      // at n clients, one reactor at n/N. The capacity headline is the
      // multi/single deliveries-per-second ratio at n; the quarter-load
      // round shows a single reactor is comfortable at n/N — the scaling
      // lives in the reactor count, not the workload.
      const int quarter =
          std::max(1, n / static_cast<int>(kMultiReactors));
      config.reactors = kMultiReactors;
      if (!first_round) fresh_frontend();
      std::fprintf(stderr,
                   "[ajax_fanout] multireactor: %d clients on %zu "
                   "reactors...\n",
                   n, kMultiReactors);
      Json multi = run_fleet_round(*frontend, port, plain_specs(n),
                                   duration_s, "multireactor", 0, "");
      multi["reactors"] = static_cast<int>(kMultiReactors);
      config.reactors = 1;
      fresh_frontend();
      std::fprintf(stderr,
                   "[ajax_fanout] multireactor: %d clients on 1 reactor "
                   "(saturation baseline)...\n",
                   n);
      Json single = run_fleet_round(*frontend, port, plain_specs(n),
                                    duration_s, "multireactor", 0, "");
      single["reactors"] = 1;
      fresh_frontend();
      std::fprintf(stderr,
                   "[ajax_fanout] multireactor: %d clients on 1 reactor "
                   "(quarter load)...\n",
                   quarter);
      Json quarter_load = run_fleet_round(*frontend, port,
                                          plain_specs(quarter), duration_s,
                                          "multireactor", 0, "");
      quarter_load["reactors"] = 1;
      config.reactors = kMultiReactors;

      Json cmp;
      cmp["clients"] = n;
      cmp["reactors"] = static_cast<int>(kMultiReactors);
      cmp["deliveries_per_sec_multi"] = multi.at("deliveries_per_sec");
      cmp["deliveries_per_sec_single"] = single.at("deliveries_per_sec");
      const double dps_multi = multi.at("deliveries_per_sec").as_number();
      const double dps_single = single.at("deliveries_per_sec").as_number();
      // >= 1 means the reactors bought real capacity; the acceptance target
      // at the full 8k fleet is >= 2.5x once a single reactor saturates.
      cmp["capacity_ratio"] = dps_single > 0 ? dps_multi / dps_single : 0.0;
      cmp["gaps_multi"] = multi.at("gaps");
      cmp["gaps_single"] = single.at("gaps");
      cmp["errors_multi"] = multi.at("errors");
      cmp["errors_single"] = single.at("errors");
      cmp["timeouts_multi"] = multi.at("timeouts");
      cmp["timeouts_single"] = single.at("timeouts");
      cmp["delivery_p99_ms_multi"] =
          multi.at("delivery_latency").at("p99_ms");
      cmp["delivery_p99_ms_single"] =
          single.at("delivery_latency").at("p99_ms");
      cmp["clients_single_quarter"] = quarter;
      cmp["gaps_single_quarter"] = quarter_load.at("gaps");
      cmp["delivery_p99_ms_single_quarter"] =
          quarter_load.at("delivery_latency").at("p99_ms");
      comparisons.as_array().push_back(cmp);
      rounds.as_array().push_back(std::move(multi));
      rounds.as_array().push_back(std::move(single));
      rounds.as_array().push_back(std::move(quarter_load));
    } else if (scenario == "relay") {
      if (!first_round) fresh_frontend();
      // Direct baseline: every end client on the origin.
      std::fprintf(stderr, "[ajax_fanout] relay: %d clients direct...\n", n);
      Json direct =
          run_relay_round(*frontend, {}, port, relay_specs(n, {}),
                          duration_s, /*relay_depth=*/1, /*relay_fanout=*/0);

      // Relay tier: `relay_count` nodes subscribe to the origin over SSE,
      // each serving an equal slice of the same fleet (a depth-2 tree).
      std::vector<std::unique_ptr<ricsa::relay::RelayNode>> nodes;
      std::vector<ricsa::relay::RelayNode*> relays;
      std::vector<int> relay_ports;
      const std::size_t per_relay =
          static_cast<std::size_t>(n) / static_cast<std::size_t>(relay_count) +
          128;
      for (int r = 0; r < relay_count; ++r) {
        ricsa::relay::RelayNodeConfig rc;
        rc.subscriber.upstream_port = port;
        rc.subscriber.views = {"main"};
        rc.subscriber.relay_id = "bench-relay-" + std::to_string(r);
        rc.max_connections = per_relay;
        nodes.push_back(std::make_unique<ricsa::relay::RelayNode>(rc));
        relay_ports.push_back(nodes.back()->start());
        relays.push_back(nodes.back().get());
      }
      // Wait for every relay's first forwarded frame: clients joining an
      // empty relay hub would measure the subscription ramp, not steady
      // fan-out.
      for (const auto& node : nodes) {
        const auto hub = node->registry().find("main");
        for (int i = 0; i < 500 && (!hub || hub->seq() < 1); ++i) {
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
      }
      std::fprintf(stderr,
                   "[ajax_fanout] relay: %d clients across %d relays...\n", n,
                   relay_count);
      Json relayed = run_relay_round(*frontend, relays, port,
                                     relay_specs(n, relay_ports), duration_s,
                                     /*relay_depth=*/2, relay_count);
      for (const auto& node : nodes) node->stop();

      Json cmp;
      cmp["clients"] = n;
      cmp["relay_fanout"] = relay_count;
      cmp["origin_connections_direct"] = direct.at("origin_connections_peak");
      cmp["origin_connections_relayed"] =
          relayed.at("origin_connections_peak");
      cmp["origin_bytes_direct"] = direct.at("origin_bytes_sent");
      cmp["origin_bytes_relayed"] = relayed.at("origin_bytes_sent");
      const double bytes_direct = direct.at("origin_bytes_sent").as_number();
      const double bytes_relayed = relayed.at("origin_bytes_sent").as_number();
      // The headline: how many times less the origin sends at the same
      // end-client count (acceptance: >= 4x at 4 relays x 256 clients).
      cmp["origin_bytes_reduction"] =
          bytes_relayed > 0 ? bytes_direct / bytes_relayed : 0.0;
      cmp["gaps_direct"] = direct.at("gaps");
      cmp["gaps_relayed"] = relayed.at("gaps");
      cmp["errors_relayed"] = relayed.at("errors");
      cmp["delta_breaks_relayed"] =
          relayed.at("image_delta").at("delta_breaks");
      cmp["delivery_p99_ms_direct"] =
          direct.at("delivery_latency").at("p99_ms");
      cmp["delivery_p99_ms_relayed"] =
          relayed.at("delivery_latency").at("p99_ms");
      // Forwarding-without-decoding: the tier must not have touched an
      // encoder.
      cmp["relay_image_encodes"] =
          relayed.at("relay_tier").at("image_encodes");
      cmp["relay_preencoded_publishes"] =
          relayed.at("relay_tier").at("preencoded_publishes");
      comparisons.as_array().push_back(cmp);
      rounds.as_array().push_back(std::move(direct));
      rounds.as_array().push_back(std::move(relayed));
    } else if (scenario == "shard") {
      if (!first_round) fresh_frontend();
      const std::string slow_view = shard_views.back();
      // Same split twice: every view prompt, then one view's clients slow.
      // Shard isolation means the other views' fast p99 must not move.
      std::fprintf(stderr,
                   "[ajax_fanout] shard: %d clients over %zu views, all "
                   "fast...\n",
                   n, shard_views.size());
      Json baseline = run_fleet_round(
          *frontend, port,
          shard_specs(shard_views, n, "", frame_interval_s), duration_s,
          "shard", shard_views.size(), "");
      std::fprintf(stderr,
                   "[ajax_fanout] shard: %d clients, view '%s' slow...\n", n,
                   slow_view.c_str());
      Json perturbed = run_fleet_round(
          *frontend, port,
          shard_specs(shard_views, n, slow_view, frame_interval_s),
          duration_s, "shard", shard_views.size(), slow_view);

      Json cmp;
      cmp["clients"] = n;
      cmp["view_count"] = static_cast<int>(shard_views.size());
      cmp["slow_view"] = slow_view;
      cmp["gaps_all_fast"] = baseline.at("gaps");
      cmp["gaps_with_slow_view"] = perturbed.at("gaps");
      cmp["errors_all_fast"] = baseline.at("errors");
      cmp["errors_with_slow_view"] = perturbed.at("errors");
      if (baseline.contains("delivery_latency_fast_clients")) {
        cmp["fast_p99_ms_all_fast"] =
            baseline.at("delivery_latency_fast_clients").at("p99_ms");
      }
      if (perturbed.contains("delivery_latency_fast_clients")) {
        // Fast clients here = every client NOT on the slow view: the
        // isolation headline. A shared hub would drag this number up with
        // the slow view's replay traffic.
        cmp["fast_p99_ms_with_slow_view"] =
            perturbed.at("delivery_latency_fast_clients").at("p99_ms");
      }
      {
        // Per-view gap/error roll-up of the perturbed round — the
        // "zero gaps on every view" acceptance check in one place.
        Json views;
        for (const auto& [name, v] : perturbed.at("views").as_object()) {
          Json entry;
          entry["slow"] = v.at("slow");
          entry["gaps"] = v.at("gaps");
          entry["errors"] = v.at("errors");
          entry["p99_ms"] = v.at("delivery_latency").at("p99_ms");
          views[name] = entry;
        }
        cmp["views"] = views;
      }
      comparisons.as_array().push_back(cmp);
      rounds.as_array().push_back(std::move(baseline));
      rounds.as_array().push_back(std::move(perturbed));
    } else if (scenario == "congestion") {
      // Same fleet and WAN, once per law. rmsa is the paper's Eq. 1
      // baseline; gradient is the delay-based candidate under gate;
      // trendline rides along for reference.
      using ricsa::transport::ControllerKind;
      const struct {
        ControllerKind kind;
        const char* name;
      } laws[] = {{ControllerKind::kRmsa, "rmsa"},
                  {ControllerKind::kDelayGradient, "gradient"},
                  {ControllerKind::kTrendline, "trendline"}};
      std::map<std::string, Json> by_law;
      for (const auto& law : laws) {
        std::fprintf(stderr,
                     "[ajax_fanout] congestion: %d clients (%.0f%% slow), "
                     "%s, %.0f virtual s...\n",
                     n, slow_fraction * 100, law.name, duration_s);
        by_law[law.name] = run_congestion_round(law.kind, n, slow_fraction,
                                                duration_s, frame_interval_s);
      }
      Json cmp;
      cmp["clients"] = n;
      for (const auto& law : laws) {
        const Json& r = by_law[law.name];
        const std::string suffix = std::string("_") + law.name;
        cmp["tier_flaps" + suffix] = r.at("tier_flaps");
        cmp["fast_p99_ms" + suffix] =
            r.at("delivery_latency_fast_clients").at("p99_ms");
        cmp["slow_goodput_Bps" + suffix] = r.at("slow_goodput_Bps");
      }
      // The acceptance headline: the delay-gradient law holds slow clients
      // steady (fewer flaps) at equal-or-better fast-client latency.
      const double rmsa_flaps =
          by_law["rmsa"].at("tier_flaps").as_number();
      const double grad_flaps =
          by_law["gradient"].at("tier_flaps").as_number();
      cmp["flap_reduction_gradient_vs_rmsa"] =
          rmsa_flaps > 0 ? (rmsa_flaps - grad_flaps) / rmsa_flaps : 0.0;
      comparisons.as_array().push_back(cmp);
      for (const auto& law : laws) {
        rounds.as_array().push_back(std::move(by_law[law.name]));
      }
    } else {
      std::fprintf(stderr, "[ajax_fanout] %d clients for %.1f s...\n", n,
                   duration_s);
      rounds.as_array().push_back(run_round(*frontend, port, n, duration_s,
                                            slow_fraction, 0.0, false,
                                            frame_interval_s));
    }
    first_round = false;
  }

  Json report;
  report["bench"] = "ajax_fanout";
  report["scenario"] = scenario;
  report["frame_interval_s"] = frame_interval_s;
  // The server-side thread budget — constant in the client count and in
  // the view count (hub shards run on reactor 0): the reactor loops, which
  // also run the route handlers, the session's render pool, and the
  // monitor loop. Everything else in the process is bench clients. The
  // congestion scenario runs no server, so it reports none.
  if (frontend) {
    const std::size_t reactors = std::max<std::size_t>(1, config.reactors);
    const std::size_t session_pool = frontend->session_pool_threads();
    Json threads;
    threads["reactors"] = static_cast<double>(reactors);
    threads["session_pool"] = static_cast<double>(session_pool);
    threads["monitor_loop"] = 1.0;
    threads["total"] = static_cast<double>(reactors + session_pool + 1);
    report["server_threads"] = threads;
  }
  report["rounds"] = rounds;
  if (!comparisons.as_array().empty()) report["comparisons"] = comparisons;
  std::printf("%s\n", report.dump(1).c_str());
  if (frontend) frontend->stop();
  return 0;
}
