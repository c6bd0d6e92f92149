#include "web/frame_service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "net/buffer_chain.hpp"

namespace ricsa::web {

namespace {

using Clock = std::chrono::steady_clock;

/// The embedded dashboard: no frameworks. Prefers the SSE push channel
/// (/api/stream — one request, events forever) and falls back to plain XHR
/// long-polling when EventSource is missing or the stream fails before its
/// first event. Both transports ask for delta=1 and merge partial state
/// updates client-side — only the UI elements that contain new information
/// change, the partial-update behaviour the paper highlights about Ajax
/// UIs.
constexpr const char* kDashboardHtml = R"HTML(<!doctype html>
<html><head><meta charset="utf-8"><title>RICSA monitor</title>
<style>
 body{font-family:sans-serif;background:#101018;color:#dde;margin:20px}
 #frame{border:1px solid #446;image-rendering:pixelated;width:384px;height:384px}
 .row{margin:6px 0} label{display:inline-block;width:120px}
 input{width:80px} button{margin-left:4px}
 #status{white-space:pre;font-family:monospace;font-size:12px;color:#9fb}
</style></head><body>
<h2>RICSA &mdash; computational monitoring &amp; steering</h2>
<div style="display:flex;gap:24px">
 <div><canvas id="frame" width="384" height="384"></canvas></div>
 <div>
  <div class="row"><label>watch view</label>
   <select id="viewsel"><option>main</option></select></div>
  <div class="row"><label>variable</label>
   <select id="variable"><option>density</option><option>pressure</option>
   <option>velocity</option><option>energy</option></select></div>
  <div class="row"><label>isovalue</label><input id="isovalue" value="0.5"/></div>
  <div class="row"><label>azimuth</label><input id="azimuth" value="0.7"/></div>
  <div class="row"><label>zoom</label><input id="zoom" value="1.0"/></div>
  <div class="row"><label>octant</label><input id="octant" value="-1"/></div>
  <div class="row"><button onclick="postView()">apply view</button></div>
  <hr/>
  <div class="row"><label>parameter</label><input id="pname" value="gamma"/></div>
  <div class="row"><label>value</label><input id="pvalue" value="1.4"/></div>
  <div class="row"><button onclick="steer()">steer</button></div>
 </div>
</div>
<div id="status">connecting...</div>
<script>
// Sharded hubs: every published view is its own server-side stream with
// its own seq space and tile-delta chain, so the dashboard keeps one
// cursor record per view — switching back to a view resumes its stream
// instead of restarting it.
//   since      last seq received (the poll cursor)
//   composited seq of the frame last painted for this view (what tile
//              deltas patch)
//   needFull   resync escape hatch: when a delta cannot be composited, the
//              next poll asks for a complete frame with full=1
let currentView = 'main';
const viewRecs = {};
function rec(name){
  if (!viewRecs[name]) {
    viewRecs[name] = {since: 0, composited: 0, needFull: true, state: {},
                      tier: 'full'};
  }
  return viewRecs[name];
}
let tier = 'full';
// Frame generation: image decodes are async, so a slow decode from frame N
// must never paint over a frame accepted after it — stale generations are
// dropped on decode completion. A view switch also bumps it, so decodes of
// the previous view never paint over the new one. Within the surviving
// generation the composite cursor is assigned *unconditionally* (never
// max()-guarded): after a server restart the resync frame carries a
// smaller seq than the stale cursor, and refusing to move backwards would
// wedge the client out of tile deltas forever.
let frameGen = 0;
// Poll epoch: a view switch aborts the in-flight long-poll and starts a
// fresh loop; the aborted handler sees a stale epoch and exits instead of
// double-looping.
let pollEpoch = 0;
let pollXhr = null;
// Preferred transport: the SSE push channel when the browser has
// EventSource; demoted to 'poll' the moment a stream fails before its
// first event (startStream's negotiation).
let transport = (typeof EventSource !== 'undefined') ? 'sse' : 'poll';
let es = null;
const canvas = document.getElementById('frame');
const ctx = canvas.getContext('2d');
// Per-client session identity: the server meters this client's goodput and
// adapts its quality tier / frame rate (the paper's network optimization,
// applied per browser). One identity across every view this browser
// watches — the server paces the client, not each stream.
const client = 'c' + Math.random().toString(36).slice(2, 10) +
               Date.now().toString(36);
function drawFull(v, b64, seq){
  const gen = ++frameGen;
  const im = new Image();
  im.onload = function(){
    if (gen !== frameGen) return;  // a newer frame superseded this decode
    if (canvas.width !== im.width || canvas.height !== im.height) {
      canvas.width = im.width; canvas.height = im.height;
    }
    ctx.drawImage(im, 0, 0);
    v.composited = seq;
    v.needFull = false;
  };
  im.onerror = function(){ v.needFull = true; };
  im.src = 'data:image/png;base64,' + b64;
}
function drawTiles(v, r){
  // Decode every tile first, then paint all of them in one synchronous
  // pass: the visible canvas never shows a partially patched frame, and
  // the composite cursor advances atomically with the paint. Any decode
  // failure falls back to full=1.
  const gen = ++frameGen;
  let pending = r.tiles.length;
  if (pending === 0) { v.composited = r.seq; return; }
  const decoded = new Array(pending);
  r.tiles.forEach(function(t, i){
    const im = new Image();
    im.onload = function(){
      if (gen !== frameGen) return;
      decoded[i] = im;
      if (--pending === 0) {
        r.tiles.forEach(function(t2, j){
          ctx.drawImage(decoded[j], t2.x, t2.y);
        });
        v.composited = r.seq;
      }
    };
    im.onerror = function(){ v.needFull = true; };
    im.src = 'data:image/png;base64,' + t.png_b64;
  });
}
// One frame body — the transports carry identical JSON, so SSE events and
// poll responses land in the same handler.
function handleFrame(v, view, r){
  // Accept any non-timeout frame — including a resync whose seq is
  // *below* a stale cursor (the server restarted and its seq re-counts
  // from 1).
  if (!r.seq || r.timeout) return;
  // Delta responses carry only the changed keys; merge them.
  if (r.delta && r.seq === v.since + 1) Object.assign(v.state, r.state);
  else v.state = r.state;
  v.since = r.seq;
  if (r.tier) { tier = r.tier; v.tier = r.tier; }
  if (r.tiles) {
    // Tiles patch the frame named by base_seq; anything else on the
    // canvas would yield a franken-frame — resync instead.
    if (r.base_seq === v.composited) drawTiles(v, r);
    else v.needFull = true;
  } else if (r.image_b64) {
    drawFull(v, r.image_b64, r.seq);
  } else {
    // No tiles and no image: the frame's pixels are byte-identical
    // to what the canvas already shows (or this is a state-only
    // tier, where a later tier switch forces a full frame anyway) —
    // advance the composite cursor so the tile chain survives idle
    // frames instead of forcing a needless full resync. A decode
    // still in flight may re-assign its own (older) seq afterwards;
    // that costs at most one transient full resync.
    v.composited = r.seq;
  }
  document.getElementById('status').textContent =
      'view: ' + view + '  tier: ' + tier + ' (' + transport + ')\n' +
      JSON.stringify(v.state, null, 1);
}
function poll(){
  const epoch = pollEpoch;
  const view = currentView;
  const v = rec(view);
  const xhr = new XMLHttpRequest();
  pollXhr = xhr;
  // The cursor echoes the seq last *composited* for this view: the server
  // anchors tile deltas at the frame this client actually shows.
  xhr.open('GET', '/api/poll?since=' + v.since + '&delta=1&client=' + client +
           '&view=' + encodeURIComponent(view) +
           (v.needFull ? '&full=1' : ''), true);
  xhr.onload = function(){
    if (epoch !== pollEpoch) return;  // superseded by a view switch
    try { handleFrame(v, view, JSON.parse(xhr.responseText)); } catch(e) {}
    poll();
  };
  xhr.onerror = function(){
    if (epoch !== pollEpoch) return;
    setTimeout(function(){ if (epoch === pollEpoch) poll(); }, 1000);
  };
  xhr.send();
}
// Transport negotiation: one EventSource replaces the whole poll loop —
// same query contract, same bodies, one `data:` event per frame. Any
// failure before the first event means no server-side stream support (or a
// proxy eating chunked responses): fall back to long-poll for good. A
// failure *after* events flowed is a server stop/restart; reconnect over
// SSE and take the stale-cursor resync.
function startStream(){
  const epoch = pollEpoch;
  const view = currentView;
  const v = rec(view);
  let gotEvent = false;
  es = new EventSource('/api/stream?since=' + v.since + '&delta=1&client=' +
                       client + '&view=' + encodeURIComponent(view) +
                       (v.needFull ? '&full=1' : ''));
  es.onmessage = function(e){
    if (epoch !== pollEpoch) return;
    gotEvent = true;
    try { handleFrame(v, view, JSON.parse(e.data)); } catch(err) {}
    if (v.needFull) {
      // A delta could not be composited mid-stream: reconnect asking the
      // first event to be a complete frame (the stream's full=1 resync).
      ++pollEpoch;
      es.close(); es = null;
      startTransport();
    }
  };
  es.onerror = function(){
    if (epoch !== pollEpoch) return;
    ++pollEpoch;
    es.close(); es = null;
    if (!gotEvent) transport = 'poll';
    setTimeout(function(){ startTransport(); }, gotEvent ? 250 : 0);
  };
}
function startTransport(){
  if (transport === 'sse') startStream(); else poll();
}
function switchView(){
  currentView = document.getElementById('viewsel').value;
  // The canvas holds another view's pixels: tile deltas must not patch
  // them. Ask for a complete frame and invalidate in-flight decodes.
  rec(currentView).needFull = true;
  ++frameGen;
  ++pollEpoch;
  if (pollXhr) pollXhr.abort();
  if (es) { es.close(); es = null; }
  startTransport();
}
function refreshViews(){
  // The registry's live shards populate the selector: what the publisher
  // declares is what a browser can watch.
  const xhr = new XMLHttpRequest();
  xhr.open('GET', '/api/stats', true);
  xhr.onload = function(){
    try {
      const names = Object.keys(JSON.parse(xhr.responseText).views || {});
      const sel = document.getElementById('viewsel');
      const have = {};
      for (let i = 0; i < sel.options.length; i++) {
        have[sel.options[i].value] = true;
      }
      names.forEach(function(n){
        if (!have[n]) {
          const opt = document.createElement('option');
          opt.value = n; opt.textContent = n;
          sel.appendChild(opt);
        }
      });
    } catch(e) {}
    setTimeout(refreshViews, 5000);
  };
  xhr.onerror = function(){ setTimeout(refreshViews, 5000); };
  xhr.send();
}
document.getElementById('viewsel').onchange = switchView;
refreshViews();
function steer(){
  const body = {};
  body[document.getElementById('pname').value] =
      parseFloat(document.getElementById('pvalue').value);
  const xhr = new XMLHttpRequest();
  xhr.open('POST', '/api/steer', true);
  xhr.send(JSON.stringify(body));
}
function postView(){
  const body = {
    variable: document.getElementById('variable').value,
    isovalue: parseFloat(document.getElementById('isovalue').value),
    azimuth: parseFloat(document.getElementById('azimuth').value),
    zoom: parseFloat(document.getElementById('zoom').value),
    octant: parseInt(document.getElementById('octant').value)
  };
  // A blank or non-numeric field keeps its setting: the server refuses null.
  for (const k in body) if (Number.isNaN(body[k])) delete body[k];
  const xhr = new XMLHttpRequest();
  xhr.open('POST', '/api/view', true);
  xhr.send(JSON.stringify(body));
}
startTransport();
</script></body></html>)HTML";

/// Strict cursor parse: std::stoull silently negates a leading '-' ("-1"
/// wraps to 2^64-1) and ignores trailing garbage, so insist on a digit up
/// front and a full parse.
bool parse_since(const std::string& raw, std::uint64_t& out) {
  if (raw.empty() || raw[0] < '0' || raw[0] > '9') return false;
  try {
    std::size_t parsed = 0;
    out = static_cast<std::uint64_t>(std::stoull(raw, &parsed));
    return parsed == raw.size();
  } catch (const std::exception&) {
    return false;
  }
}

/// Strict wait-timeout parse: std::stod accepts "nan" and negatives
/// without throwing, and either would poison the hub's deadline
/// arithmetic. Clamps to [0, ceiling].
bool parse_timeout(const std::string& raw, double ceiling, double& out) {
  try {
    std::size_t parsed = 0;
    const double value = std::stod(raw, &parsed);
    if (parsed != raw.size() || std::isnan(value)) return false;
    out = std::clamp(value, 0.0, ceiling);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

Clock::time_point after_s(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

/// Writes a complete response through a stream route's sink: a non-200
/// chunked reply EventSource treats as fatal, which is what drives the
/// dashboard's fallback to long-poll.
void send_over_stream(const HttpServer::StreamSink& sink,
                      const HttpResponse& response) {
  sink.begin(response.headers, response.status);
  sink.chunk(response.body + "\n");
  sink.end();
}

util::Json hub_stats_json(const FrameHub& hub) {
  const FrameHub::Stats s = hub.stats();
  util::Json out;
  out["seq"] = static_cast<double>(hub.seq());
  out["published"] = static_cast<double>(s.published);
  out["served"] = static_cast<double>(s.served);
  out["timeouts"] = static_cast<double>(s.timeouts);
  out["waiting"] = static_cast<double>(s.waiting);
  out["waiting_peak"] = static_cast<double>(s.waiting_peak);
  out["image_encodes"] = static_cast<double>(s.image_encodes);
  out["preencoded_publishes"] = static_cast<double>(s.preencoded_publishes);
  out["image_bytes_in"] = static_cast<double>(s.image_bytes_in);
  out["image_bytes_out"] = static_cast<double>(s.image_bytes_out);
  return out;
}

}  // namespace

/// One client's place in one view: the parsed query contract plus its
/// cursors. A poll carries it through its (re-)parks, a stream for its
/// whole life.
struct FrameService::Subscription {
  std::shared_ptr<FrameHub> hub;
  std::string view;
  /// Pacing session for a `client=` id; null serves the client unpaced.
  std::shared_ptr<ClientSession> session;
  /// Seq of the frame the client last received: what deltas anchor on and
  /// what a timeout echoes.
  std::uint64_t since = 0;
  /// Where the next hub wait starts: `since`, or past frames skipped as
  /// unservable.
  std::uint64_t cursor = 0;
  bool want_delta = false;
  /// full=1: the next body must be complete, whatever the cursor.
  bool force_full = false;
  double timeout_s = 0.0;
  /// Poll deadline; re-parks wait only for what is left of it.
  Clock::time_point deadline;
};

/// One pacing decision: the tier and wait options for the next frame.
struct FrameService::Step {
  Tier tier = Tier::kFull;
  bool delta_ok = true;
  double cadence_s = 0.0;
  FrameHub::WaitOptions options;
};

/// One SSE subscription.
struct FrameService::Stream {
  Subscription sub;
  HttpServer::StreamSink sink;
};

FrameService::FrameService(HubRegistry::Config registry, Setup setup,
                           ServingPolicy policy, double cadence_s)
    : setup_(setup),
      policy_(std::move(policy)),
      cadence_s_(cadence_s),
      registry_([&] {
        registry.hub.reactor = &server_.reactor();
        registry.hub.max_wait_s = setup.poll_timeout_s;
        return std::move(registry);
      }()) {
  // The idle-read timeout must exceed the longest wait any route hands
  // out, else a legal configuration kills keep-alive connections mid-poll.
  server_.set_idle_read_timeout(setup_.poll_timeout_s + 15.0);
  server_.set_max_connections(setup_.max_connections);
  // set_reactors keeps reactor(0)'s identity, so the hub sweeps the
  // registry registered on it above stay valid.
  server_.set_reactors(setup_.reactors);

  route("GET", "/", [](const HttpRequest&) {
    return HttpResponse::html(kDashboardHtml);
  });
  route("GET", "/api/state",
        [this](const HttpRequest& r) { return handle_state(r); });
  route("GET", "/api/stats",
        [this](const HttpRequest& r) { return handle_stats(r); });
  server_.route_async("GET", "/api/poll",
                      [this](const HttpRequest& r, HttpServer::ResponseSink s) {
                        handle_poll(r, std::move(s));
                      });
  server_.route_stream("GET", "/api/stream",
                       [this](const HttpRequest& r, HttpServer::StreamSink s) {
                         handle_stream(r, std::move(s));
                       });
}

void FrameService::route(const std::string& method, const std::string& path,
                         HttpServer::Handler handler) {
  server_.route(method, path,
                [this, handler = std::move(handler)](const HttpRequest& r) {
                  std::optional<HttpResponse> refusal = refused(r);
                  return decorated(refusal ? std::move(*refusal) : handler(r));
                });
}

void FrameService::route_async(
    const std::string& method, const std::string& path,
    std::function<void(const HttpRequest&, Reply reply)> handler) {
  server_.route_async(
      method, path,
      [this, handler = std::move(handler)](const HttpRequest& r,
                                           HttpServer::ResponseSink sink) {
        if (std::optional<HttpResponse> refusal = refused(r)) {
          sink(decorated(std::move(*refusal)));
          return;
        }
        handler(r, [this, sink](HttpResponse response) {
          sink(decorated(std::move(response)));
        });
      });
}

void FrameService::stop() {
  server_.stop();
  registry_.shutdown();
}

std::optional<HttpResponse> FrameService::refused(
    const HttpRequest& request) const {
  return policy_.refuse ? policy_.refuse(request) : std::nullopt;
}

HttpResponse FrameService::decorated(HttpResponse response) const {
  if (policy_.decorate) policy_.decorate(response.headers);
  return response;
}

std::shared_ptr<FrameHub> FrameService::resolve_view(
    const HttpRequest& request, std::string* resolved) {
  std::string view = request.query_param("view");
  if (view.empty()) view = registry_.default_view_name();
  const std::shared_ptr<FrameHub> hub = registry_.find(view);
  if (resolved != nullptr) *resolved = std::move(view);
  return hub;
}

std::optional<HttpResponse> FrameService::open(const HttpRequest& request,
                                               Subscription& sub) {
  if (auto refusal = refused(request)) return refusal;
  sub.hub = resolve_view(request, &sub.view);
  if (!sub.hub) return HttpResponse::not_found();
  if (!parse_since(request.query_param("since", "0"), sub.since)) {
    return HttpResponse::bad_request("since must be a non-negative integer");
  }
  sub.cursor = sub.since;
  sub.timeout_s = setup_.poll_timeout_s;
  const std::string timeout_raw = request.query_param("timeout");
  if (!timeout_raw.empty() &&
      !parse_timeout(timeout_raw, setup_.poll_timeout_s, sub.timeout_s)) {
    return HttpResponse::bad_request("timeout must be a number, not NaN");
  }
  sub.want_delta = request.query_param("delta", "0") == "1";
  sub.force_full = request.query_param("full", "0") == "1";
  // Per-client adaptive pacing: a `client` id opts into a session whose
  // measured goodput picks the tier and the minimum inter-frame interval.
  // The id is attacker-chosen input that becomes a map key, so an invalid
  // one counts as absent; a null session (table at its cap) is served
  // unpaced. One table for every view and both transports: a browser
  // keeps its meters across shards and channels.
  const std::string client = sanitize_client_id(request.query_param("client"));
  if (!client.empty()) {
    sub.session = registry_.sessions().acquire(client, request.peer,
                                               mono_now_s());
  }
  return std::nullopt;
}

FrameService::Step FrameService::decide(const Subscription& sub) const {
  Step step;
  step.cadence_s = cadence_s_.load();
  step.options.timeout_s = sub.timeout_s;
  if (!sub.session) return step;
  const double now = mono_now_s();
  const ClientSession::Decision decision =
      sub.session->decide(now, step.cadence_s, sub.view);
  if (!policy_.full_tier_only) {
    step.tier = decision.tier;
    step.delta_ok = decision.allow_delta;
  }
  step.options.latest_only = decision.skip_to_latest;
  if (decision.not_before_s > now) {
    step.options.not_before = after_s(decision.not_before_s - now);
  }
  return step;
}

std::shared_ptr<const std::string> FrameService::select_body(
    const Subscription& sub, const Step& step, const FramePtr& frame) const {
  // Cheapest first. A cursor exactly one frame behind (same tier as its
  // previous delivery) gets the prebuilt sequential delta. A cursor
  // further behind gets a delta assembled against its actual cursor frame
  // from the publish-time tile encodes, while that frame is retained.
  // Everyone else (fresh clients, cursors past the window, tier changes,
  // full=1, stale epochs) gets the full snapshot. Prebuilt bodies alias
  // the frame (body_shared), so N watchers of one frame share one buffer.
  const bool delta = sub.want_delta && !sub.force_full && step.delta_ok;
  std::shared_ptr<const std::string> body;
  if (delta && frame->seq == sub.since + 1) {
    body = body_shared(frame, step.tier, true);
  } else if (delta && sub.since > 0 && frame->seq > sub.since + 1) {
    std::string assembled = sub.hub->delta_body_for(frame, sub.since,
                                                    step.tier);
    if (!assembled.empty()) {
      body = std::make_shared<const std::string>(std::move(assembled));
    }
  }
  if (!body || body->empty()) body = body_shared(frame, step.tier, false);
  return body;
}

std::function<void()> FrameService::dispatch(const Subscription& sub,
                                             const Step& step,
                                             std::size_t bytes,
                                             std::uint64_t frame_seq) const {
  if (!sub.session) return nullptr;
  // Stamp the dispatch instant; the drain callback completes the bracket
  // (enqueue to socket-buffer empty), the per-delivery RTT the
  // delay-based controllers steer on. TCP backpressure from a slow reader
  // shows up as drain latency on either transport.
  const std::uint64_t skipped =
      (sub.since != 0 && frame_seq > sub.since + 1)
          ? frame_seq - sub.since - 1
          : 0;
  sub.session->note_dispatch(mono_now_s(), sub.view);
  return [session = sub.session, view = sub.view, bytes, skipped,
          tier = step.tier, cadence = step.cadence_s] {
    session->on_delivered(mono_now_s(), bytes, skipped, tier, cadence, view);
  };
}

void FrameService::handle_poll(const HttpRequest& request,
                               HttpServer::ResponseSink sink) {
  Subscription sub;
  if (auto error = open(request, sub)) {
    sink(decorated(std::move(*error)));
    return;
  }
  sub.deadline = after_s(sub.timeout_s);
  const Step step = decide(sub);
  park_poll(std::move(sub), step, std::move(sink));
}

void FrameService::park_poll(Subscription sub, const Step& step,
                             HttpServer::ResponseSink sink) {
  FrameHub::WaitOptions options = step.options;
  options.timeout_s = std::max(
      0.0,
      std::chrono::duration<double>(sub.deadline - Clock::now()).count());
  // The completion holds the hub: a shard shut down mid-wait (the server
  // stopping) stays valid until its last parked completion ran.
  const std::shared_ptr<FrameHub> hub = sub.hub;
  const std::uint64_t cursor = sub.cursor;
  hub->wait_async(
      cursor, options,
      [this, sub = std::move(sub), step,
       sink = std::move(sink)](FramePtr frame) mutable {
        if (frame) {
          std::shared_ptr<const std::string> body =
              select_body(sub, step, frame);
          if (!body->empty()) {
            const std::size_t bytes = body->size();
            sink(decorated(HttpResponse::json_shared(std::move(body))),
                 dispatch(sub, step, bytes, frame->seq));
            return;
          }
          // No body this client can use: ask for a full frame and re-park
          // just past this one until it lands or the deadline passes.
          // Synchronous completions recurse at most window-depth.
          if (policy_.request_full) policy_.request_full(sub.view);
          if (Clock::now() < sub.deadline) {
            sub.cursor = frame->seq;
            park_poll(std::move(sub), step, std::move(sink));
            return;
          }
        }
        // Echo the client's own cursor, not the head: a publish racing
        // this timeout must not let the client skip a frame it never got.
        util::Json out;
        out["seq"] = static_cast<double>(sub.since);
        out["timeout"] = true;
        sink(decorated(HttpResponse::json(out.dump())));
        if (sub.session) sub.session->on_timeout(mono_now_s());
      });
}

void FrameService::handle_stream(const HttpRequest& request,
                                 HttpServer::StreamSink sink) {
  auto s = std::make_shared<Stream>();
  // Bad parameters are answered before the connection converts.
  if (auto error = open(request, s->sub)) {
    send_over_stream(sink, decorated(std::move(*error)));
    return;
  }
  // Unlike a poll, where the client pays a round trip per retry, the
  // keepalive loop is server-driven: a zero timeout would spin it at wire
  // speed. Floor it.
  s->sub.timeout_s = std::max(s->sub.timeout_s, 0.05);
  std::map<std::string, std::string> headers = {
      {"Content-Type", "text/event-stream"}, {"Cache-Control", "no-cache"}};
  if (policy_.decorate) policy_.decorate(headers);
  sink.begin(std::move(headers));
  // HEAD: the stream's headers went out and the connection closes, never
  // a parked, suppressed, infinite body.
  if (sink.head_only()) return;
  s->sink = std::move(sink);
  pump(s);
}

/// One step of the push loop: the pacing decision a poll would make, a
/// park on the hub, and on completion the body a poll would carry. The
/// next step is armed only from the chunk's drained callback, so a slow
/// consumer paces its own stream through TCP backpressure. No unbounded
/// recursion: chunk() defers through a reactor post, breaking the chain
/// at every event.
void FrameService::pump(const std::shared_ptr<Stream>& s) {
  if (!s->sink.alive()) return;
  const Step step = decide(s->sub);
  s->sub.hub->wait_async(s->sub.cursor, step.options, [this, s,
                                                       step](FramePtr frame) {
    Subscription& sub = s->sub;
    if (!frame) {
      if (sub.hub->is_shutdown()) {
        // The server is stopping: end the stream; a client reconnecting
        // to a restarted server brings its stale cursor and takes the
        // resync long-pollers take.
        s->sink.end();
        return;
      }
      if (sub.session) sub.session->on_timeout(mono_now_s());
      // A comment line feeds the client's liveness timer without touching
      // onmessage: SSE for "still here, nothing new".
      s->sink.chunk(": keepalive\n\n", [this, s] { pump(s); });
      return;
    }
    std::shared_ptr<const std::string> body = select_body(sub, step, frame);
    if (body->empty()) {
      // Skip the frame and wait for the full one; the client's cursor
      // stays where it is.
      if (policy_.request_full) policy_.request_full(sub.view);
      sub.cursor = frame->seq;
      pump(s);
      return;
    }
    const std::size_t bytes = body->size();
    std::function<void()> delivered = dispatch(sub, step, bytes, frame->seq);
    sub.force_full = false;
    sub.since = sub.cursor = frame->seq;
    // The event is a chain, not a concatenation: small copied framing
    // lines bracket the shared body (compact JSON, never a raw newline).
    net::BufferChain event;
    event.append_copy("id: " + std::to_string(frame->seq) + "\ndata: ");
    event.append_shared(std::move(body));
    event.append_copy("\n\n");
    s->sink.chunk(std::move(event), [this, s,
                                     delivered = std::move(delivered)] {
      if (delivered) delivered();
      pump(s);
    });
  });
}

HttpResponse FrameService::handle_state(const HttpRequest& request) {
  const std::shared_ptr<FrameHub> hub = resolve_view(request, nullptr);
  if (!hub) return HttpResponse::not_found();
  const FramePtr frame = hub->latest();
  util::Json out;
  out["seq"] = static_cast<double>(frame ? frame->seq : 0);
  out["state"] = frame ? frame->state : util::Json();
  return HttpResponse::json(out.dump());
}

HttpResponse FrameService::handle_stats(const HttpRequest& request) {
  std::string view;
  const std::shared_ptr<FrameHub> hub = resolve_view(request, &view);
  if (!hub) return HttpResponse::not_found();
  // The top level describes the requested (or default) view's shard;
  // `views` carries every shard so dashboards can list what is watchable,
  // `pacing` the per-client sessions (registry-level: sessions span
  // views).
  util::Json out = hub_stats_json(*hub);
  out["view"] = view;
  out["connections_open"] = static_cast<double>(server_.connections_open());
  out["bytes_sent"] = static_cast<double>(server_.bytes_sent());
  out["requests_served"] = static_cast<double>(server_.requests_served());
  util::Json views;
  for (const std::string& name : registry_.view_names()) {
    const std::shared_ptr<FrameHub> shard = registry_.find(name);
    if (shard) views[name] = hub_stats_json(*shard);
  }
  out["views"] = views;
  out["pacing"] = registry_.sessions().stats_json(mono_now_s());
  if (policy_.add_stats) policy_.add_stats(out);
  return HttpResponse::json(out.dump());
}

}  // namespace ricsa::web
