#!/usr/bin/env python3
"""Compare ajax_fanout bench JSON against the previous CI run's artifact and
maintain a rolling multi-run history.

Usage:
  bench_delta.py --previous DIR --current DIR
                 [--max-fast-p99-regression 0.5]
                 [--max-bytes-per-frame-regression 0.5]
                 [--history-out FILE] [--label SHA]

For every bench JSON present in both trees (matched by file name, searched
recursively on the previous side because artifact downloads nest a
directory per artifact), rounds are matched by (clients, adaptive,
full_resend) — plus (scenario, view_count, slow-view presence) for the
sharded rounds that carry them — and a delta summary is printed to the job
log. The job fails (exit 1) when a matched round's fast-client p99 (round
level, and per fast view for sharded rounds) — or, for the tile-delta
scenario, its steady-state bytes/frame — regresses by more than the allowed
fraction; a missing or unreadable previous side is a note, not a failure —
the first run on a branch has nothing to compare against.

Self-contained gates, applied with or without a previous artifact: the
congestion A/B, the tile-delta compression floor and byte saving (deltas
must not cost more than full frames), the protocol counters
of the transport and relay benches (every gaps_*/errors_*/delta_breaks_*
comparison field, relay_image_encodes, and the relayed round's upstream
reconnects must be 0), the mixed bench's per-round gaps, errors and
image-delta breaks (must be 0), and the server thread budget of the
fanout, shard and transport benches (every round's process.peak_threads
at most server_threads.total + 2).

History: the previous artifact may carry a bench_history.json (also searched
recursively); this run's summary is appended to it and written to
--history-out, capped to the most recent MAX_HISTORY_RUNS entries, so the
uploaded artifact accumulates a rolling window of per-run numbers (fast p99,
deliveries/s, bytes/frame) instead of only the immediately previous run. A
short trend over the retained runs is printed for each round.

Tiny baselines are noise: regressions are only enforced when the previous
p99 is at least MIN_PREV_MS and the absolute slip exceeds MIN_DELTA_MS (and,
for bytes/frame, when the previous value is at least MIN_PREV_BYTES).
"""

import argparse
import json
import pathlib
import sys

BENCH_FILES = ["ajax_fanout.json", "ajax_fanout_mixed.json",
               "ajax_fanout_fanout.json", "ajax_fanout_delta.json",
               "ajax_fanout_shard.json", "ajax_fanout_transport.json",
               "ajax_fanout_multireactor.json", "ajax_fanout_relay.json",
               "ajax_fanout_congestion.json"]
HISTORY_FILE = "bench_history.json"
MAX_HISTORY_RUNS = 50
MIN_PREV_MS = 1.0
MIN_DELTA_MS = 5.0
MIN_PREV_BYTES = 1024.0
# Congestion A/B gate: the delay-gradient controller may cost at most this
# fraction of fast-client p99 relative to RMSA in the same run.
CONGESTION_P99_TOLERANCE = 0.10
# Compression gate: the tile-delta scenario's encoder must keep at least
# this raw-bytes-in / png-bytes-out ratio. The orbiting-isosurface frames
# compress far better than this in practice; the floor catches the encoder
# silently degrading to stored blocks, not normal workload variance.
COMPRESSION_RATIO_FLOOR = 1.5
# Protocol gate: benches whose comparison blocks' gap, error and
# delta-break counts (and, for relays, image encodes and upstream
# reconnects) must all read zero. Their clients and relays read every
# response through the shared HTTP response decoder.
PROTOCOL_GATE_FILES = ["ajax_fanout_transport.json", "ajax_fanout_relay.json"]
PROTOCOL_COUNTER_PREFIXES = ("gaps_", "errors_", "delta_breaks_")
# Round gate: benches whose every round must read zero gaps, errors and
# image_delta.delta_breaks. The adaptive round of the mixed scenario is the
# one CI bench whose paced clients skip frames and so receive
# cursor-anchored deltas; its comparison block carries no protocol counter.
ROUND_GATE_FILES = ["ajax_fanout_mixed.json"]
# Thread gate: benches whose every round must peak at no more threads than
# the server budget they report (server_threads.total) plus the bench's
# own two: its main thread, which drives the one-thread epoll client
# fleet, and its resource sampler. A thread pool added to the server shows
# here whether or not latency moves.
THREAD_GATE_FILES = ["ajax_fanout_fanout.json", "ajax_fanout_shard.json",
                     "ajax_fanout_transport.json"]
BENCH_OWN_THREADS = 2


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"[bench-delta] could not read {path}: {err}")
        return None


def fast_p99(round_json):
    latency = round_json.get("delivery_latency_fast_clients") or \
        round_json.get("delivery_latency") or {}
    return latency.get("p99_ms")


def round_key(round_json):
    # Sharded rounds additionally carry (scenario, view_count, slow_view):
    # an all-fast round and a slow-view round of the same client count are
    # different workloads and must never be compared against each other.
    # Transport rounds carry "transport" ("long-poll" vs "sse") for the
    # same reason, and multireactor rounds carry "reactors" (the 4-reactor
    # round and the 1-reactor baseline share a client count). Relay rounds
    # carry "relay_depth"/"relay_fanout": the depth-1 direct baseline and
    # the depth-2 relayed round share a client count. Congestion rounds
    # carry "controller" (the same emulated WAN run once per pacing law) —
    # keying on it gates each law's fast p99 against its own history.
    # Rounds additionally carry "codec" once the PNG encoder does real
    # compression: a stored-block round and a deflate round have wildly
    # different bytes/frame and must not gate each other. Rounds without
    # those fields (every earlier scenario, and pre-codec artifacts) get
    # None for them, so existing artifacts stay comparable.
    return (round_json.get("clients"), bool(round_json.get("adaptive")),
            bool(round_json.get("full_resend")),
            round_json.get("scenario"), round_json.get("view_count"),
            bool(round_json.get("slow_view")),
            round_json.get("transport"),
            round_json.get("reactors"),
            round_json.get("relay_depth"),
            round_json.get("relay_fanout"),
            round_json.get("controller"),
            round_json.get("codec"))


def key_str(key):
    parts = [f"clients={key[0]}"]
    if key[1]:
        parts.append("adaptive")
    if key[2]:
        parts.append("full-resend")
    if key[3]:
        parts.append(f"{key[3]}/views={key[4]}")
    if key[5]:
        parts.append("slow-view")
    if key[6]:
        parts.append(key[6])
    if len(key) > 7 and key[7] is not None:
        parts.append(f"reactors={key[7]}")
    if len(key) > 8 and key[8] is not None:
        parts.append(f"depth={key[8]}")
    if len(key) > 9 and key[9]:
        parts.append(f"relays={key[9]}")
    if len(key) > 10 and key[10]:
        parts.append(f"controller={key[10]}")
    if len(key) > 11 and key[11]:
        parts.append(f"codec={key[11]}")
    return " ".join(parts)


def round_record(round_json):
    """The per-round numbers worth keeping across runs."""
    record = {
        "fast_p99_ms": fast_p99(round_json),
        "deliveries_per_sec": round_json.get("deliveries_per_sec"),
        "gaps": round_json.get("gaps"),
        "errors": round_json.get("errors"),
    }
    if "bytes_per_frame" in round_json:
        record["bytes_per_frame"] = round_json.get("bytes_per_frame")
    if "overhead_bytes_per_frame" in round_json:
        record["overhead_bytes_per_frame"] = \
            round_json.get("overhead_bytes_per_frame")
    if "tier_flaps" in round_json:
        record["tier_flaps"] = round_json.get("tier_flaps")
        record["slow_goodput_Bps"] = round_json.get("slow_goodput_Bps")
    compression = round_json.get("compression")
    if compression:
        record["compression_ratio"] = compression.get("compression_ratio")
    views = round_json.get("views")
    if views:
        record["views"] = {
            name: (view.get("delivery_latency") or {}).get("p99_ms")
            for name, view in views.items()}
    return record


def view_regressions(name, key, prev_round, cur_round, max_p99_regression):
    """Per-view fast-client p99 gate for sharded rounds: every view whose
    clients are all prompt is compared against the same view in the
    previous run's matching round, with the usual noise floors."""
    out = []
    prev_views = prev_round.get("views") or {}
    for view, cur in (cur_round.get("views") or {}).items():
        if cur.get("slow"):
            continue  # slow-consumer views measure think time, not the hub
        prev = prev_views.get(view)
        if prev is None or prev.get("slow"):
            continue
        cur_p99 = (cur.get("delivery_latency") or {}).get("p99_ms")
        prev_p99 = (prev.get("delivery_latency") or {}).get("p99_ms")
        if cur_p99 is None or prev_p99 is None:
            continue
        delta = cur_p99 - prev_p99
        if (prev_p99 >= MIN_PREV_MS and delta > MIN_DELTA_MS and
                cur_p99 > prev_p99 * (1.0 + max_p99_regression)):
            out.append(f"{name} {key_str(key)} view={view}: "
                       f"p99 {prev_p99:.1f} -> {cur_p99:.1f} ms")
    return out


def compare(name, previous, current, max_p99_regression,
            max_bpf_regression):
    # bytes/frame is a *gate* only for the tile-delta scenario, whose
    # workload is deterministic enough to hold a budget; other scenarios'
    # byte counts swing with adaptive pacing and are reported, not enforced.
    enforce_bpf = name == "ajax_fanout_delta.json"
    regressions = []
    prev_rounds = {round_key(r): r for r in previous.get("rounds", [])}
    for cur in current.get("rounds", []):
        key = round_key(cur)
        prev = prev_rounds.get(key)
        if prev is None:
            print(f"[bench-delta] {name} {key_str(key)}: no previous round")
            continue
        cur_p99, prev_p99 = fast_p99(cur), fast_p99(prev)
        cur_dps = cur.get("deliveries_per_sec", 0.0)
        prev_dps = prev.get("deliveries_per_sec", 0.0)
        parts = [f"deliveries/s {prev_dps:.0f} -> {cur_dps:.0f}"]
        verdict = "ok"
        if cur_p99 is not None and prev_p99 is not None:
            delta = cur_p99 - prev_p99
            pct = (delta / prev_p99 * 100.0) if prev_p99 > 0 else 0.0
            parts.append(
                f"fast p99 {prev_p99:.1f} -> {cur_p99:.1f} ms ({pct:+.0f}%)")
            if (prev_p99 >= MIN_PREV_MS and delta > MIN_DELTA_MS and
                    cur_p99 > prev_p99 * (1.0 + max_p99_regression)):
                verdict = "REGRESSION"
                regressions.append(
                    f"{name} {key_str(key)}: "
                    f"fast p99 {prev_p99:.1f} -> {cur_p99:.1f} ms")
        # Tile-delta bandwidth: a non-full-resend round whose bytes/frame
        # grows past the budget means the dirty-rect encoding degraded.
        cur_bpf = cur.get("bytes_per_frame")
        prev_bpf = prev.get("bytes_per_frame")
        if cur_bpf is not None and prev_bpf is not None:
            bpct = ((cur_bpf - prev_bpf) / prev_bpf * 100.0) if prev_bpf > 0 \
                else 0.0
            parts.append(
                f"bytes/frame {prev_bpf:.0f} -> {cur_bpf:.0f} ({bpct:+.0f}%)")
            if (enforce_bpf and not key[2] and prev_bpf >= MIN_PREV_BYTES and
                    cur_bpf > prev_bpf * (1.0 + max_bpf_regression)):
                verdict = "REGRESSION"
                regressions.append(
                    f"{name} {key_str(key)}: "
                    f"bytes/frame {prev_bpf:.0f} -> {cur_bpf:.0f}")
        per_view = view_regressions(name, key, prev, cur,
                                    max_p99_regression)
        if per_view:
            verdict = "REGRESSION"
            regressions += per_view
        errors = cur.get("errors", 0)
        gaps = cur.get("gaps", 0)
        parts.append(f"gaps {gaps:.0f} errors {errors:.0f}")
        print(f"[bench-delta] {name} {key_str(key)}: "
              f"{', '.join(parts)} [{verdict}]")
    return regressions


def congestion_gate(cur_root):
    """Absolute A/B gate on the congestion scenario, previous artifact or
    not: the delay-gradient controller exists to remove tier flaps, so a
    run where it flaps at least as much as RMSA — or buys its stability
    with a slower fast-client p99 — failed at its one job."""
    path = cur_root / "ajax_fanout_congestion.json"
    if not path.is_file():
        return []
    data = load(path)
    if data is None:
        return []
    failures = []
    for cmp_json in data.get("comparisons", []):
        rmsa_flaps = cmp_json.get("tier_flaps_rmsa")
        grad_flaps = cmp_json.get("tier_flaps_gradient")
        if rmsa_flaps is None or grad_flaps is None:
            continue
        label = f"congestion clients={cmp_json.get('clients')}"
        verdict = "ok"
        if grad_flaps >= rmsa_flaps:
            verdict = "REGRESSION"
            failures.append(
                f"{label}: gradient tier flaps {grad_flaps} not below "
                f"rmsa {rmsa_flaps}")
        rmsa_p99 = cmp_json.get("fast_p99_ms_rmsa")
        grad_p99 = cmp_json.get("fast_p99_ms_gradient")
        if (rmsa_p99 is not None and grad_p99 is not None and
                rmsa_p99 >= MIN_PREV_MS and
                grad_p99 > rmsa_p99 * (1.0 + CONGESTION_P99_TOLERANCE)):
            verdict = "REGRESSION"
            failures.append(
                f"{label}: gradient fast p99 {grad_p99:.1f} ms exceeds "
                f"rmsa {rmsa_p99:.1f} ms by more than "
                f"{CONGESTION_P99_TOLERANCE * 100:.0f}%")
        print(f"[bench-delta] {label}: flaps rmsa={rmsa_flaps} "
              f"gradient={grad_flaps} "
              f"trendline={cmp_json.get('tier_flaps_trendline')}, "
              f"fast p99 rmsa={rmsa_p99} gradient={grad_p99} ms [{verdict}]")
    return failures


def compression_gate(cur_root):
    """Absolute gate on the tile-delta scenario, previous artifact or not:
    every tiled round must report the deflate codec holding at least
    COMPRESSION_RATIO_FLOOR over the raw framebuffer bytes it encoded, a
    non-negative bytes_saved_fraction (delta bodies must not cost more per
    frame than full resends of the same workload), and a clean protocol run
    (no gaps, errors, or delta breaks). A ratio at ~1.0 means the encoder
    fell back to stored blocks across the board."""
    path = cur_root / "ajax_fanout_delta.json"
    if not path.is_file():
        return []
    data = load(path)
    if data is None:
        return []
    failures = []
    for cmp_json in data.get("comparisons", []):
        ratio = cmp_json.get("compression_ratio")
        if ratio is None:
            continue  # pre-codec bench binary
        label = f"delta clients={cmp_json.get('clients')}"
        verdict = "ok"
        if ratio < COMPRESSION_RATIO_FLOOR:
            verdict = "REGRESSION"
            failures.append(
                f"{label}: compression ratio {ratio:.2f} below floor "
                f"{COMPRESSION_RATIO_FLOOR:.2f}")
        saved = cmp_json.get("bytes_saved_fraction")
        if saved is not None and saved < 0:
            verdict = "REGRESSION"
            failures.append(
                f"{label}: deltas cost more than full frames "
                f"(bytes saved {saved * 100:.1f}%)")
        for field in ("gaps", "errors", "delta_breaks"):
            count = cmp_json.get(field)
            if count:
                verdict = "REGRESSION"
                failures.append(f"{label}: {count:.0f} {field} in the tiled "
                                "round")
        print(f"[bench-delta] {label}: codec={cmp_json.get('codec')} "
              f"ratio={ratio:.2f} saved="
              f"{cmp_json.get('bytes_saved_fraction', 0.0) * 100:.1f}% "
              f"[{verdict}]")
    return failures


def protocol_gate(cur_root):
    """Absolute gate on the transport and relay benches, previous artifact
    or not: every gaps_*/errors_*/delta_breaks_* field of their comparison
    blocks, relay_image_encodes, and the relayed round's
    relay_tier.upstream_reconnects must be 0. A decoder or forwarding
    regression that keeps latency intact still shows in these counters."""
    failures = []
    for name in PROTOCOL_GATE_FILES:
        path = cur_root / name
        if not path.is_file():
            continue
        data = load(path)
        if data is None:
            continue
        reconnects = {r.get("clients"): r["relay_tier"].get("upstream_reconnects")
                      for r in data.get("rounds", []) if "relay_tier" in r}
        for cmp_json in data.get("comparisons", []):
            label = f"{name} clients={cmp_json.get('clients')}"
            counters = {key: value for key, value in cmp_json.items()
                        if key.startswith(PROTOCOL_COUNTER_PREFIXES) or
                        key == "relay_image_encodes"}
            if cmp_json.get("clients") in reconnects:
                counters["relay_tier.upstream_reconnects"] = \
                    reconnects[cmp_json.get("clients")]
            nonzero = {key: value for key, value in counters.items() if value}
            for key, value in sorted(nonzero.items()):
                failures.append(f"{label}: {key} = {value:.0f}, must be 0")
            print(f"[bench-delta] {label}: {len(counters)} protocol counters "
                  f"{'all 0 [ok]' if not nonzero else '[REGRESSION]'}")
    return failures


def round_gate(cur_root):
    """Absolute gate on the mixed bench, previous artifact or not: every
    round's gaps, errors and image_delta.delta_breaks must be 0. A broken
    cursor-anchored delta shows as a delta break on the client that could
    not composite it."""
    failures = []
    for name in ROUND_GATE_FILES:
        path = cur_root / name
        if not path.is_file():
            continue
        data = load(path)
        if data is None:
            continue
        for r in data.get("rounds", []):
            label = f"{name} {key_str(round_key(r))}"
            counters = {
                "gaps": r.get("gaps"),
                "errors": r.get("errors"),
                "image_delta.delta_breaks":
                    (r.get("image_delta") or {}).get("delta_breaks"),
            }
            nonzero = {key: value for key, value in counters.items() if value}
            for key, value in sorted(nonzero.items()):
                failures.append(f"{label}: {key} = {value:.0f}, must be 0")
            print(f"[bench-delta] {label}: gaps/errors/delta breaks "
                  f"{'all 0 [ok]' if not nonzero else '[REGRESSION]'}")
    return failures


def thread_gate(cur_root):
    """Absolute gate on the epoll-fleet benches, previous artifact or not:
    every round's process.peak_threads must be at most
    server_threads.total + BENCH_OWN_THREADS. (The multireactor bench
    reports the 4-reactor budget for its 1-reactor rounds too, so it is
    not gated.)"""
    failures = []
    for name in THREAD_GATE_FILES:
        path = cur_root / name
        if not path.is_file():
            continue
        data = load(path)
        if data is None:
            continue
        budget = (data.get("server_threads") or {}).get("total")
        if budget is None:
            failures.append(f"{name}: no server_threads.total")
            continue
        limit = budget + BENCH_OWN_THREADS
        for r in data.get("rounds", []):
            label = f"{name} {key_str(round_key(r))}"
            peak = (r.get("process") or {}).get("peak_threads")
            if peak is None:
                failures.append(f"{label}: no process.peak_threads")
                continue
            verdict = "ok" if peak <= limit else "REGRESSION"
            if peak > limit:
                failures.append(f"{label}: peak_threads {peak:.0f} above "
                                f"server budget {budget:.0f} + "
                                f"{BENCH_OWN_THREADS}")
            print(f"[bench-delta] {label}: peak_threads {peak:.0f}, limit "
                  f"{limit:.0f} [{verdict}]")
    return failures


def summarize_run(cur_root, label):
    """This run's compact history record, one entry per bench file/round."""
    record = {"label": label, "benches": {}}
    for name in BENCH_FILES:
        data = load(cur_root / name) if (cur_root / name).is_file() else None
        if data is None:
            continue
        rounds = {}
        for r in data.get("rounds", []):
            rounds["/".join(str(k) for k in round_key(r))] = round_record(r)
        comparisons = data.get("comparisons")
        bench = {"rounds": rounds}
        if comparisons:
            bench["comparisons"] = comparisons
        record["benches"][name] = bench
    return record


def print_trends(history):
    """Per-round trend lines over the retained history window."""
    runs = history.get("runs", [])
    if len(runs) < 2:
        return
    print(f"[bench-delta] history: {len(runs)} runs retained")
    series = {}
    for run in runs:
        for name, bench in run.get("benches", {}).items():
            for key, rec in bench.get("rounds", {}).items():
                series.setdefault((name, key), []).append(rec)
    for (name, key), recs in sorted(series.items()):
        tail = recs[-5:]
        p99s = [r.get("fast_p99_ms") for r in tail
                if r.get("fast_p99_ms") is not None]
        bpfs = [r.get("bytes_per_frame") for r in tail
                if r.get("bytes_per_frame") is not None]
        parts = []
        if p99s:
            parts.append("p99 " + " -> ".join(f"{x:.1f}" for x in p99s) + " ms")
        if bpfs:
            parts.append("B/frame " + " -> ".join(f"{x:.0f}" for x in bpfs))
        if parts:
            print(f"[bench-delta]   {name} {key}: {'; '.join(parts)}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--previous", required=True)
    parser.add_argument("--current", required=True)
    parser.add_argument("--max-fast-p99-regression", type=float, default=0.5)
    parser.add_argument("--max-bytes-per-frame-regression", type=float,
                        default=0.5)
    parser.add_argument("--history-out", default=None,
                        help="write the merged rolling history here")
    parser.add_argument("--label", default="",
                        help="identifier for this run (e.g. the commit sha)")
    args = parser.parse_args()

    prev_root = pathlib.Path(args.previous)
    cur_root = pathlib.Path(args.current)

    # Merge the rolling history first: it survives even when the regression
    # gate below fails the job, because it is written before the exit.
    history = {"runs": []}
    if prev_root.is_dir():
        prev_history = sorted(prev_root.rglob(HISTORY_FILE))
        if prev_history:
            loaded = load(prev_history[0])
            if loaded and isinstance(loaded.get("runs"), list):
                history = loaded
    history["runs"].append(summarize_run(cur_root, args.label))
    history["runs"] = history["runs"][-MAX_HISTORY_RUNS:]
    if args.history_out:
        with open(args.history_out, "w") as f:
            json.dump(history, f, indent=1)
        print(f"[bench-delta] rolling history ({len(history['runs'])} runs) "
              f"-> {args.history_out}")
    print_trends(history)

    # The congestion A/B, the tile-delta compression floor and byte saving,
    # the protocol counters, the mixed bench's round counters and the
    # thread budget are self-contained in the current run, so those gates
    # apply even on a first run with no previous artifact.
    regressions = list(congestion_gate(cur_root))
    regressions += compression_gate(cur_root)
    regressions += protocol_gate(cur_root)
    regressions += round_gate(cur_root)
    regressions += thread_gate(cur_root)

    if not prev_root.is_dir():
        print(f"[bench-delta] no previous artifact at {prev_root}; "
              "nothing to compare (first run?)")
        if regressions:
            print("[bench-delta] FAILING: self-contained gates:")
            for line in regressions:
                print(f"  - {line}")
            return 1
        return 0

    compared = 0
    for name in BENCH_FILES:
        cur_path = cur_root / name
        if not cur_path.is_file():
            continue
        prev_matches = sorted(prev_root.rglob(name))
        if not prev_matches:
            print(f"[bench-delta] {name}: not in previous artifact")
            continue
        current = load(cur_path)
        previous = load(prev_matches[0])
        if current is None or previous is None:
            continue
        compared += 1
        regressions += compare(name, previous, current,
                               args.max_fast_p99_regression,
                               args.max_bytes_per_frame_regression)

    if compared == 0:
        print("[bench-delta] no comparable bench files found")
        return 0
    if regressions:
        print("[bench-delta] FAILING: regression beyond budget "
              f"(p99 {args.max_fast_p99_regression * 100:.0f}%, bytes/frame "
              f"{args.max_bytes_per_frame_regression * 100:.0f}%):")
        for line in regressions:
            print(f"  - {line}")
        return 1
    print("[bench-delta] all compared rounds within the regression budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
