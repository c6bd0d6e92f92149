#!/usr/bin/env python3
"""Gate ajax_fanout bench JSON, compare it against the previous CI run's
artifact and maintain a rolling multi-run history.

Usage:
  bench_delta.py --previous DIR --current DIR
                 [--max-fast-p99-regression 0.5]
                 [--max-bytes-per-frame-regression 0.5]
                 [--history-out FILE] [--label SHA]

Every ajax_fanout*.json report in --current is read, and every one under
--previous (searched recursively, because artifact downloads nest a
directory per artifact). Every round declares its key, (scenario, variant,
clients); rounds are matched across runs on it, and each gate picks its
rounds and comparisons by scenario, whatever file they came from.

Self-contained gates, applied with or without a previous artifact:
  - congestion: the gradient law must flap less than rmsa, at a fast-client
    p99 at most CONGESTION_P99_TOLERANCE above rmsa's;
  - delta: the codec's compression ratio at least COMPRESSION_RATIO_FLOOR,
    a non-negative bytes_saved_fraction (deltas must not cost more than
    full frames), and no gap, error or delta break in the delta round;
  - transport and relay: every gaps_*/errors_*/delta_breaks_* comparison
    field, relay_image_encodes and the relayed round's
    relay_tier.upstream_reconnects must be 0;
  - mixed: every round's gaps, errors and image_delta.delta_breaks must
    be 0;
  - thread budget: every server-backed round's process.peak_threads at
    most its server_threads.total + bench_threads.

Previous-run comparison: the job fails (exit 1) when a matched round's
fast-client p99 (round level, and per prompt view for rounds with views)
or, for the delta scenario's delta round, its bytes/frame regresses by
more than the allowed fraction. A round without a previous match prints
"no previous round"; a missing previous artifact is a note, not a failure:
the first run on a branch has nothing to compare against.

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

REPORT_GLOB = "ajax_fanout*.json"
HISTORY_FILE = "bench_history.json"
MAX_HISTORY_RUNS = 50
MIN_PREV_MS = 1.0
MIN_DELTA_MS = 5.0
MIN_PREV_BYTES = 1024.0
# Congestion A/B gate: the delay-gradient controller may cost at most this
# fraction of fast-client p99 relative to RMSA in the same run.
CONGESTION_P99_TOLERANCE = 0.10
# Compression gate: the delta scenario's encoder must keep at least this
# raw-bytes-in / png-bytes-out ratio. The orbiting-isosurface frames
# compress far better than this in practice; the floor catches the encoder
# silently degrading to stored blocks, not normal workload variance.
COMPRESSION_RATIO_FLOOR = 1.5
# Protocol gate: scenarios whose comparison blocks' gap, error and
# delta-break counts (and, for relays, image encodes and upstream
# reconnects) must all read zero. Their clients and relays read every
# response through the shared HTTP response decoder.
PROTOCOL_SCENARIOS = ("transport", "relay")
PROTOCOL_COUNTER_PREFIXES = ("gaps_", "errors_", "delta_breaks_")
# Round gate: the adaptive round of the mixed scenario is the one CI bench
# whose paced clients skip frames and so receive cursor-anchored deltas; its
# comparison block carries no protocol counter.
ROUND_GATE_SCENARIOS = ("mixed",)
# Thread gate: every round of every other scenario runs a server, and must
# peak at no more threads than the server budget it ran under plus the
# bench's own (its fleet, its sampler, and the orbit driver where one runs).
# A thread pool added to the server shows here whether or not latency
# moves. The congestion scenario runs in virtual time, with no server.
SERVERLESS_SCENARIOS = ("congestion",)


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"[bench-delta] could not read {path}: {err}")
        return None


def load_reports(root, recursive):
    """Every ajax_fanout report under `root`, in path order."""
    paths = root.rglob(REPORT_GLOB) if recursive else root.glob(REPORT_GLOB)
    reports = (load(path) for path in sorted(paths))
    return [r for r in reports if r and r.get("bench") == "ajax_fanout"]


def rounds_of(reports):
    return [r for report in reports for r in report.get("rounds", [])]


def comparisons_of(reports):
    return [c for report in reports for c in report.get("comparisons", [])]


def of_scenarios(items, scenarios):
    """The rounds or comparisons of `scenarios`."""
    return [item for item in items if item.get("scenario") in scenarios]


def fast_p99(round_json):
    latency = round_json.get("delivery_latency_fast_clients") or \
        round_json.get("delivery_latency") or {}
    return latency.get("p99_ms")


def round_key(round_json):
    return (round_json.get("scenario"), round_json.get("variant"),
            round_json.get("clients"))


def key_str(key):
    scenario, variant, clients = key
    return f"{scenario}/{variant} clients={clients}"


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


def view_regressions(label, prev_round, cur_round, max_p99_regression):
    """Per-view fast-client p99 gate for rounds with views: every view whose
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
            out.append(f"{label} view={view}: "
                       f"p99 {prev_p99:.1f} -> {cur_p99:.1f} ms")
    return out


def compare(prev_rounds, cur_rounds, max_p99_regression, max_bpf_regression):
    regressions = []
    previous = {round_key(r): r for r in prev_rounds}
    for cur in cur_rounds:
        key = round_key(cur)
        label = key_str(key)
        prev = previous.get(key)
        if prev is None:
            print(f"[bench-delta] {label}: no previous round")
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
                    f"{label}: fast p99 {prev_p99:.1f} -> {cur_p99:.1f} ms")
        # bytes/frame is a gate only for the delta scenario's delta round,
        # whose workload is deterministic enough to hold a budget; other
        # rounds' byte counts swing with adaptive pacing and are reported,
        # not enforced. A growing delta round means the rect encoding
        # degraded.
        cur_bpf = cur.get("bytes_per_frame")
        prev_bpf = prev.get("bytes_per_frame")
        if cur_bpf is not None and prev_bpf is not None:
            bpct = ((cur_bpf - prev_bpf) / prev_bpf * 100.0) if prev_bpf > 0 \
                else 0.0
            parts.append(
                f"bytes/frame {prev_bpf:.0f} -> {cur_bpf:.0f} ({bpct:+.0f}%)")
            if (key[:2] == ("delta", "delta") and prev_bpf >= MIN_PREV_BYTES
                    and cur_bpf > prev_bpf * (1.0 + max_bpf_regression)):
                verdict = "REGRESSION"
                regressions.append(
                    f"{label}: bytes/frame {prev_bpf:.0f} -> {cur_bpf:.0f}")
        per_view = view_regressions(label, prev, cur, max_p99_regression)
        if per_view:
            verdict = "REGRESSION"
            regressions += per_view
        errors = cur.get("errors", 0)
        gaps = cur.get("gaps", 0)
        parts.append(f"gaps {gaps:.0f} errors {errors:.0f}")
        print(f"[bench-delta] {label}: {', '.join(parts)} [{verdict}]")
    return regressions


def congestion_gate(comparisons):
    """The delay-gradient controller exists to remove tier flaps, so a run
    where it flaps at least as much as RMSA — or buys its stability with a
    slower fast-client p99 — failed at its one job."""
    failures = []
    for cmp_json in of_scenarios(comparisons, ("congestion",)):
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


def compression_gate(comparisons):
    """A ratio at ~1.0 means the encoder fell back to stored blocks across
    the board; a negative bytes_saved_fraction means delta bodies cost more
    per frame than full resends of the same workload."""
    failures = []
    for cmp_json in of_scenarios(comparisons, ("delta",)):
        ratio = cmp_json.get("compression_ratio")
        if ratio is None:
            continue
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
                failures.append(f"{label}: {count:.0f} {field} in the delta "
                                "round")
        print(f"[bench-delta] {label}: ratio={ratio:.2f} saved="
              f"{cmp_json.get('bytes_saved_fraction', 0.0) * 100:.1f}% "
              f"[{verdict}]")
    return failures


def protocol_gate(rounds, comparisons):
    """A decoder or forwarding regression that keeps latency intact still
    shows in these counters."""
    failures = []
    reconnects = {(r.get("scenario"), r.get("clients")):
                  r["relay_tier"].get("upstream_reconnects")
                  for r in rounds if "relay_tier" in r}
    for cmp_json in of_scenarios(comparisons, PROTOCOL_SCENARIOS):
        key = (cmp_json.get("scenario"), cmp_json.get("clients"))
        label = f"{key[0]} clients={key[1]}"
        counters = {name: value for name, value in cmp_json.items()
                    if name.startswith(PROTOCOL_COUNTER_PREFIXES) or
                    name == "relay_image_encodes"}
        if key in reconnects:
            counters["relay_tier.upstream_reconnects"] = reconnects[key]
        nonzero = {name: value for name, value in counters.items() if value}
        for name, value in sorted(nonzero.items()):
            failures.append(f"{label}: {name} = {value:.0f}, must be 0")
        print(f"[bench-delta] {label}: {len(counters)} protocol counters "
              f"{'all 0 [ok]' if not nonzero else '[REGRESSION]'}")
    return failures


def round_gate(rounds):
    """A broken cursor-anchored delta shows as a delta break on the client
    that could not composite it."""
    failures = []
    for r in of_scenarios(rounds, ROUND_GATE_SCENARIOS):
        label = key_str(round_key(r))
        counters = {
            "gaps": r.get("gaps"),
            "errors": r.get("errors"),
            "image_delta.delta_breaks":
                (r.get("image_delta") or {}).get("delta_breaks"),
        }
        nonzero = {name: value for name, value in counters.items() if value}
        for name, value in sorted(nonzero.items()):
            failures.append(f"{label}: {name} = {value:.0f}, must be 0")
        print(f"[bench-delta] {label}: gaps/errors/delta breaks "
              f"{'all 0 [ok]' if not nonzero else '[REGRESSION]'}")
    return failures


def thread_gate(rounds):
    failures = []
    for r in rounds:
        if r.get("scenario") in SERVERLESS_SCENARIOS:
            continue
        label = key_str(round_key(r))
        budget = (r.get("server_threads") or {}).get("total")
        own = r.get("bench_threads")
        peak = (r.get("process") or {}).get("peak_threads")
        if budget is None or own is None or peak is None:
            failures.append(f"{label}: needs server_threads.total, "
                            "bench_threads and process.peak_threads")
            continue
        limit = budget + own
        verdict = "ok" if peak <= limit else "REGRESSION"
        if peak > limit:
            failures.append(f"{label}: peak_threads {peak:.0f} above "
                            f"server budget {budget:.0f} + {own:.0f}")
        print(f"[bench-delta] {label}: peak_threads {peak:.0f}, limit "
              f"{limit:.0f} [{verdict}]")
    return failures


def summarize_run(rounds, comparisons, label):
    """This run's compact history record, one entry per round."""
    return {"label": label,
            "rounds": {key_str(round_key(r)): round_record(r) for r in rounds},
            "comparisons": comparisons}


def print_trends(history):
    """Per-round trend lines over the retained history window."""
    runs = history.get("runs", [])
    if len(runs) < 2:
        return
    print(f"[bench-delta] history: {len(runs)} runs retained")
    series = {}
    for run in runs:
        for key, rec in run.get("rounds", {}).items():
            series.setdefault(key, []).append(rec)
    for key, recs in sorted(series.items()):
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
            print(f"[bench-delta]   {key}: {'; '.join(parts)}")


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
    current = load_reports(pathlib.Path(args.current), recursive=False)
    rounds = rounds_of(current)
    comparisons = comparisons_of(current)

    # Merge the rolling history first: it survives even when a gate below
    # fails the job, because it is written before the exit.
    history = {"runs": []}
    if prev_root.is_dir():
        prev_history = sorted(prev_root.rglob(HISTORY_FILE))
        if prev_history:
            loaded = load(prev_history[0])
            if loaded and isinstance(loaded.get("runs"), list):
                history = loaded
    history["runs"].append(summarize_run(rounds, comparisons, args.label))
    history["runs"] = history["runs"][-MAX_HISTORY_RUNS:]
    if args.history_out:
        with open(args.history_out, "w") as f:
            json.dump(history, f, indent=1)
        print(f"[bench-delta] rolling history ({len(history['runs'])} runs) "
              f"-> {args.history_out}")
    print_trends(history)

    # The self-contained gates apply even on a first run with no previous
    # artifact.
    regressions = congestion_gate(comparisons)
    regressions += compression_gate(comparisons)
    regressions += protocol_gate(rounds, comparisons)
    regressions += round_gate(rounds)
    regressions += thread_gate(rounds)

    if prev_root.is_dir():
        regressions += compare(rounds_of(load_reports(prev_root, True)),
                               rounds, args.max_fast_p99_regression,
                               args.max_bytes_per_frame_regression)
    else:
        print(f"[bench-delta] no previous artifact at {prev_root}; "
              "nothing to compare (first run?)")

    if regressions:
        print("[bench-delta] FAILING: a gate failed or a round regressed "
              f"beyond budget (p99 {args.max_fast_p99_regression * 100:.0f}%,"
              f" bytes/frame "
              f"{args.max_bytes_per_frame_regression * 100:.0f}%):")
        for line in regressions:
            print(f"  - {line}")
        return 1
    print("[bench-delta] every gate passed and every compared round is "
          "within the regression budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
