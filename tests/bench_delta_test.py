#!/usr/bin/env python3
"""Fixture reports through every gate of scripts/bench_delta.py.

Each self-contained gate (congestion, compression and byte saving, protocol
counters, mixed-round counters, thread budget) and the previous-run
comparison must fail on its bad fixture and pass on its good one; main()
must turn a failure into exit status 1, with or without a previous
artifact.
"""

import contextlib
import importlib.util
import io
import json
import pathlib
import tempfile
import unittest
import unittest.mock

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / \
    "bench_delta.py"
spec = importlib.util.spec_from_file_location("bench_delta", SCRIPT)
bench_delta = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_delta)


def server_round(scenario, variant, clients=128, peak=8, total=6, own=2,
                 **fields):
    r = {"scenario": scenario, "variant": variant, "clients": clients,
         "server_threads": {"total": total}, "bench_threads": own,
         "process": {"peak_threads": peak}, "gaps": 0, "errors": 0,
         "image_delta": {"delta_breaks": 0}, "deliveries_per_sec": 1000.0,
         "delivery_latency": {"p99_ms": 20.0}, "bytes_per_frame": 5000.0}
    r.update(fields)
    return r


def comparison(scenario, **fields):
    return dict(fields, scenario=scenario, clients=128)


def quiet(gate, *args):
    with contextlib.redirect_stdout(io.StringIO()):
        return gate(*args)


class ThreadGate(unittest.TestCase):
    def test_every_server_backed_round_is_judged_by_its_own_budget(self):
        rounds = [server_round("multireactor", "4", peak=11, total=9),
                  server_round("multireactor", "1", peak=8),
                  server_round("relay", "relayed", peak=14, total=12),
                  server_round("mixed", "adaptive", peak=9, own=3),
                  {"scenario": "congestion", "variant": "rmsa"}]
        self.assertEqual(quiet(bench_delta.thread_gate, rounds), [])

    def test_one_reactor_round_above_six_plus_two_fails(self):
        rounds = [server_round("multireactor", "1", peak=9)]
        self.assertEqual(len(quiet(bench_delta.thread_gate, rounds)), 1)

    def test_server_backed_round_without_a_process_block_fails(self):
        r = server_round("relay", "direct")
        del r["process"]
        self.assertEqual(len(quiet(bench_delta.thread_gate, [r])), 1)


class ProtocolGate(unittest.TestCase):
    def relay(self, encodes=0, reconnects=0):
        rounds = [server_round("relay", "relayed",
                               relay_tier={"upstream_reconnects": reconnects})]
        cmps = [comparison("relay", gaps_relayed=0, errors_relayed=0,
                           delta_breaks_relayed=0, relay_fanout=2,
                           relay_image_encodes=encodes)]
        return quiet(bench_delta.protocol_gate, rounds, cmps)

    def test_clean_relay_passes(self):
        self.assertEqual(self.relay(), [])

    def test_relay_image_encode_fails(self):
        self.assertEqual(len(self.relay(encodes=1)), 1)

    def test_relay_upstream_reconnect_fails(self):
        self.assertEqual(len(self.relay(reconnects=1)), 1)

    def test_transport_gap_fails(self):
        cmps = [comparison("transport", gaps_long_poll=0, gaps_sse=1)]
        self.assertEqual(len(quiet(bench_delta.protocol_gate, [], cmps)), 1)


class MixedRoundGate(unittest.TestCase):
    def test_clean_mixed_rounds_pass(self):
        rounds = [server_round("mixed", "baseline"),
                  server_round("mixed", "adaptive")]
        self.assertEqual(quiet(bench_delta.round_gate, rounds), [])

    def test_one_delta_break_fails(self):
        rounds = [server_round("mixed", "baseline"),
                  server_round("mixed", "adaptive",
                               image_delta={"delta_breaks": 1})]
        self.assertEqual(len(quiet(bench_delta.round_gate, rounds)), 1)


class CongestionGate(unittest.TestCase):
    def gate(self, grad_flaps, grad_p99):
        cmps = [comparison("congestion", tier_flaps_rmsa=239,
                           tier_flaps_gradient=grad_flaps,
                           fast_p99_ms_rmsa=13.0,
                           fast_p99_ms_gradient=grad_p99)]
        return quiet(bench_delta.congestion_gate, cmps)

    def test_fewer_flaps_at_equal_p99_passes(self):
        self.assertEqual(self.gate(123, 13.0), [])

    def test_gradient_flapping_as_often_as_rmsa_fails(self):
        self.assertEqual(len(self.gate(239, 13.0)), 1)

    def test_gradient_p99_beyond_tolerance_fails(self):
        self.assertEqual(len(self.gate(123, 15.0)), 1)


class CompressionGate(unittest.TestCase):
    def gate(self, **fields):
        good = dict(compression_ratio=12.3, bytes_saved_fraction=0.02,
                    gaps=0, errors=0, delta_breaks=0)
        good.update(fields)
        return quiet(bench_delta.compression_gate,
                     [comparison("delta", **good)])

    def test_compressed_deltas_pass(self):
        self.assertEqual(self.gate(), [])

    def test_stored_block_ratio_fails(self):
        self.assertEqual(len(self.gate(compression_ratio=1.1)), 1)

    def test_deltas_costing_more_than_full_frames_fail(self):
        self.assertEqual(len(self.gate(bytes_saved_fraction=-0.01)), 1)

    def test_delta_break_fails(self):
        self.assertEqual(len(self.gate(delta_breaks=1)), 1)


class PreviousRunComparison(unittest.TestCase):
    def compare(self, prev, cur):
        return quiet(bench_delta.compare, [prev], [cur], 0.5, 0.5)

    def test_fast_p99_up_60_percent_fails_and_20_percent_passes(self):
        prev = server_round("shard", "all-fast")
        worse = server_round("shard", "all-fast",
                             delivery_latency={"p99_ms": 32.0})
        noisy = server_round("shard", "all-fast",
                             delivery_latency={"p99_ms": 24.0})
        self.assertEqual(len(self.compare(prev, worse)), 1)
        self.assertEqual(self.compare(prev, noisy), [])

    def test_rounds_match_on_scenario_variant_and_clients_only(self):
        prev = server_round("mixed", "baseline")
        other = server_round("mixed", "adaptive",
                             delivery_latency={"p99_ms": 90.0})
        self.assertEqual(self.compare(prev, other), [])

    def test_bytes_per_frame_is_gated_on_the_delta_round_only(self):
        for variant, failures in (("delta", 1), ("full", 0)):
            prev = server_round("delta", variant)
            cur = server_round("delta", variant, bytes_per_frame=8000.0)
            self.assertEqual(len(self.compare(prev, cur)), failures, variant)

    def test_prompt_view_p99_regression_fails_and_slow_view_is_skipped(self):
        def views(p99):
            return {"main": {"slow": False,
                             "delivery_latency": {"p99_ms": p99}},
                    "energy/iso": {"slow": True,
                                   "delivery_latency": {"p99_ms": p99 * 9}}}
        prev = server_round("shard", "slow-view", views=views(20.0))
        cur = server_round("shard", "slow-view", views=views(40.0))
        self.assertEqual(len(self.compare(prev, cur)), 1)


class Main(unittest.TestCase):
    def run_main(self, current, previous=None):
        with tempfile.TemporaryDirectory() as tmp:
            root = pathlib.Path(tmp)
            sides = [("cur", current)]
            if previous is not None:
                sides.append(("prev/artifact", previous))
            for side, reports in sides:
                (root / side).mkdir(parents=True)
                for name, report in reports.items():
                    (root / side / name).write_text(json.dumps(report))
            argv = ["bench_delta.py", "--current", str(root / "cur"),
                    "--previous", str(root / "prev"),
                    "--history-out", str(root / "history.json")]
            with contextlib.redirect_stdout(io.StringIO()), \
                    unittest.mock.patch("sys.argv", argv):
                status = bench_delta.main()
            history = json.loads((root / "history.json").read_text())
        return status, history

    def report(self, *rounds):
        return {"ajax_fanout.json": {"bench": "ajax_fanout",
                                     "scenario": "plain",
                                     "rounds": list(rounds)}}

    def test_exit_status_follows_the_gates_and_the_comparison(self):
        good = self.report(server_round("plain", "unpaced"))
        over_budget = self.report(server_round("plain", "unpaced", peak=9))
        slower = self.report(server_round(
            "plain", "unpaced", delivery_latency={"p99_ms": 32.0}))
        self.assertEqual(self.run_main(good)[0], 0)
        self.assertEqual(self.run_main(good, good)[0], 0)
        self.assertEqual(self.run_main(over_budget)[0], 1)
        self.assertEqual(self.run_main(over_budget, {})[0], 1)
        self.assertEqual(self.run_main(slower, good)[0], 1)

    def test_history_records_each_round_by_its_key(self):
        _, history = self.run_main(self.report(
            server_round("plain", "unpaced")))
        self.assertEqual(list(history["runs"][-1]["rounds"]),
                         ["plain/unpaced clients=128"])


if __name__ == "__main__":
    unittest.main()
