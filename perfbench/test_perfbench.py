#!/usr/bin/env python3
"""Tests of the benchmark itself: the tail-percentile rule, the metric-name
grammar, and the correctness gate.

Run from the root of a checkout: python3 perfbench/test_perfbench.py
The C++ gate test runs too once run.py has built it.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402


def session(**fields):
    record = {"index": 0, "subject": "s", "preset": "aid", "warmup": 0,
              "traced": 0, "start_s": 0.0, "ms": 10.0, "setup_ms": 2.0,
              "teardown_ms": 0.5, "verdict": "ok",
              "executions": 8, "rounds": 1, "speculative": 0, "steals": 0,
              "straggler_wait_us": 0, "respawns": 0, "crashed_trials": 0,
              "budget_allocated": 0, "budget_saved": 0,
              "budget_early_stops": 0, "edges_before": 0, "edges_pruned": 0}
    record.update(fields)
    return record


def run_totals(**fields):
    totals = {"elapsed_s": 1.0, "runner_error": "", "runner_trials": 0,
              "service_executions": 0}
    totals.update(fields)
    return totals


class TailRuleTest(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        values = list(range(1, 3001))
        self.assertEqual(run.tail(values), (99.0, 2970, 30))

    def test_exactly_ten_beyond_qualifies(self):
        self.assertEqual(run.tail(list(range(1, 1001)))[0], 99.0)
        self.assertEqual(run.tail(list(range(1, 1000)))[0], 90.0)

    def test_cap_holds_when_more_samples_arrive(self):
        pct, value, beyond = run.tail(list(range(1, 100001)), cap=99.0)
        self.assertEqual((pct, value, beyond), (99.0, 99000, 1000))

    def test_falls_back_to_the_median(self):
        self.assertEqual(run.tail([5.0, 1.0, 3.0]), (50.0, 3.0, 1))

    def test_every_workload_has_a_cap_on_the_ladder(self):
        for workload in run.WORKLOADS:
            self.assertIn(run.TAIL_CAP[workload], run.TAIL_LADDER)


class MetricGrammarTest(unittest.TestCase):
    def test_declared_names_and_units_are_well_formed(self):
        names = [name for name, _ in run.END_TO_END + run.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))
        for name, unit in run.END_TO_END + run.PER_LAYER:
            self.assertIsNotNone(run.NAME_RE.fullmatch(name), name)
            self.assertIsNotNone(run.UNIT_RE.fullmatch(unit), unit)

    def test_grammar_rejects_malformed_names(self):
        for bad in ("", ".p50", "-x", "session ms", "latency/ms", "a" * 65,
                    "naïve", "p50\n"):
            self.assertIsNone(run.NAME_RE.fullmatch(bad), bad)
        for good in ("session_ms.p50", "0ms", "a" * 64, "x-y_z.w"):
            self.assertIsNotNone(run.NAME_RE.fullmatch(good), good)

    def test_result_line_refuses_a_malformed_metric(self):
        with self.assertRaises(run.BenchError):
            run.result_line(True, 1, 0, {"bad name": 1.0},
                            (("bad name", "ms"),))

    def test_benchmark_json_matches_the_runner(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_result_line_shape(self):
        values = {name: 1.5 for name, _ in run.END_TO_END}
        line = json.loads(run.result_line(True, 3, 1, values, run.END_TO_END))
        self.assertEqual(set(line), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertEqual(line["metrics"]["setup_s"],
                         {"value": 1.5, "unit": "s"})


def suite_input(subject="s", preset="aid", root_ok=1):
    return {"subject": subject, "preset": preset, "root_ok": root_ok}


class GateTest(unittest.TestCase):
    def test_forged_divergent_report_trips_the_gate(self):
        records = [session(), session(verdict="diverged")]
        correct, attempted, failed, notes = run.judge(
            records, [suite_input()], run_totals(), "flaky-pipe")
        self.assertFalse(correct)
        self.assertEqual((attempted, failed), (1, 0))
        self.assertTrue(notes)

    def test_divergence_during_warmup_still_trips_the_gate(self):
        records = [session(warmup=1, verdict="diverged"), session()]
        self.assertFalse(run.judge(records, [suite_input()], run_totals(),
                                   "cases")[0])

    def test_an_operation_is_an_input_of_the_suite(self):
        inputs = [suite_input("a"), suite_input("b", root_ok=0),
                  suite_input("c"), suite_input("d"), suite_input("e")]
        records = [session(subject="a"), session(subject="a"),
                   session(subject="b", verdict="wrong_root"),
                   session(subject="c", verdict="rejected"),
                   session(subject="d", warmup=1, verdict="error")]
        # b names a wrong root, c was rejected once; d's error was warm-up,
        # and e was never visited but its reference is right.
        self.assertEqual(run.judge(records, inputs, run_totals(), "cases")[:3],
                         (True, 5, 2))

    def test_verdicts_do_not_depend_on_how_far_a_run_got(self):
        inputs = [suite_input("a"), suite_input("b", root_ok=0)]
        short = [session(subject="a")]
        long = short * 50 + [session(subject="b", verdict="wrong_root")] * 50
        self.assertEqual(run.judge(short, inputs, run_totals(), "cases"),
                         run.judge(long, inputs, run_totals(), "cases"))

    def test_failed_sessions_share(self):
        records = [session(), session(verdict="wrong_root"),
                   session(verdict="rejected"), session(warmup=1,
                                                        verdict="error")]
        self.assertEqual(run.failed_sessions(records), 2 / 3)

    def test_runner_trial_mismatch_counts_as_failed(self):
        records = [session(executions=8)]
        ok = run_totals(runner_trials=8, service_executions=8)
        off = run_totals(runner_trials=7, service_executions=8)
        self.assertEqual(
            run.judge(records, [suite_input()], ok, "service-fleet")[2], 0)
        self.assertEqual(
            run.judge(records, [suite_input()], off, "service-fleet")[2], 1)

    def test_cpp_gate(self):
        binary = (HERE.parent / ".bench_build" / "perfbench" / "bin"
                  / "perfbench_gate_test")
        if not binary.exists():
            self.skipTest("run perfbench/run.py once to build it")
        result = subprocess.run([str(binary)], capture_output=True, text=True)
        self.assertEqual(result.returncode, 0, result.stdout)


class MetricsTest(unittest.TestCase):
    def test_end_to_end_takes_the_best_span(self):
        spans = 3
        run.SPANS["test"] = spans
        run.TAIL_CAP["test"] = 90.0
        records = [session(warmup=1, ms=1.0),
                   # span 0 (seconds 0-1): two sessions
                   session(start_s=0.1, ms=10.0, setup_ms=2.0, executions=8,
                           rounds=2),
                   session(start_s=0.5, ms=20.0, setup_ms=4.0, executions=16,
                           rounds=4),
                   # span 1: two sessions, and one that errored
                   session(start_s=1.2, ms=40.0, setup_ms=8.0, executions=8,
                           rounds=2),
                   session(start_s=1.3, ms=1.0, setup_ms=0.5,
                           verdict="error"),
                   session(start_s=1.45, ms=40.0, setup_ms=1.0, executions=8,
                           rounds=2),
                   # span 2: a host stall
                   session(start_s=2.0, ms=900.0, setup_ms=9.0, executions=8,
                           rounds=2),
                   session(start_s=2.9, ms=900.0, setup_ms=9.0, executions=8,
                           rounds=2)]
        try:
            metrics, provenance = run.end_to_end(records, spans, "test")
        finally:
            del run.SPANS["test"], run.TAIL_CAP["test"]
        self.assertEqual(metrics["session_ms.p50"], 15.0)  # of 15, 40, 900
        self.assertEqual(metrics["session_ms.tail"], 10.0)  # p50 of 2
        self.assertEqual(metrics["sessions_per_s"], 4.0)   # of 2.5, 4, 1.11
        self.assertEqual(metrics["setup_s"], 0.003)        # of 3, 4.5, 9 ms
        self.assertEqual(metrics["trial_us"], 1000.0)      # of 1000, 4375,
        #                                                    111375
        self.assertAlmostEqual(metrics["executions_per_session"], 56 / 6)
        self.assertAlmostEqual(metrics["rounds_per_session"], 14 / 6)
        self.assertEqual([b["samples"] for b in provenance["blocks"]],
                         [2, 2, 2])

    def test_every_workload_has_spans(self):
        for workload in run.WORKLOADS:
            self.assertGreaterEqual(run.SPANS[workload], 1)

    def test_a_span_needs_two_sessions(self):
        records = [session(start_s=t) for t in (0.1, 0.2, 1.1, 1.2, 2.5)]
        with self.assertRaises(run.BenchError):
            run.end_to_end(records, 3, "cases")


class MissingSourcesTest(unittest.TestCase):
    def test_exits_nonzero_without_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
            result = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "cases",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(result.returncode, 0)
        self.assertEqual(result.stdout, "")


if __name__ == "__main__":
    unittest.main()
