#!/usr/bin/env python3
"""The repository benchmark: whole AID debugging sessions, end to end.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload cases|flaky-pipe|service-fleet \\
        --seed N --seconds S --trace 0|1

Builds the library, the daemons and perfbench_driver from the checkout's
sources into .bench_build/, runs one workload for S seconds in a closed
loop, checks every report, and prints the run environment, a table of the
metrics, and as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (sessions timed as users run
them), --trace 1 the per-layer metrics (benchmark-side spans around each
layer call). Exits nonzero without a result when the checkout has no
sources, the build fails, or a report diverges from its in-process serial
reference. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import contextlib
import ctypes
import fcntl
import hashlib
import json
import os
import re
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("cases", "flaky-pipe", "service-fleet")

# (name, unit). The end-to-end metrics of --trace 0; BENCHMARK.json lists
# the same names with their bounds.
END_TO_END = (
    ("session_ms.p50", "ms"),
    ("session_ms.tail", "ms"),
    ("sessions_per_s", "1/s"),
    ("setup_s", "s"),
    ("trial_us", "us"),
    ("executions_per_session", "count"),
    ("rounds_per_session", "count"),
)

# The per-layer metrics of --trace 1. A layer a workload does not exercise
# reads 0.
PER_LAYER = (
    ("api.build_ms", "ms"),
    ("causal.acdag_ms", "ms"),
    ("analysis.edges_pruned_share", "ratio"),
    ("core.plan_us", "us"),
    ("core.absorb_us", "us"),
    ("core.finalize_us", "us"),
    ("core.actions_per_session", "count"),
    ("exec.action_us", "us"),
    ("exec.first_action_ms", "ms"),
    ("exec.speculative_share", "ratio"),
    ("exec.steals_per_session", "count"),
    ("exec.straggler_wait_share", "ratio"),
    ("runtime.trial_us", "us"),
    ("synth.trial_us", "us"),
    ("proc.wire_trial_us", "us"),
    ("proc.transport_trial_us", "us"),
    ("proc.respawns_per_session", "count"),
    ("proc.crashed_share", "ratio"),
    ("net.runner_trial_us", "us"),
    ("net.runner_trials", "count"),
    ("net.reconnects_per_session", "count"),
    ("budget.trials_saved_share", "ratio"),
    ("budget.early_stops_per_session", "count"),
    ("service.admit_ms", "ms"),
    ("service.turns_per_session", "count"),
    ("service.rejected_share", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("failed_share", "ratio"),
)

# Match with fullmatch: "$" would accept a trailing newline.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# Percentiles the tail may be read at, highest first, and the highest each
# workload reads: the one its sample count supports at HEAD. The cap keeps
# runs comparable when a faster build completes more sessions; a slower one
# falls down the ladder only when fewer than TAIL_MIN_BEYOND samples lie
# beyond the cap.
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
TAIL_CAP = {"cases": 99.0, "flaky-pipe": 90.0, "service-fleet": 90.0}
TAIL_MIN_BEYOND = 10

# The timed loop is cut into this many equal spans of time, per workload,
# and each timing metric is the best of its per-span values: the lowest,
# or the highest for sessions_per_s. A shared host slows some spans of a run
# and not others, so the best span is the one least disturbed by the work
# beside it. Each span of a 30 s run holds at least about 200 sessions.
SPANS = {"cases": 10, "flaky-pipe": 5, "service-fleet": 3}
HIGHER_IS_BETTER = {"sessions_per_s"}

# Workers per session on the flaky workloads (the driver's kParallelism).
PARALLELISM = {"cases": 1, "flaky-pipe": 2, "service-fleet": 2}
RUNNERS = 2
RUNNER_SLOW_US = 300
SERVICE_WORKERS = 2
BUILD_JOBS = 4
# The driver's time beyond --seconds (warm-up, references, daemons) is a
# few seconds; past this it is stuck, and the run fails inside 180 s.
DRIVER_GRACE_S = 120


class BenchError(Exception):
    """A failure that must end the run without a result."""


# ------------------------------------------------------------------ stats --

def percentile(values, pct):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))  # ceil(n * pct / 100)
    return ordered[int(rank) - 1]


def tail(values, cap=TAIL_LADDER[0]):
    """The highest ladder percentile up to `cap` with at least
    TAIL_MIN_BEYOND samples above it: (percentile, value, samples beyond).
    Falls back to the median when even that has too few."""
    n = len(values)
    for pct in (p for p in TAIL_LADDER if p <= cap):
        beyond = n - int(-(-n * pct // 100))
        if beyond >= TAIL_MIN_BEYOND or pct == TAIL_LADDER[-1]:
            return pct, percentile(values, pct), beyond
    raise AssertionError("unreachable")


def ratio(num, den):
    return num / den if den else 0.0


def layer_mean(layers, name, scale):
    """Mean self time per call of layer `name`, in ns / scale."""
    layer = layers.get(name)
    if not layer or not layer["count"]:
        return 0.0
    return layer["self_ns"] / layer["count"] / scale


# ---------------------------------------------------------------- metrics --

def judge(records, inputs, run, workload):
    """(correct, attempted, failed, notes) over one driver run.

    An operation is one input of the workload's suite: its reference is
    run once and every timed session of it must reproduce that reference.
    It fails when the reference names a root cause other than the ground
    truth (or none), or when a timed session of it errored or was rejected.
    Every input is judged in every run, so a run's verdicts do not depend
    on how many sessions it completed."""
    notes = []
    correct = not any(r["verdict"] == "diverged" for r in records)
    if not correct:
        notes.append("a report diverged from its in-process serial reference")
    broken = {(r["subject"], r["preset"]) for r in records
              if not r["warmup"] and r["verdict"] in ("error", "rejected")}
    failed = sum(1 for i in inputs if not i["root_ok"]
                 or (i["subject"], i["preset"]) in broken)
    if workload == "service-fleet":
        if run["runner_error"]:
            failed += 1
            notes.append("runner stats unreachable")
        elif run["runner_trials"] != run["service_executions"]:
            failed += 1
            notes.append("runners served %d trials but reports claim %d "
                         "executions" % (run["runner_trials"],
                                         run["service_executions"]))
    return correct, len(inputs), failed, notes


def failed_sessions(records):
    """Timed sessions that errored, were rejected, diverged or named a wrong
    root cause, over the timed sessions attempted."""
    timed = [r for r in records if not r["warmup"]]
    return ratio(sum(1 for r in timed if r["verdict"] != "ok"), len(timed))


def end_to_end(records, seconds, workload):
    """The --trace 0 metrics and the tails' provenance. Timing metrics are
    the best of their values over the SPANS spans of the timed loop; the
    paper's cost counts are means over every completed session."""
    timed = [r for r in records if not r["warmup"] and r["verdict"] != "error"
             and r["verdict"] != "rejected"]
    spans = SPANS[workload]
    span_s = seconds / spans
    blocks = [[] for _ in range(spans)]
    for r in timed:
        blocks[min(int(r["start_s"] / span_s), spans - 1)].append(r)
    per_block, provenance = [], []
    for block in blocks:
        if len(block) < 2:
            raise BenchError("a span of the timed loop completed < 2 sessions")
        ms = [r["ms"] for r in block]
        starts = sorted(r["start_s"] for r in block)
        pct, tail_ms, beyond = tail(ms, TAIL_CAP[workload])
        per_block.append({
            "session_ms.p50": statistics.median(ms),
            "session_ms.tail": tail_ms,
            # Sessions per second between the span's first and last start.
            "sessions_per_s": ratio(len(block) - 1, starts[-1] - starts[0]),
            "setup_s": statistics.median(r["setup_ms"] for r in block) / 1e3,
            "trial_us": ratio(sum(r["ms"] - r["setup_ms"] for r in block)
                              * 1e3, sum(r["executions"] for r in block)),
        })
        provenance.append({"tail_percentile": pct, "samples": len(ms),
                           "beyond_tail": beyond})
    metrics = {name: (max if name in HIGHER_IS_BETTER else min)(
        b[name] for b in per_block) for name in per_block[0]}
    metrics["executions_per_session"] = \
        sum(r["executions"] for r in timed) / len(timed)
    metrics["rounds_per_session"] = sum(r["rounds"] for r in timed) / len(timed)
    # Teardown (the session's destructor) is outside session_ms but inside
    # the loop that sessions_per_s measures.
    teardown_ms = statistics.median(r["teardown_ms"] for r in timed)
    return metrics, {"blocks": provenance, "teardown_ms.p50": teardown_ms}


def service_turns(metrics_json):
    """Per-session scheduling turns from aid_service --metrics-out."""
    return [point["value"] for point in metrics_json.get("metrics", [])
            if point.get("name") == "aid_service_turns_total"]


def per_layer(records, run, workload, failed_share, turns=None):
    """The --trace 1 metrics; failed_share comes from failed_sessions()."""
    layers = run["layers"]
    timed = [r for r in records if not r["warmup"]]
    done = [r for r in timed if r["verdict"] not in ("error", "rejected")]
    traced = [r for r in done if r["traced"]]
    sessions = max(len(done), 1)
    executions = sum(r["executions"] for r in done)
    budgeted = [r for r in done if r["budget_allocated"] > 0]
    worker_us = sum((r["ms"] - r["setup_ms"]) * 1e3 for r in done) \
        * PARALLELISM[workload]
    session_span = layers.get("session", {"self_ns": 0, "total_ns": 0})
    replay = run["replay_layers"].get("subject.trial", {"total_ns": 0})
    synth_us = 0.0
    if workload != "cases":
        synth_us = ratio(replay["total_ns"] / 1e3, run["replay_executions"])
    wire_us = 0.0
    if workload == "flaky-pipe":
        wire_us = ratio(run["wire_trial_micros"], run["action_executions"])
    runtime_us = 0.0
    if workload == "cases":
        runtime_us = ratio(layers.get("runtime.trial", {"total_ns": 0})
                           ["total_ns"] / 1e3, run["action_executions"])
    proc = workload == "flaky-pipe"
    net = workload == "service-fleet"
    metrics = {
        "api.build_ms": layer_mean(layers, "api.build", 1e6),
        "causal.acdag_ms": layer_mean(layers, "causal.acdag", 1e6),
        "analysis.edges_pruned_share": ratio(
            sum(r["edges_pruned"] for r in traced),
            sum(r["edges_before"] for r in traced)),
        "core.plan_us": layer_mean(layers, "core.plan", 1e3),
        "core.absorb_us": layer_mean(layers, "core.absorb", 1e3),
        "core.finalize_us": layer_mean(layers, "core.finalize", 1e3),
        "core.actions_per_session": ratio(run["actions"],
                                          run["traced_sessions"]),
        "exec.action_us": layer_mean(layers, "exec.action", 1e3),
        "exec.first_action_ms": ratio(run["first_action_ns"] / 1e6,
                                      run["traced_sessions"]),
        "exec.speculative_share": ratio(
            sum(r["speculative"] for r in done), executions),
        "exec.steals_per_session":
            sum(r["steals"] for r in done) / sessions,
        "exec.straggler_wait_share": ratio(
            sum(r["straggler_wait_us"] for r in done), worker_us),
        "runtime.trial_us": runtime_us,
        "synth.trial_us": synth_us,
        "proc.wire_trial_us": wire_us,
        "proc.transport_trial_us": wire_us - synth_us if proc else 0.0,
        "proc.respawns_per_session":
            sum(r["respawns"] for r in done) / sessions if proc else 0.0,
        "proc.crashed_share": ratio(sum(r["crashed_trials"] for r in done),
                                    executions) if proc else 0.0,
        "net.runner_trial_us": ratio(run["runner_trial_micros"],
                                     run["runner_trials"]),
        "net.runner_trials": run["runner_trials"],
        "net.reconnects_per_session":
            sum(r["respawns"] for r in done) / sessions if net else 0.0,
        "budget.trials_saved_share": ratio(
            sum(r["budget_saved"] for r in budgeted),
            sum(r["budget_allocated"] + r["budget_saved"] for r in budgeted)),
        "budget.early_stops_per_session": ratio(
            sum(r["budget_early_stops"] for r in budgeted), len(budgeted)),
        "service.admit_ms": layer_mean(layers, "service.admit", 1e6),
        "service.turns_per_session":
            statistics.mean(turns) if turns else 0.0,
        "service.rejected_share": ratio(
            sum(1 for r in timed if r["verdict"] == "rejected"), len(timed)),
        "trace.unattributed_share": ratio(session_span["self_ns"],
                                          session_span["total_ns"]),
        "trace.overhead_share": ratio(run["traced_pair_ms"],
                                      run["untraced_pair_ms"]) - 1.0
        if run["untraced_pair_ms"] else 0.0,
        "failed_share": failed_share,
    }
    return metrics


def coverage(run):
    """Self time of every layer span as a share of traced session time; the
    shares add up to 1 with trace.unattributed_share (the session span's own
    self time)."""
    layers = run["layers"]
    total = layers.get("session", {}).get("total_ns", 0)
    return {name: ratio(layer["self_ns"], total)
            for name, layer in sorted(layers.items())}


def result_line(correct, attempted, failed, values, spec):
    for name, unit in spec:
        if not NAME_RE.fullmatch(name) or not UNIT_RE.fullmatch(unit):
            raise BenchError("malformed metric %r (%r)" % (name, unit))
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in spec},
    })


# ------------------------------------------------------------ environment --

def source_digest(root):
    """SHA-256 over the sources the benchmark builds, for checkouts that are
    not git repositories."""
    digest = hashlib.sha256()
    files = [root / "CMakeLists.txt"] + sorted((root / "src").rglob("*"))
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(root, build_dir):
    cache = {}
    cache_file = build_dir / "CMakeCache.txt"
    if cache_file.exists():
        for line in cache_file.read_text().splitlines():
            m = re.match(r"^(CMAKE_BUILD_TYPE|CMAKE_CXX_COMPILER):\w+=(.*)$",
                         line)
            if m:
                cache[m.group(1)] = m.group(2)
    version = ""
    for info in sorted(build_dir.glob("CMakeFiles/*/CMakeCXXCompiler.cmake")):
        m = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"',
                      info.read_text())
        if m:
            version = m.group(1)
    git_sha = None
    if (root / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            git_sha = subprocess.run(
                ["git", "-C", str(root), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True).stdout.strip()
    return {
        "git_sha": git_sha,
        "source_sha256": source_digest(root),
        "cmake_build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "compiler": ("%s %s" % (cache.get("CMAKE_CXX_COMPILER", ""),
                                version)).strip(),
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


# ------------------------------------------------------------------ build --

def checkout_root():
    root = Path(__file__).resolve().parent.parent
    for needed in ("CMakeLists.txt", "src/api/session.h",
                   "src/service/service_main.cc"):
        if not (root / needed).is_file():
            raise BenchError("%s: no %s; run from a full checkout"
                             % (root, needed))
    return root


def build(root):
    """Configures once, then builds incrementally; returns the bin dir."""
    build_dir = root / ".bench_build" / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(build_dir.parent / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (build_dir / "CMakeCache.txt").exists():
            subprocess.run(
                ["cmake", "-S", str(root / "perfbench"), "-B",
                 str(build_dir), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                stdout=sys.stderr, check=True)
        subprocess.run(
            ["cmake", "--build", str(build_dir), "-j", str(BUILD_JOBS),
             "--target", "perfbench_driver", "perfbench_gate_test"],
            stdout=sys.stderr, check=True)
    return build_dir


# ---------------------------------------------------------------- daemons --

def _die_with_parent():
    # Backstop for a benchmark killed without a chance to clean up.
    with contextlib.suppress(OSError, AttributeError):
        ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGTERM)


def start_daemon(argv, log_path, timeout_s=20):
    """Starts a daemon on an ephemeral port; returns (process, "host:port")
    read from its "listening on H:P" startup line."""
    log = open(log_path, "w")
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=log,
                            text=True, preexec_fn=_die_with_parent)
    log.close()
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        ready, _, _ = select.select([proc.stdout], [], [], 0.5)
        if ready:
            line = proc.stdout.readline()
            m = re.search(r"listening on (\S+:\d+)", line)
            if m:
                return proc, m.group(1)
            if not line:
                break
    stop_daemon(proc)
    raise BenchError("%s did not start; see %s" % (argv[0], log_path))


def stop_daemon(proc, timeout_s=15):
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    proc.stdout.close()


@contextlib.contextmanager
def service_fleet(bin_dir, run_dir):
    """Two slow loopback runners and an aid_service placing replicas on
    them; yields (service, runners, metrics path) and stops all three on
    every exit path."""
    daemons = []
    metrics_path = run_dir / "service_metrics.json"
    try:
        runners = []
        for i in range(RUNNERS):
            proc, endpoint = start_daemon(
                [str(bin_dir / "aid_runner"), "--port", "0",
                 "--slow-us", str(RUNNER_SLOW_US)],
                run_dir / ("runner%d.log" % i))
            daemons.append(proc)
            runners.append(endpoint)
        proc, service = start_daemon(
            [str(bin_dir / "aid_service"), "--port", "0",
             "--workers", str(SERVICE_WORKERS), "--fleet", ",".join(runners),
             "--metrics-out", str(metrics_path)],
            run_dir / "service.log")
        daemons.append(proc)
        yield service, runners, metrics_path
    finally:
        # The service first, so it closes its runner connections cleanly.
        for proc in reversed(daemons):
            stop_daemon(proc)


# ------------------------------------------------------------------- main --

def run_driver(bin_dir, argv, timeout_s):
    proc = subprocess.Popen([str(bin_dir / "perfbench_driver")] + argv,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise BenchError("perfbench_driver exited with %d" % proc.returncode)
    records, inputs, run = [], [], None
    for line in out.splitlines():
        item = json.loads(line)
        if item["type"] == "session":
            records.append(item)
        elif item["type"] == "input":
            inputs.append(item)
        elif item["type"] == "run":
            run = item
    if run is None or not inputs:
        raise BenchError("perfbench_driver printed no run totals or inputs")
    return records, inputs, run


def _raise_exit(signum, _frame):
    raise SystemExit(128 + signum)


def measure(args, root):
    build_dir = build(root)
    bin_dir = build_dir / "bin"
    env = environment(root, build_dir)
    driver_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    timeout_s = args.seconds + DRIVER_GRACE_S
    turns = None
    if args.workload == "service-fleet":
        run_dir = build_dir.parent / "runs" / str(os.getpid())
        run_dir.mkdir(parents=True, exist_ok=True)
        try:
            with service_fleet(bin_dir, run_dir) as (service, runners,
                                                     metrics_path):
                records, inputs, run = run_driver(
                    bin_dir, driver_args + ["--service", service, "--runners",
                                            ",".join(runners)], timeout_s)
            if metrics_path.exists():
                turns = service_turns(json.loads(metrics_path.read_text()))
        finally:
            for path in run_dir.glob("*"):
                path.unlink()
            run_dir.rmdir()
    else:
        records, inputs, run = run_driver(bin_dir, driver_args, timeout_s)
    return env, records, inputs, run, turns


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    signal.signal(signal.SIGTERM, _raise_exit)
    signal.signal(signal.SIGINT, _raise_exit)
    try:
        root = checkout_root()
        env, records, inputs, run, turns = measure(args, root)
        correct, attempted, failed, notes = judge(records, inputs, run,
                                                  args.workload)
        if args.trace:
            spec = PER_LAYER
            values = per_layer(records, run, args.workload,
                               failed_sessions(records), turns)
            extra = {"self_time_share": coverage(run)}
        else:
            spec = END_TO_END
            values, extra = end_to_end(records, args.seconds, args.workload)
            extra["failed_share"] = failed_sessions(records)
        line = result_line(correct, attempted, failed, values, spec)
    except (BenchError, subprocess.CalledProcessError, OSError) as error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 2
    print("env %s" % json.dumps(env, sort_keys=True))
    timed = sum(1 for r in records if not r["warmup"])
    print("%s seed=%d trace=%d: %d sessions in %.2f s; %d of %d inputs failed"
          % (args.workload, args.seed, args.trace, timed, run["elapsed_s"],
             failed, attempted))
    for name, unit in spec:
        print("  %-32s %14.6g %s" % (name, values[name], unit))
    print("details %s" % json.dumps(extra, sort_keys=True))
    for note in notes:
        print("perfbench: %s" % note, file=sys.stderr)
    print(line)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
