"""fieldcast benchmark: scenario workloads timed from outside, with oracles on.

Usage, from the repository root (standard library only, no build step):

    python3 perfbench/run.py --workload scr-static --seed 1 --seconds 30 --trace 0

Each run repeats one workload, each time in a fresh single-threaded process
(``workload.py``) at the given seed, until ``--seconds`` have passed and at
least three repeats have finished.  The load is closed-loop: one simulation at
a time from one process.  End-to-end metrics are medians over the repeats.
Host times in them are calibrated against a reference loop timed alongside
(see ``workload.py``), because host speed on a shared machine can drift 2x; the
wall-clock values are printed next to them as ``raw_*``.  Round-time
percentiles are taken over events, each event's gap combined over repeats.
Every repeat runs its scenario oracle after the timed section, and every
repeat at one seed must end in the same state: a differing digest of final
results, positions and simulated statistics fails the run.

With ``--trace 1`` a run also makes one traced repeat, which wraps the public
calls of each layer (``tracer.py``) and reports per-layer calls, total time
and self time, plus its own throughput against the untraced median.

The last stdout line is one JSON object: ``correct``, ``attempted`` and
``failed`` (node rounds attempted and aborted, over all repeats) and
``metrics``, the end-to-end metrics untraced or the per-layer metrics traced.
The lines before it list every metric by name with its unit, including
simulated results that are not gated on.  The exit code is 0 only for a
correct run.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workload import HERE, ROOT, WORKLOADS, monotonic, percentile

MIN_REPEATS = 3
# A run must end within 180 s; no repeat may outlast this many seconds of it.
DEADLINE_S = 170.0
# Share of --seconds spent on untraced repeats when tracing.
TRACED_UNTRACED_SHARE = 1 / 3
# Host-time metrics, reported calibrated and as read from the wall clock.
RAW_METRICS = {"node_rounds_per_s": "1/s", "round_us_p50": "us", "round_us_p99": "us", "setup_s": "s"}


class BenchmarkError(Exception):
    pass


def run_child(name: str, seed: int, horizon: float, trace: bool, timeout: float) -> dict:
    """Run one repeat in a fresh process; returns its JSON result with ``setup_s``."""
    command = [
        sys.executable,
        str(HERE / "workload.py"),
        "--workload", name,
        "--seed", str(seed),
        "--horizon", repr(horizon),
        "--trace", str(int(trace)),
    ]
    spawned = monotonic()
    try:
        process = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=max(timeout, 1.0)
        )
    except subprocess.TimeoutExpired as error:
        raise BenchmarkError(f"{name} repeat did not finish within {error.timeout:.0f} s") from None
    if process.returncode != 0:
        raise BenchmarkError(
            f"{name} repeat exited with code {process.returncode}:\n{process.stderr.strip()[-3000:]}"
        )
    result = json.loads(process.stdout.strip().splitlines()[-1])
    result["raw_setup_s"] = result["run_start"] - spawned
    result["setup_s"] = result["raw_setup_s"] * result["setup_speed"]
    return result


def repeat(name: str, seed: int, seconds: float, trace: bool, horizon: float) -> tuple[list, dict | None]:
    started = time.perf_counter()
    deadline = started + DEADLINE_S
    # Compile once up front so that no repeat's set-up time includes it.
    compileall.compile_dir(ROOT / "src", quiet=1)
    budget = seconds * TRACED_UNTRACED_SHARE if trace else seconds
    runs: list[dict] = []
    while len(runs) < MIN_REPEATS or time.perf_counter() - started < budget:
        runs.append(run_child(name, seed, horizon, False, deadline - time.perf_counter()))
    traced = None
    if trace:
        traced = run_child(name, seed, horizon, True, deadline - time.perf_counter())
    return runs, traced


def measure(name: str, seed: int, seconds: float, trace: bool, horizon: float | None = None) -> dict:
    """Repeat a workload and summarise it.

    Returns ``{"correct", "attempted", "failed", "metrics", "report"}``:
    ``metrics`` maps names to ``{"value", "unit"}`` and ``report`` holds the
    human-readable lines.
    """
    if horizon is None:
        horizon = WORKLOADS[name].horizon
    runs, traced = repeat(name, seed, seconds, trace, horizon)
    everything = runs + ([traced] if traced else [])
    first = runs[0]
    simulated = first["simulated"]

    def median(key):
        return statistics.median(run[key] for run in runs)

    # Event k is the same node round in every same-seed repeat.  The median
    # takes each event's median gap over the repeats.  Host interference
    # decides the tail, so the 99th percentile takes each event's shortest
    # gap instead, over the first MIN_REPEATS repeats however many were made:
    # the more repeats, the more interference a minimum drops.
    event_median = [statistics.median(gaps) for gaps in zip(*(run["gaps_us"] for run in runs))]
    event_min = [min(gaps) for gaps in zip(*(run["gaps_us"] for run in runs[:MIN_REPEATS]))]
    end_to_end = {
        "node_rounds_per_s": (median("node_rounds_per_s"), "1/s"),
        "round_us_p50": (statistics.median(event_median), "us"),
        "round_us_p99": (percentile(event_min, 0.99), "us"),
        "setup_s": (median("setup_s"), "s"),
        "peak_rss_mb": (median("peak_rss_mb"), "MB"),
        "export_bytes_mean": (simulated["export_bytes_mean"], "B"),
    }

    attempted = sum(run["simulated"]["events"] for run in everything)
    aborted = sum(run["simulated"]["events"] - run["simulated"]["node_rounds"] for run in everything)
    failed_checks = [
        (run_index, check)
        for run_index, run in enumerate(everything)
        for check in run["checks"]
        if not check[1]
    ]
    digests = sorted({run["digest"] for run in everything})
    problems = [f"repeat {index}: check {check[0]} failed ({check[2]})" for index, check in failed_checks]
    if len(digests) > 1:
        problems.append(
            f"same-seed repeats disagree: {len(digests)} distinct digests "
            + ", ".join(digest[:16] for digest in digests)
        )

    report = [
        f"workload {name}: seed {seed}, horizon {horizon} simulated s, {len(runs)} untraced repeats"
        + (", 1 traced" if traced else "")
        + f"; python {platform.python_version()}, nproc {os.cpu_count()}",
    ]
    for metric, (value, unit) in end_to_end.items():
        report.append(f"  {metric} {value!r} {unit}")
    for metric, unit in RAW_METRICS.items():
        report.append(f"  raw_{metric} {median('raw_' + metric)!r} {unit} (wall clock, not calibrated)")
    report.append(f"  reference_speed {median('reference_speed')!r} ratio (of the nominal reference loop speed)")
    report.append(
        f"  round gap samples: {len(event_median)} events; p50 of each event's median gap in"
        f" {len(runs)} repeats, p99 of its shortest gap in {MIN_REPEATS}"
    )
    report.append(f"  node rounds per repeat: {simulated['node_rounds']} (simulated, exact)")
    for key, unit in (("stabilized_sim_s", "s"), ("polarization_final", "ratio")):
        if key in simulated:
            report.append(f"  {key} {simulated[key]!r} {unit} (simulated, exact)")
    if simulated["wire_bytes"]:
        report.append(
            f"  wire_bytes_per_round {simulated['wire_bytes'] / simulated['node_rounds']!r} B"
            f" ({simulated['wire_bytes']} B / {simulated['node_rounds']} rounds; simulated, exact)"
        )
    report.append(
        f"  round_fail_ratio {aborted / attempted!r} ratio ({aborted} aborted / {attempted} attempted rounds)"
    )
    report.append(
        f"  checks_failed {len(failed_checks)} count"
        f" (of {sum(len(run['checks']) for run in everything)} gated checks over all repeats)"
    )
    for check_name, passed, detail in first["checks"]:
        report.append(f"    check {check_name}: {'ok' if passed else 'FAILED'} ({detail}), gated")
    for line in first["ungated_checks"]:
        report.append(f"    {line}, not gated")
    report.append(f"  digest {digests[0]} ({len(everything)} repeats, {len(digests)} distinct)")

    metrics = end_to_end
    if traced:
        metrics = per_layer_metrics(traced, runs, end_to_end["node_rounds_per_s"][0])
        report.append(f"  traced repeat: spans of every round in {traced['trace_file']}")
        for metric, (value, unit) in metrics.items():
            report.append(f"  {metric} {value!r} {unit}")
    for problem in problems:
        report.append(f"  FAILED: {problem}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": aborted,
        "metrics": {metric: {"value": value, "unit": unit} for metric, (value, unit) in metrics.items()},
        "report": report,
    }


def per_layer_metrics(traced: dict, runs: list, untraced_rate: float) -> dict:
    metrics = {name: tuple(entry) for name, entry in traced["per_layer"].items()}
    metrics["values.path_bytes"] = (traced["path_bytes"], "B")
    metrics["values.export_bytes"] = (traced["export_bytes"], "B")
    metrics["values.path_bytes_share"] = (traced["path_bytes"] / traced["export_bytes"], "ratio")
    metrics["scenarios.check_s"] = (statistics.median(run["check_s"] for run in runs), "s")
    traced_rate = traced["node_rounds_per_s"]
    metrics["trace.node_rounds_per_s"] = (traced_rate, "1/s")
    metrics["trace.untraced_node_rounds_per_s"] = (untraced_rate, "1/s")
    metrics["trace.overhead"] = (untraced_rate / traced_rate - 1.0, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fieldcast benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fieldcast" / "__init__.py").is_file():
        print(f"error: no fieldcast sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        summary = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print("\n".join(summary.pop("report")))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
