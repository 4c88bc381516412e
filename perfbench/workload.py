"""One benchmark workload in a process of its own: run it, time it, check it.

Usage, from the repository root:

    python3 perfbench/workload.py --workload scr-static --seed 1 --horizon 7.0 --trace 0

The scenario runs through its public entry point with its oracle on
(``check=True``).  Timing wraps only `Simulator.run` and attaches a
timestamp-only monitor; with ``--trace 1`` the layers are wrapped as well
(see ``tracer.py``) and the timestamp monitor is left out.  The last stdout
line is one JSON object with the measurements, the oracle verdicts and a
digest of the final state, for ``run.py`` to aggregate.

Calibration.  Host speed on a shared machine drifts by up to 2x over
seconds, so host times are also given in calibrated form.  The timing wrapper
runs the simulation in slices of simulated time; around every slice it times
a fixed pure-Python reference loop.  A slice's calibrated duration is its
wall time multiplied by the reference loop's speed during it, relative to
`REFERENCE_RATE`: when the machine runs at half speed, wall time doubles and
the factor halves.  Slicing does not change the simulation, because
`Simulator.run(until)` resumes from the queue it left.

`run_start` is a CLOCK_MONOTONIC reading, which is system-wide on Linux, so
the parent can subtract its own reading taken before it started this process:
set-up time then covers interpreter start and the `fieldcast` import.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACE_DIR = HERE / "out"

# Speed of `reference_work`, in calls per second, that calibrated times are
# scaled to: about its speed on an idle 2-vCPU x86-64 VM under CPython 3.11.
REFERENCE_RATE = 15000.0
REFERENCE_SECONDS = 0.02


@dataclass(frozen=True)
class Workload:
    scenario: str
    horizon: float  # simulated seconds per run
    slice: float  # simulated seconds between calibrations, 0.25 to 1 host s
    overrides: dict = field(default_factory=dict)
    # Oracle checks that gate correctness; None gates on all of them.
    gated_checks: tuple | None = None


# Horizons leave about 2 simulated seconds after the lattices stabilize
# (scr near t = 5 s, channel near t = 8.4 s on 20x20).
WORKLOADS = {
    "scr-static": Workload("scr", 7.0, 0.25),
    "channel-wire": Workload("channel", 10.0, 0.4, {"wire_stats": True}),
    # The alignment check (polarization > 0.9) cannot pass at n = 800 within
    # a short horizon, so only kinematics gates; polarization is reported.
    "flocking-mobile": Workload("flocking", 1.0, 0.1, {"n": 800}, ("kinematics",)),
}


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def reference_work() -> int:
    table = {}
    for i in range(500):
        table[(i, "key")] = i
    total = 0
    for key, value in table.items():
        total += value + key[0]
    return total


def reference_speed() -> float:
    """Current speed of `reference_work` as a share of `REFERENCE_RATE`."""
    start = time.perf_counter()
    calls = 0
    while True:
        reference_work()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= REFERENCE_SECONDS:
            return calls / elapsed / REFERENCE_RATE


def percentile(values: list[float], fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def stabilized_time(records, value_key, window: int) -> float | None:
    """Simulated time from which every node's value stays unchanged for ``window`` rounds.

    For each node, the time its last streak of identical values reaches
    ``window`` rounds; the field is stable from the latest of those.  None
    when some node's last streak never reaches the window.
    """
    from fieldcast.simulator import result_value

    last: dict = {}
    streak: dict = {}
    reached: dict = {}
    for sim_time, _, node_id, _, result in records:
        value = result_value(result, value_key)
        if node_id in last and last[node_id] == value:
            streak[node_id] += 1
        else:
            last[node_id] = value
            streak[node_id] = 1
            reached.pop(node_id, None)
        if streak[node_id] == window:
            reached[node_id] = sim_time
    if not last or len(reached) != len(last):
        return None
    return max(reached.values())


def export_sizes(nodes) -> tuple[int, int, int]:
    """(export count, encoded bytes, alignment-path bytes) of the final exports."""
    from fieldcast.values import encoded, write_uvarint

    count = total = paths = 0
    for node in nodes:
        export = node.last_export
        if export is None:
            continue
        size = len(export.to_bytes())
        header = bytearray()
        write_uvarint(header, len(export.entries))
        values = sum(len(encoded(value)) for value in export.entries.values())
        count += 1
        total += size
        paths += size - len(header) - values
    return count, total, paths


class Timestamps:
    """Timestamp-only monitor: one clock reading per processed event.

    Each `Simulator.run` call starts a new list, headed by its start time.
    """

    def __init__(self):
        self.slices: list[list[float]] = []

    def on_start(self, simulator) -> None:
        self.slices.append([time.perf_counter()])

    def on_event(self, simulator, event) -> None:
        self.slices[-1].append(time.perf_counter())

    def on_round(self, simulator, node) -> None:
        pass

    def on_finish(self, simulator) -> None:
        pass


def run(name: str, seed: int, horizon: float, trace: bool) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from fieldcast.scenarios import SCENARIOS, ScenarioConfig
    from fieldcast.scenarios.base import STABILITY_WINDOW
    from fieldcast.simulator import Simulator, TraceRecorder

    workload = WORKLOADS[name]
    spec = SCENARIOS[workload.scenario]
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    stamps = Timestamps() if tracer is None else None
    # (wall seconds, calibration factor) of each slice
    slices: list[tuple[float, float]] = []
    timing: dict = {}
    inner_run = Simulator.run

    def timed_run(simulator, until):
        timing["run_start"] = monotonic()
        if stamps is not None:
            simulator.attach_monitor(stamps)
        speed = reference_speed()
        timing["setup_speed"] = speed
        count = max(1, math.ceil(until / workload.slice - 1e-9))
        for index in range(1, count + 1):
            boundary = until if index == count else index * workload.slice
            if tracer is not None:
                tracer.enabled = True
            start = time.perf_counter()
            inner_run(simulator, boundary)
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.enabled = False
            next_speed = reference_speed()
            slices.append((elapsed, (speed + next_speed) / 2))
            speed = next_speed
        timing["run_end"] = time.perf_counter()

    Simulator.run = timed_run
    config = ScenarioConfig(scenario=workload.scenario, **spec.defaults).overridden(
        seed=seed, duration=horizon, check=True, **workload.overrides
    )
    result = spec.run(config)
    check_s = time.perf_counter() - timing["run_end"]

    simulator = result.simulator
    nodes = simulator.environment.node_list()
    rounds = simulator.rounds_executed
    raw_gaps: list[float] = []
    gaps_us: list[float] = []
    if stamps is not None:
        for times, (_, factor) in zip(stamps.slices, slices):
            for before, after in zip(times, times[1:]):
                raw_gaps.append(after - before)
                gaps_us.append(round((after - before) * factor * 1e6, 3))
        events = len(gaps_us)
    else:
        events = tracer.stats["simulator.core.round"][0]
    run_s = sum(elapsed for elapsed, _ in slices)
    calibrated_run_s = sum(elapsed * factor for elapsed, factor in slices)
    exports, export_bytes, path_bytes = export_sizes(nodes)

    simulated = {
        "node_rounds": rounds,
        "events": events,
        "export_bytes_mean": export_bytes / exports,
        "wire_bytes": simulator.wire_bytes,
    }
    if workload.scenario == "flocking":
        phi = result.extras["phi"]
        simulated["polarization_final"] = phi[-1] if phi else 0.0
    else:
        recorder = next(m for m in simulator.monitors if isinstance(m, TraceRecorder))
        value_key = "region" if workload.scenario == "scr" else None
        simulated["stabilized_sim_s"] = stabilized_time(recorder.records, value_key, STABILITY_WINDOW)
    digest = hashlib.sha256()
    for node in nodes:
        digest.update(repr((node.id, node.result, node.position)).encode())
    digest.update(json.dumps(simulated, sort_keys=True).encode())

    gated = [
        check
        for check in result.checks
        if workload.gated_checks is None or check.name in workload.gated_checks
    ]
    out = {
        "workload": name,
        "seed": seed,
        "horizon": horizon,
        "trace": trace,
        "run_start": timing["run_start"],
        "setup_speed": timing["setup_speed"],
        "check_s": check_s,
        "slices": len(slices),
        "reference_speed": statistics.median(factor for _, factor in slices),
        "node_rounds_per_s": rounds / calibrated_run_s,
        "gaps_us": gaps_us,
        "raw_node_rounds_per_s": rounds / run_s,
        "raw_round_us_p50": statistics.median(raw_gaps) * 1e6 if raw_gaps else None,
        "raw_round_us_p99": percentile(raw_gaps, 0.99) * 1e6 if raw_gaps else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "simulated": simulated,
        "exports": exports,
        "export_bytes": export_bytes,
        "path_bytes": path_bytes,
        "checks": [[check.name, check.passed, check.detail] for check in gated],
        "ungated_checks": [str(check) for check in result.checks if check not in gated],
        "digest": digest.hexdigest(),
    }
    if tracer is not None:
        out["per_layer"] = tracer.metrics(rounds)
        TRACE_DIR.mkdir(exist_ok=True)
        trace_path = TRACE_DIR / f"rounds-{name}-seed{seed}.csv"
        tracer.write_rounds(trace_path)
        out["trace_file"] = str(trace_path.relative_to(ROOT))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--horizon", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not math.isfinite(args.horizon) or args.horizon <= 0:
        parser.error("--horizon must be a positive number of simulated seconds")
    print(json.dumps(run(args.workload, args.seed, args.horizon, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
