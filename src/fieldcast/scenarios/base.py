"""Scenario plumbing shared by every bundled experiment.

A scenario module keeps only what is its own: its ``description``,
``defaults`` (the settings that differ from ``ScenarioConfig``), the node data,
the program, the oracle checks and any extras.  The skeleton every scenario
runs lives here once:

* ``build_simulator`` validates the config and deploys the nodes under a
  radius topology: ``n`` nodes uniformly in a disc of radius
  ``spacing * sqrt(n)`` when ``n > 0``, a deformed ``rows`` x ``cols`` lattice
  otherwise.
* ``simulate`` attaches the monitors (a ``TraceRecorder``, a
  ``StabilityTracker`` unless the scenario checks no stability, and the
  optional CSV trace and SVG frames), schedules
  every node at t = 0, runs to ``duration`` and snapshots the final results
  and positions into a ``RunResult``.  It is the one place a run passes
  through, so run-wide instrumentation belongs here.  When it attached a
  tracker and ``config.check`` is set, it also appends the ``stabilized``
  check (``stability_check``) as the run's first check; the scenario appends
  its oracle checks after it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Callable

from ..errors import DomainError
from ..simulator import (
    CsvTraceMonitor,
    FrameMonitor,
    Simulator,
    StabilityTracker,
    TraceRecorder,
    aggregate_program_runner,
    deformed_lattice,
    radius_neighborhood,
    random_in_circle,
)
from ..simulator.monitors import STABILITY_WINDOW


@dataclass
class ScenarioConfig:
    """Parameters of one scenario run; flags and config files fill this in."""

    scenario: str = ""
    rows: int = 20
    cols: int = 20
    n: int = 0
    spacing: float = 0.1
    noise: float = 0.01
    radius: float = 0.12
    dt: float = 0.1
    duration: float = 10.0
    seed: int = 0
    out: str | None = None
    frames: str | None = None
    frame_interval: float = 1.0
    check: bool = False
    wire_stats: bool = False  # count encoded export bytes during the run
    # scenario-specific knobs
    width: float | None = None  # channel
    leader_radius: float | None = None  # scr
    speed: float = 0.05  # flocking
    noise_amplitude: float = 0.1  # flocking
    model_dim: int = 4  # sofl
    learning_rate: float = 0.1  # sofl
    clusters: int = 2  # sofl
    threshold: float = 0.5  # sofl

    def validate(self) -> None:
        for setting in fields(self):
            value = getattr(self, setting.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise DomainError(f"{setting.name} must be finite, not {value}")
        for name in ("spacing", "dt", "duration", "frame_interval", "threshold"):
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be positive")
        for name in ("n", "noise", "radius", "speed", "noise_amplitude"):
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must be non-negative")
        if self.duration < self.dt:
            raise DomainError("duration must be at least one round period")
        for name in ("width", "leader_radius"):  # None picks the scenario's default
            if getattr(self, name) is not None and getattr(self, name) <= 0:
                raise DomainError(f"{name} must be positive")
        if self.model_dim <= 0:
            raise DomainError("model dimension must be positive")
        if not 0.0 < self.learning_rate < 1.0:
            raise DomainError("learning rate must lie in (0, 1)")
        if self.clusters <= 0:
            raise DomainError("cluster count must be positive")

    def overridden(self, **changes) -> "ScenarioConfig":
        return replace(self, **changes)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def __str__(self) -> str:
        status = "ok" if self.passed else "FAILED"
        suffix = f" ({self.detail})" if self.detail else ""
        return f"check {self.name}: {status}{suffix}"


@dataclass
class RunResult:
    """Outcome of a scenario run: final field values, the run's monitors, oracle verdicts."""

    config: ScenarioConfig
    simulator: Simulator
    results: dict[int, Any]
    positions: dict[int, tuple]
    recorder: TraceRecorder
    stability: StabilityTracker | None
    checks: list[CheckResult] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(check.passed for check in self.checks)


def build_simulator(config: ScenarioConfig) -> Simulator:
    """Validate ``config`` and deploy its nodes under a radius topology.

    ``n > 0`` places ``n`` nodes uniformly in a disc of radius
    ``spacing * sqrt(n)``; otherwise a deformed ``rows`` x ``cols`` lattice.
    """
    config.validate()
    simulator = Simulator(seed=config.seed)
    simulator.count_wire_bytes = config.wire_stats
    simulator.environment.set_neighborhood_function(radius_neighborhood(config.radius))
    if config.n > 0:
        random_in_circle(simulator, config.n, config.spacing * math.sqrt(config.n))
    else:
        deformed_lattice(simulator, config.rows, config.cols, config.spacing, config.noise)
    return simulator


def simulate(
    config: ScenarioConfig,
    simulator: Simulator,
    program: Callable,
    value_key: str | None = None,
    stable_key: str | None = None,
    stability_checked: bool = True,
) -> RunResult:
    """Monitor, schedule and run every node, then snapshot the outcome.

    ``value_key`` picks the traced value out of dict results for the CSV
    trace and the frames; the stability tracker follows ``stable_key``, or
    ``value_key`` when no ``stable_key`` is given, and with ``config.check``
    its verdict is the first of ``RunResult.checks``.  A scenario without a
    stability check passes ``stability_checked=False``: no tracker is
    attached and ``RunResult.stability`` is None.
    """
    recorder = TraceRecorder()
    simulator.attach_monitor(recorder)
    stability = None
    if stability_checked:
        stability = StabilityTracker(stable_key or value_key)
        simulator.attach_monitor(stability)
    if config.out:
        simulator.attach_monitor(CsvTraceMonitor(Path(config.out), value_key))
    if config.frames:
        simulator.attach_monitor(FrameMonitor(Path(config.frames), config.frame_interval, value_key))
    nodes = simulator.environment.node_list()
    for node in nodes:
        simulator.schedule_event(0.0, aggregate_program_runner, simulator, config.dt, node, program)
    simulator.run(config.duration)
    result = RunResult(
        config,
        simulator,
        {node.id: node.result for node in nodes},
        {node.id: node.position for node in nodes},
        recorder,
        stability,
    )
    if stability is not None and config.check:
        result.checks.append(stability_check(result))
    return result


def stability_check(result: RunResult) -> CheckResult:
    stable = result.stability.stabilized(result.simulator.environment)
    return CheckResult(
        "stabilized",
        stable,
        f"every node unchanged for {STABILITY_WINDOW} consecutive rounds"
        if stable
        else "field still changing at end of run",
    )
