"""Shared scenario plumbing: configuration, run results, common setup."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
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
)

# Window of identical per-node values that counts as a stabilized field.
STABILITY_WINDOW = 10


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
    threshold: float | None = None  # sofl

    def validate(self) -> None:
        for name in ("spacing", "dt", "duration", "frame_interval"):
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be positive")
        for name in ("noise", "radius"):
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must be non-negative")
        if self.duration < self.dt:
            raise DomainError("duration must be at least one round period")

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
    """Outcome of a scenario run: final field values plus oracle verdicts."""

    scenario: str
    config: ScenarioConfig
    simulator: Simulator
    results: dict[int, Any]
    positions: dict[int, tuple]
    checks: list[CheckResult] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(check.passed for check in self.checks)


def build_lattice_simulator(config: ScenarioConfig) -> Simulator:
    """Deformed-lattice deployment with a radius topology, ready to schedule."""
    simulator = Simulator(seed=config.seed)
    simulator.count_wire_bytes = config.wire_stats
    simulator.environment.set_neighborhood_function(radius_neighborhood(config.radius))
    deformed_lattice(simulator, config.rows, config.cols, config.spacing, config.noise)
    return simulator


def schedule_all(simulator: Simulator, dt: float, program: Callable) -> None:
    for node in simulator.environment.node_list():
        simulator.schedule_event(0.0, aggregate_program_runner, simulator, dt, node, program)


def attach_output_monitors(
    simulator: Simulator, config: ScenarioConfig, value_key: str | None
) -> tuple[TraceRecorder, StabilityTracker]:
    """Wire the standard monitors: recorder, stability, optional CSV/frames."""
    recorder = TraceRecorder()
    stability = StabilityTracker(value_key, STABILITY_WINDOW)
    simulator.attach_monitor(recorder)
    simulator.attach_monitor(stability)
    if config.out:
        simulator.attach_monitor(CsvTraceMonitor(Path(config.out), value_key))
    if config.frames:
        simulator.attach_monitor(FrameMonitor(Path(config.frames), config.frame_interval, value_key))
    return recorder, stability


def final_snapshot(simulator: Simulator) -> tuple[dict[int, Any], dict[int, tuple]]:
    nodes = simulator.environment.node_list()
    return (
        {node.id: node.result for node in nodes},
        {node.id: node.position for node in nodes},
    )


def stability_check(stability: StabilityTracker, simulator: Simulator) -> CheckResult:
    stable = stability.stabilized(simulator.environment)
    return CheckResult(
        "stabilized",
        stable,
        f"every node unchanged for {STABILITY_WINDOW} consecutive rounds"
        if stable
        else "field still changing at end of run",
    )


def lattice_diagonal(config: ScenarioConfig) -> float:
    return math.hypot((config.rows - 1) * config.spacing, (config.cols - 1) * config.spacing)
