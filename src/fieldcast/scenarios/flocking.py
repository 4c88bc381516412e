"""Flocking scenario: heading alignment with constant-speed motion.

Each device keeps a heading angle, shares its unit velocity with neighbors
within the interaction radius, adopts the circular mean of the received
velocities (itself included), perturbs it with scaled uniform noise, and
stages a motion actuation; the simulator then moves it by speed * dt along
the new heading.  Polarization (the magnitude of the mean unit velocity over
all devices) measures how aligned the flock is: 1 means perfect consensus.
"""

from __future__ import annotations

import math
from pathlib import Path

from ..calculus import aggregate, neighbors, remember
from ..stdlib import context_rng, store_actuation
from ..simulator import motion_actuator
from .base import CheckResult, RunResult, ScenarioConfig, build_simulator, simulate

DEFAULTS = {"rows": 10, "cols": 10, "radius": 0.3}


def normalize_angle(theta: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    wrapped = math.remainder(theta, math.tau)
    if wrapped <= -math.pi:
        wrapped += math.tau
    return wrapped


def make_program(noise_amplitude: float):
    @aggregate
    def flocking_main():
        set_heading, heading = remember(None)
        if heading is None:
            heading = context_rng().uniform(-math.pi, math.pi)
        velocities = neighbors((math.cos(heading), math.sin(heading)))
        sum_x = 0.0
        sum_y = 0.0
        for _, (vx, vy) in velocities.items():
            sum_x += vx
            sum_y += vy
        mean_heading = math.atan2(sum_y, sum_x)
        perturbation = context_rng().uniform(-math.pi, math.pi) * noise_amplitude
        new_heading = normalize_angle(mean_heading + perturbation)
        set_heading(new_heading)
        store_actuation("heading", (math.cos(new_heading), math.sin(new_heading)))
        return new_heading

    return flocking_main


def run(config: ScenarioConfig) -> RunResult:
    simulator = build_simulator(config)
    simulator.register_actuator("heading", motion_actuator(config.speed, config.dt))

    result = simulate(
        "flocking", config, simulator, make_program(config.noise_amplitude), stability_checked=False
    )
    phi_series = polarization_series(result.recorder, len(result.results))
    if config.check:
        result.checks.extend(_flocking_checks(config, result.recorder, phi_series))
    result.extras["phi"] = phi_series
    if config.out:
        _write_phi(config, phi_series)
    return result


def polarization_series(recorder, node_count: int) -> list[float]:
    """Per-sweep polarization from the recorded headings."""
    by_sweep: dict[int, list[float]] = {}
    for _, sweep, _, _, heading in recorder.records:
        by_sweep.setdefault(sweep, []).append(heading)
    series = []
    for sweep in sorted(by_sweep):
        headings = by_sweep[sweep]
        if len(headings) != node_count:
            continue  # partial sweep at the horizon
        sum_x = sum(math.cos(h) for h in headings)
        sum_y = sum(math.sin(h) for h in headings)
        series.append(math.hypot(sum_x, sum_y) / len(headings))
    return series


def _write_phi(config: ScenarioConfig, series: list[float]) -> None:
    path = Path(config.out)
    phi_path = path.with_name(path.stem + "_phi.csv")
    with phi_path.open("w", encoding="utf-8", newline="\n") as handle:
        handle.write("sweep,phi\n")
        for index, phi in enumerate(series, start=1):
            handle.write(f"{index},{phi!r}\n")


def _flocking_checks(config, recorder, phi_series) -> list[CheckResult]:
    checks = [displacement_check(recorder, config.speed, config.dt)]
    final_phi = phi_series[-1] if phi_series else 0.0
    checks.append(
        CheckResult(
            "alignment",
            final_phi > 0.9,
            f"final polarization {final_phi:.4f}",
        )
    )
    return checks


def displacement_check(recorder, speed: float, dt: float, tolerance: float = 1e-12) -> CheckResult:
    """Every step moves each node by exactly speed * dt (within tolerance)."""
    expected = speed * dt
    last_position: dict[int, tuple] = {}
    worst = 0.0
    steps = 0
    for _, _, node_id, position, _ in recorder.records:
        if node_id in last_position:
            px, py = last_position[node_id]
            displacement = math.hypot(position[0] - px, position[1] - py)
            worst = max(worst, abs(displacement - expected))
            steps += 1
        last_position[node_id] = position
    return CheckResult(
        "kinematics",
        steps > 0 and worst <= tolerance,
        f"max |displacement - v*dt| = {worst:.3e} over {steps} steps",
    )
