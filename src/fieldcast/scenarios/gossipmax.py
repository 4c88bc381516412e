"""Gossip scenario: every device learns the network-wide maximum.

Each node draws one value from its seeded stream at deployment time and
gossips it; the check verifies the fixpoint equals the true maximum and that
uniformity is reached within the graph diameter (counted as exchange rounds
after the first sweep, which only publishes initial values).
"""

from __future__ import annotations

import math

from ..calculus import aggregate
from ..stdlib import gossip_max, sense
from . import oracles
from .base import CheckResult, RunResult, ScenarioConfig, build_simulator, simulate

description = "network-wide maximum via epidemic gossip"
defaults = {"rows": 10, "cols": 10}


@aggregate
def gossip_main():
    return gossip_max(sense("value"))


def run(config: ScenarioConfig) -> RunResult:
    simulator = build_simulator(config)
    nodes = simulator.environment.node_list()
    for node in nodes:
        node.data = {"value": node.rng.random()}

    result = simulate(config, simulator, gossip_main)
    true_max = max(node.data["value"] for node in nodes)
    if config.check:
        result.checks.extend(_gossip_checks(config, result, true_max))
    result.extras["true_max"] = true_max
    return result


def _gossip_checks(config, result, true_max) -> list[CheckResult]:
    results = result.results
    everywhere = all(value == true_max for value in results.values())
    checks = [
        CheckResult(
            "fixpoint",
            everywhere,
            "every node holds the global maximum" if everywhere else "some node lags",
        )
    ]

    adjacency = oracles.build_radius_graph(result.positions, config.radius)
    diameter = oracles.graph_diameter(adjacency)
    uniform_sweep = uniformity_sweep(result.recorder, set(results), true_max)
    bound = diameter + 1  # first sweep publishes, then one hop per sweep
    checks.append(
        CheckResult(
            "diameter-bound",
            uniform_sweep is not None and uniform_sweep <= bound,
            f"uniform at sweep {uniform_sweep} vs bound {bound} (diameter {diameter})",
        )
    )
    return checks


def uniformity_sweep(recorder, node_ids, target) -> int | None:
    """First sweep index at which every node's gossip value equals ``target``."""
    by_sweep: dict[int, dict[int, float]] = {}
    for _, sweep, node_id, _, value in recorder.records:
        by_sweep.setdefault(sweep, {})[node_id] = value
    for sweep in sorted(by_sweep):
        snapshot = by_sweep[sweep]
        if set(snapshot) == node_ids and all(
            not math.isnan(v) and v == target for v in snapshot.values()
        ):
            return sweep
    return None
