"""Channel scenario: mark the devices near the shortest source-target path.

The program composes four stages: neighbor distances, a potential anchored at
the target, a convergecast marking the parent chain from the source (the
shortest path), and a second potential measuring distance from that chain.  A
device belongs to the channel when that distance is below the channel width.
"""

from __future__ import annotations

import math

from ..calculus import aggregate
from ..stdlib import collect_or, distance_to, neighbors_distances, sense
from . import oracles
from .base import CheckResult, RunResult, ScenarioConfig, build_simulator, simulate

description = "devices within a width of the shortest source-target path"
defaults: dict = {}


def make_program(width: float):
    @aggregate
    def channel_main():
        distances = neighbors_distances()
        target_distance = distance_to(sense("target"), distances)
        on_path = collect_or(target_distance, sense("source"))
        path_distance = distance_to(on_path, distances)
        return 1.0 if path_distance < width else 0.0

    return channel_main


def run(config: ScenarioConfig) -> RunResult:
    simulator = build_simulator(config)
    width = config.width if config.width is not None else 1.5 * config.spacing
    nodes = simulator.environment.node_list()
    for node in nodes:
        node.data = {"source": False, "target": False}
    nodes[0].data["source"] = True
    nodes[-1].data["target"] = True

    result = simulate(config, simulator, make_program(width))
    if config.check:
        result.checks.append(
            _channel_oracle(config, result.results, result.positions, width, nodes[0].id, nodes[-1].id)
        )
    return result


def _channel_oracle(
    config: ScenarioConfig,
    results: dict,
    positions: dict,
    width: float,
    source: int,
    target: int,
) -> CheckResult:
    """Compare the stabilized channel with a Dijkstra-built reference set."""
    adjacency = oracles.build_radius_graph(positions, config.radius)
    potential = oracles.dijkstra(adjacency, [target])
    if potential[source] == math.inf:
        return CheckResult("channel-oracle", False, "source and target are disconnected")
    chain = oracles.parent_chain(adjacency, potential, source)
    chain_distance = oracles.dijkstra(adjacency, sorted(chain))
    expected = {node for node, d in chain_distance.items() if d < width}
    actual = {node for node, value in results.items() if value == 1.0}
    if expected == actual:
        return CheckResult("channel-oracle", True, f"{len(actual)} devices in channel")
    extra = sorted(actual - expected)[:5]
    missing = sorted(expected - actual)[:5]
    return CheckResult(
        "channel-oracle",
        False,
        f"mismatch: {len(actual ^ expected)} devices differ (extra={extra}, missing={missing})",
    )
