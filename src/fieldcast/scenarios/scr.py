"""Coordination-regions scenario: elect leaders, count and broadcast per region.

Leaders are elected so that every device is within the election radius of
exactly one of them; each region then counts its members through a
convergecast along the leader potential and broadcasts the count back out.
The traced value is the region size each device ends up knowing.
"""

from __future__ import annotations

import math

from ..calculus import aggregate
from ..stdlib import (
    broadcast,
    count_nodes,
    distance_to,
    leader_election,
    neighbors_distances,
)
from . import oracles
from .base import CheckResult, RunResult, ScenarioConfig, build_simulator, simulate

description = "coordination regions: leader election, per-region node counts"
defaults = {"duration": 15.0}


def make_program(leader_radius: float):
    @aggregate
    def scr_main():
        distances = neighbors_distances()
        election = leader_election(leader_radius, distances)
        potential = distance_to(election.leader, distances)
        members = count_nodes(potential)
        region = broadcast(election.leader, members, distances)
        return {
            "region": region,
            "leader": election.leader,
            "winner": election.winner,
            "winner_distance": election.distance,
            "potential": potential,
        }

    return scr_main


def run(config: ScenarioConfig) -> RunResult:
    simulator = build_simulator(config)
    if config.leader_radius is not None:
        leader_radius = config.leader_radius
    else:
        # A quarter of the deployment's extent (the lattice's diagonal or the
        # disc's diameter), floored for degenerate layouts.
        if config.n > 0:
            extent = 2 * config.spacing * math.sqrt(config.n)
        else:
            extent = math.hypot((config.rows - 1) * config.spacing, (config.cols - 1) * config.spacing)
        leader_radius = max(0.25 * extent, config.spacing)

    result = simulate(config, simulator, make_program(leader_radius), value_key="region")
    if config.check:
        result.checks.extend(region_checks(config, result.results, result.positions, leader_radius))
    result.extras["leader_radius"] = leader_radius
    return result


def region_checks(
    config: ScenarioConfig, results: dict, positions: dict, leader_radius: float
) -> list[CheckResult]:
    """Fixpoint properties: coverage, leader separation, count conservation."""
    leaders = sorted(node for node, r in results.items() if r["leader"])
    checks = []

    worst = max(r["winner_distance"] for r in results.values())
    checks.append(
        CheckResult(
            "coverage",
            worst <= leader_radius,
            f"max winning-candidate distance {worst:.4f} vs radius {leader_radius:.4f}",
        )
    )

    adjacency = oracles.build_radius_graph(positions, config.radius)
    separated = True
    closest = None
    for leader in leaders:
        distances = oracles.dijkstra(adjacency, [leader])
        for other in leaders:
            if other > leader:
                if closest is None or distances[other] < closest:
                    closest = distances[other]
                if distances[other] <= leader_radius:
                    separated = False
    checks.append(
        CheckResult(
            "separation",
            separated,
            f"{len(leaders)} leaders, closest pair {closest:.4f}" if closest is not None else f"{len(leaders)} leader(s)",
        )
    )

    total = sum(results[leader]["region"] for leader in leaders)
    checks.append(
        CheckResult(
            "conservation",
            total == len(results),
            f"sum of region counts {total} vs {len(results)} nodes",
        )
    )
    return checks
