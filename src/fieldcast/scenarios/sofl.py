"""Decentralized federated-learning scenario on an analytic toy model.

Every device trains a weight vector against its own data-cluster center
(quadratic loss, one gradient step per round), measures how well neighbor
models fit its data, elects federation leaders within a loss threshold,
collects models up the potential, averages them, and adopts the broadcast
regional model for the next round.  With well-separated cluster centers the
federations align with the data clusters.
"""

from __future__ import annotations

from pathlib import Path

from ..calculus import aggregate, remember
from ..stdlib import (
    average_weights,
    broadcast,
    collect_with,
    distance_to,
    leader_election,
    local_id,
    loss_based_distances,
    sense,
)
from ..simulator import CsvTraceMonitor
from .base import CheckResult, RunResult, ScenarioConfig, build_simulator, simulate

description = "self-organizing federated learning on an analytic toy model"
defaults = {"rows": 8, "cols": 8, "radius": 0.15}

CENTER_SCALE = 2.0


def cluster_center(cluster: int, dim: int) -> tuple[float, ...]:
    """Deterministic well-separated center for a data cluster."""
    magnitude = CENTER_SCALE * (1 + cluster // dim)
    return tuple(magnitude if i == cluster % dim else 0.0 for i in range(dim))


def make_program(threshold: float, learning_rate: float):
    @aggregate
    def sofl_main():
        center = sense("center")
        set_state, state = remember((sense("model0"), 0))
        weights, tick = state

        trained = tuple(
            w - learning_rate * 2.0 * (w - c) for w, c in zip(weights, center)
        )

        def evaluate(model):
            loss = 0  # added in order: sum() compensates floats from 3.12 on
            for m, c in zip(model, center):
                loss += (m - c) ** 2
            return loss

        loss = evaluate(trained)
        distances = loss_based_distances(trained, evaluate)
        election = leader_election(threshold, distances)
        potential = distance_to(election.leader, distances)
        # Model lists travel stamped with the contributor's federation, and
        # both the collection and the final adoption ignore material from a
        # different federation: near convergence the loss metric degenerates
        # toward zero, parent links can dangle across a region boundary, and
        # an unguarded average would drag models toward the wrong cluster.
        collected = collect_with(
            potential,
            (election.winner, (trained,)),
            lambda acc, child: (acc[0], acc[1] + child[1]) if child[0] == acc[0] else acc,
        )
        aggregated = average_weights(collected[1])
        stamped = broadcast(election.leader, (local_id(), aggregated), distances)
        adopted = stamped[1] if stamped[0] == election.winner else trained
        set_state((tuple(adopted), tick + 1))
        return {
            "loss": loss,
            "federation": election.winner,
            "leader": election.leader,
            "tick": tick + 1,
        }

    return sofl_main


def run(config: ScenarioConfig) -> RunResult:
    simulator = build_simulator(config)
    assign_clusters(simulator, config)
    if config.out:
        path = Path(config.out)
        simulator.attach_monitor(
            CsvTraceMonitor(path.with_name(path.stem + "_federation.csv"), "federation")
        )

    result = simulate(
        config,
        simulator,
        make_program(config.threshold, config.learning_rate),
        value_key="loss",
        stable_key="federation",
    )
    clusters = {node.id: node.data["cluster"] for node in simulator.environment.node_list()}
    if config.check:
        result.checks.append(purity_check(result.results, clusters))
    result.extras["clusters"] = clusters
    result.extras["purity"] = federation_purity(result.results, clusters)
    return result


def assign_clusters(simulator, config: ScenarioConfig) -> None:
    """Partition the deployment into vertical bands of synthetic data clusters."""
    nodes = simulator.environment.node_list()
    xs = [node.position[0] for node in nodes]
    low, high = min(xs), max(xs)
    span = (high - low) or 1.0
    zeros = tuple(0.0 for _ in range(config.model_dim))
    for node in nodes:
        fraction = (node.position[0] - low) / span
        cluster = min(config.clusters - 1, int(fraction * config.clusters))
        node.data = {
            "cluster": cluster,
            "center": cluster_center(cluster, config.model_dim),
            "model0": zeros,
        }


def federation_purity(results: dict, clusters: dict) -> float:
    """Fraction of nodes whose federation leader shares their data cluster."""
    same = sum(
        1 for node, r in results.items() if clusters[r["federation"]] == clusters[node]
    )
    return same / len(results)


def purity_check(results: dict, clusters: dict) -> CheckResult:
    purity = federation_purity(results, clusters)
    return CheckResult("purity", purity >= 0.9, f"federation/cluster purity {purity:.3f}")
