"""Self-stabilizing blocks reaching their oracles once faults are injected."""

import math
import random

import pytest

from fieldcast import aggregate
from fieldcast.scenarios import oracles
from fieldcast.simulator import (
    Simulator,
    aggregate_program_runner,
    deformed_lattice,
    radius_neighborhood,
)
from fieldcast.stdlib import broadcast, distance_to, gossip_max, local_id, neighbors_distances, sense

RADIUS = 0.12


@aggregate
def blocks():
    """The gradient to the source, the source's id broadcast, and the largest id."""
    source = sense("source")
    metric = neighbors_distances()
    return (
        distance_to(source, metric),
        broadcast(source, local_id(), metric),
        gossip_max(local_id()),
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "periods", [(0.05, 0.1, 0.23), (0.07, 0.3)], ids=["three-periods", "two-periods"]
)
def test_mixed_round_periods_reach_the_oracles(periods, seed):
    """Each node rounds at its own period, drawn per node, on a 10x10 lattice."""
    sim = Simulator(seed=seed)
    sim.environment.set_neighborhood_function(radius_neighborhood(RADIUS))
    nodes = deformed_lattice(sim, 10, 10, 0.1, 0.01)
    draw = random.Random(seed)
    drawn = []
    for node in nodes:
        node.data = {"source": node.id == 0}
        drawn.append(draw.choice(periods))
        sim.schedule_event(0.0, aggregate_program_runner, sim, drawn[-1], node, blocks)
    assert set(drawn) == set(periods)
    sim.run(40.0)

    graph = oracles.build_radius_graph({node.id: node.position for node in nodes}, RADIUS)
    reference = oracles.dijkstra(graph, [0])
    assert all(math.isfinite(distance) for distance in reference.values())  # connected
    for node in nodes:
        distance, source_id, largest_id = node.result
        assert abs(distance - reference[node.id]) <= 1e-9, node.id
        assert source_id == 0, node.id
        assert largest_id == len(nodes) - 1, node.id
