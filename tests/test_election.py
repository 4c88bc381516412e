"""Leader election: symmetry breaking, coverage, separation."""

import math
import random

import pytest

from fieldcast import aggregate
from fieldcast.errors import DomainError
from fieldcast.scenarios import oracles
from fieldcast.stdlib import elect_leaders, hop_distances, leader_election, neighbors_distances
from netharness import SweepNetwork, clique_topology, scripted


def election_program(radius):
    @aggregate
    def main():
        return leader_election(radius, neighbors_distances())

    return main


def two_node_network(distance, seed=0):
    return SweepNetwork(
        {0: {1}, 1: {0}},
        positions={0: (0.0, 0.0), 1: (distance, 0.0)},
        seed=seed,
    )


def test_single_node_elects_itself():
    network = SweepNetwork({0: set()})
    result = network.sweep(election_program(4.0))[0]
    assert result.leader and result.winner == 0 and result.distance == 0.0


def test_two_close_nodes_elect_the_smaller_key():
    network = two_node_network(1.0)
    results = network.run_until_stable(election_program(4.0))
    keys = {n: results[n].key for n in (0, 1)}
    expected_winner = min((keys[n], n) for n in (0, 1))[1]
    assert [n for n in results if results[n].leader] == [expected_winner]
    loser = 1 - expected_winner
    assert results[loser].winner == expected_winner
    assert results[loser].distance == pytest.approx(1.0)


def test_two_far_nodes_are_both_leaders():
    network = two_node_network(10.0)
    results = network.run_until_stable(election_program(4.0))
    assert all(results[n].leader for n in (0, 1))


def test_keys_are_remembered_not_redrawn():
    network = two_node_network(1.0)
    program = election_program(4.0)
    first = network.sweep(program)
    for _ in range(5):
        last = network.sweep(program)
    assert first[0].key == last[0].key


def test_same_seed_same_outcome():
    def run(seed):
        network = two_node_network(1.0, seed=seed)
        return network.run(election_program(4.0), 6)

    assert run(7) == run(7)
    keys_a = {n: r.key for n, r in run(7).items()}
    keys_b = {n: r.key for n, r in run(8).items()}
    assert keys_a != keys_b


def test_a_node_does_not_refresh_candidacies_from_its_own_table():
    """Stretching the only edge from 1 to 3 must move the loser's winner distance to 3.

    The node's own previous table still holds the winner at distance 1 and
    its own edge is 0: counting the owner would pin the distance at 1.
    """
    network = SweepNetwork({0: {1}, 1: {0}})
    scales = {0: (1.0,), 1: (1.0,)}
    program = scripted(lambda scale: leader_election(10.0, hop_distances() * scale), scales)
    network.run_until_stable(program)
    scales.update({0: (3.0,), 1: (3.0,)})
    results = network.run_until_stable(program)
    loser = next(n for n, r in results.items() if not r.leader)
    assert results[loser].distance == 3.0


class FixedKey:
    """A random stream whose every draw is the same key."""

    def random(self):
        return 0.5


def test_equal_keys_elect_the_smallest_id():
    network = SweepNetwork(clique_topology(3))
    for node in network.simulator.environment.node_list():
        node.rng = FixedKey()
    results = network.run_until_stable(election_program(10.0))
    assert [n for n, r in results.items() if r.leader] == [0]
    assert {r.winner for r in results.values()} == {0}


def test_radius_domain_error():
    # A NaN or infinite radius must fail too: no candidacy would ever expire.
    for radius in (0.0, math.nan, math.inf):
        network = SweepNetwork({0: set()})
        with pytest.raises(DomainError):
            network.sweep(election_program(radius))


def test_elect_leaders_returns_bool():
    network = SweepNetwork({0: set()})

    @aggregate
    def main():
        return elect_leaders(1.0, neighbors_distances())

    assert network.sweep(main)[0] is True


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fixpoint_coverage_and_separation_on_random_deployments(seed):
    rng = random.Random(seed)
    n, comm_radius, election_radius = 30, 0.45, 0.5
    positions = {i: (rng.random() * 2, rng.random() * 2) for i in range(n)}
    adjacency = oracles.build_radius_graph(positions, comm_radius)
    topology = {i: set(adjacency[i]) for i in range(n)}
    network = SweepNetwork(topology, positions=positions, seed=seed)

    results = network.run_until_stable(election_program(election_radius), max_sweeps=400)
    leaders = [n_ for n_, r in results.items() if r.leader]

    # coverage: every node's winning candidate lies within the radius
    assert all(r.distance <= election_radius for r in results.values())

    # separation: no two leaders within the radius along graph paths
    for leader in leaders:
        distances = oracles.dijkstra(adjacency, [leader])
        for other in leaders:
            if other != leader:
                assert distances[other] > election_radius

    # winners really carry the winner's key
    for node, r in results.items():
        assert results[r.winner].key == r.key or not math.isfinite(r.distance)
