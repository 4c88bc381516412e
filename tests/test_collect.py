"""Convergecast blocks: parents, aggregation, flag collection."""

import math

from fieldcast import aggregate
from fieldcast.scenarios import oracles
from fieldcast.stdlib import (
    collect_or,
    collect_with,
    count_nodes,
    distance_to,
    find_parent,
    neighbors_distances,
    sense,
    sum_values,
)
from netharness import SweepNetwork, grid_topology, line_topology, scripted


def network_with_potential(topology, positions, sources):
    sensors = {n: {"source": n in sources} for n in topology}
    return SweepNetwork(topology, positions=positions, sensors=sensors)


def line_network(n, sources={0}):
    return network_with_potential(
        line_topology(n), {i: (float(i), 0.0) for i in range(n)}, sources
    )


# -- find_parent ----------------------------------------------------------------


def parent_program():
    @aggregate
    def main():
        potential = distance_to(sense("source"), neighbors_distances())
        return find_parent(potential)

    return main


def test_source_is_its_own_parent():
    network = line_network(3)
    results = network.run_until_stable(parent_program())
    assert results[0] == 0


def test_chain_parents_descend_toward_source():
    network = line_network(3)
    results = network.run_until_stable(parent_program())
    assert results == {0: 0, 1: 0, 2: 1}


def test_plateau_is_local_minimum():
    """Equal potentials everywhere: strict inequality keeps everyone self-parented."""
    network = SweepNetwork(line_topology(3))

    @aggregate
    def flat():
        return find_parent(1.0)

    results = network.run(flat, 3)
    assert results == {0: 0, 1: 1, 2: 2}


def test_a_former_source_takes_its_neighbor_not_its_own_old_potential():
    """Node 0's own previous entry (potential 0) is below node 1's 1: it must not count."""
    network = SweepNetwork(line_topology(2))
    potentials = {0: (0.0,), 1: (1.0,)}
    program = scripted(find_parent, potentials)
    network.sweep(program)
    potentials[0] = (2.0,)
    assert network.sweep(program)[0] == 1


def test_equal_neighbor_potentials_pick_the_smaller_id():
    network = SweepNetwork(line_topology(3))
    program = scripted(find_parent, {0: (0.0,), 1: (1.0,), 2: (0.0,)})
    assert network.run(program, 2)[1] == 0


# -- collect_with ----------------------------------------------------------------


def collection_program(local=1, accumulate=lambda a, b: a + b):
    @aggregate
    def main():
        potential = distance_to(sense("source"), neighbors_distances())
        return collect_with(potential, local, accumulate)

    return main


def test_leaf_keeps_local_value():
    network = line_network(3)
    results = network.run_until_stable(collection_program())
    assert results[2] == 1  # farthest node aggregates only itself


def test_a_source_does_not_collect_its_own_previous_result():
    """A source is its own parent, so its own entry names it: that entry must not count."""
    network = SweepNetwork({0: set()})
    program = scripted(count_nodes, {0: (0.0,)})
    assert [network.sweep(program)[0] for _ in range(4)] == [1, 1, 1, 1]


def test_a_node_with_two_equal_parents_reports_to_the_smaller_id():
    """Diamond 0-{1,2}-3: node 3 ties between parents 1 and 2 and joins 1's count."""
    network = SweepNetwork({0: {1, 2}, 1: {0, 3}, 2: {0, 3}, 3: {1, 2}})
    program = scripted(count_nodes, {0: (0.0,), 1: (1.0,), 2: (1.0,), 3: (2.0,)})
    assert network.run_until_stable(program) == {0: 4, 1: 2, 2: 1, 3: 1}


def test_path_of_three_sums_to_source():
    network = line_network(3)
    results = network.run_until_stable(collection_program())
    assert results[0] == 3


def test_collect_concatenates_lists():
    network = line_network(3)

    @aggregate
    def gather():
        from fieldcast.stdlib import local_id

        potential = distance_to(sense("source"), neighbors_distances())
        return collect_with(potential, (local_id(),), lambda a, b: a + b)

    results = network.run_until_stable(gather)
    assert sorted(results[0]) == [0, 1, 2]


def test_grid_collection_conserves_total():
    topology, positions = grid_topology(4, 5)
    network = network_with_potential(topology, positions, {7})
    results = network.run_until_stable(collection_program())
    assert results[7] == len(topology)


def test_count_and_sum_specializations():
    topology, positions = grid_topology(3, 3)
    sensors = {n: {"source": n == 0, "reading": float(n)} for n in topology}
    network = SweepNetwork(topology, positions=positions, sensors=sensors)

    @aggregate
    def main():
        potential = distance_to(sense("source"), neighbors_distances())
        return count_nodes(potential), sum_values(potential, sense("reading"))

    results = network.run_until_stable(main)
    count, total = results[0]
    assert count == 9
    assert total == sum(range(9))


def test_sum_of_zeros_is_zero():
    network = line_network(4)

    @aggregate
    def main():
        potential = distance_to(sense("source"), neighbors_distances())
        return sum_values(potential, 0.0)

    results = network.run_until_stable(main)
    assert results[0] == 0.0


# -- collect_or ----------------------------------------------------------------


def test_flagged_node_is_true():
    network = SweepNetwork({0: set()}, sensors={0: {"source": True, "flag": True}})

    @aggregate
    def main():
        potential = distance_to(sense("source"), neighbors_distances())
        return collect_or(potential, sense("flag"))

    assert network.sweep(main)[0] is True


def test_no_flags_everything_false():
    topology, positions = grid_topology(3, 3)
    sensors = {n: {"source": n == 0, "flag": False} for n in topology}
    network = SweepNetwork(topology, positions=positions, sensors=sensors)

    @aggregate
    def main():
        potential = distance_to(sense("source"), neighbors_distances())
        return collect_or(potential, sense("flag"))

    results = network.run_until_stable(main)
    assert not any(results.values())


def test_collect_or_marks_exactly_the_shortest_path_chain():
    """Flag at one end, potential anchored at the other: the chain lights up."""
    topology, positions = grid_topology(4, 4)
    anchor, flagged = 0, 15
    sensors = {n: {"anchor": n == anchor, "flag": n == flagged} for n in topology}
    network = SweepNetwork(topology, positions=positions, sensors=sensors)

    @aggregate
    def main():
        potential = distance_to(sense("anchor"), neighbors_distances())
        return collect_or(potential, sense("flag"))

    results = network.run_until_stable(main)

    adjacency = {
        node: {peer: math.dist(positions[node], positions[peer]) for peer in peers}
        for node, peers in topology.items()
    }
    potentials = oracles.dijkstra(adjacency, [anchor])
    expected = oracles.parent_chain(adjacency, potentials, flagged)
    assert {node for node, lit in results.items() if lit} == expected
