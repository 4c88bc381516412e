"""Core operator semantics: remember, neighbors, share, branch, aggregate."""

import pytest

from fieldcast import (
    Engine,
    NodeContext,
    activate,
    aggregate,
    aggregate_call,
    branch,
    current_engine,
    neighbors,
    remember,
    share,
)
from fieldcast.engine import MAX_DEPTH
from fieldcast.errors import AlignmentError, UsageError
from netharness import SweepNetwork, clique_topology, line_topology


def run_rounds(program, rounds, device_id=0, sensors=None):
    """Single isolated node; returns the per-round results."""
    network = SweepNetwork({device_id: set()}, sensors={device_id: sensors or {}})
    return [network.sweep(program)[device_id] for _ in range(rounds)]


# -- remember ----------------------------------------------------------------


def test_remember_counts_rounds():
    @aggregate
    def counter():
        set_value, value = remember(0)
        set_value(value + 1)
        return value

    assert run_rounds(counter, 4) == [0, 1, 2, 3]


def test_remember_without_set_keeps_value():
    @aggregate
    def stale():
        _, value = remember("x")
        return value

    assert run_rounds(stale, 3) == ["x", "x", "x"]


def test_two_remembers_are_independent_slots():
    @aggregate
    def two():
        set_a, a = remember(0)
        set_b, b = remember(100)
        set_a(a + 1)
        set_b(b - 1)
        return a, b

    assert run_rounds(two, 3) == [(0, 100), (1, 99), (2, 98)]


def test_handle_current_is_round_start_value():
    @aggregate
    def peek():
        set_value, value = remember(0)
        set_value(value + 1)
        return set_value.current

    assert run_rounds(peek, 3) == [0, 1, 2]


def test_last_write_wins_through_handle():
    @aggregate
    def writer():
        set_value, value = remember(0)
        set_value(10)
        set_value(20)
        return value

    assert run_rounds(writer, 2) == [0, 20]


# -- neighbors ----------------------------------------------------------------


def test_isolated_neighbors_contains_only_self():
    @aggregate
    def lonely():
        return neighbors(7).items()

    assert run_rounds(lonely, 1) == [[(0, 7)]]


def test_three_node_clique_sees_all_ids():
    from fieldcast.stdlib import local_id

    @aggregate
    def tell_id():
        return sorted(neighbors(local_id()).values())

    network = SweepNetwork(clique_topology(3))
    network.sweep(tell_id)  # publication sweep
    results = network.sweep(tell_id)
    assert results == {0: [0, 1, 2], 1: [0, 1, 2], 2: [0, 1, 2]}


def test_state_handle_sharing_keeps_receivers_current():
    from fieldcast.stdlib import local_id

    @aggregate
    def stately():
        set_value, value = remember(local_id() * 10)
        field = neighbors(set_value)
        return sorted(field.values())

    network = SweepNetwork(clique_topology(2))
    network.sweep(stately)
    network.sweep(stately)
    third = network.sweep(stately)
    assert third == {0: [0, 10], 1: [0, 10]}


# -- share ----------------------------------------------------------------


def test_share_first_round_sees_initial():
    @aggregate
    def sharing():
        return share(5, lambda field: field.fold(0, lambda a, b: a + b))

    assert run_rounds(sharing, 1) == [5]


def test_share_carries_own_previous_value():
    @aggregate
    def accumulate():
        return share(1, lambda field: field.local() * 2)

    assert run_rounds(accumulate, 4) == [2, 4, 8, 16]


def test_share_advances_one_hop_per_sweep():
    from fieldcast.stdlib import local_id

    @aggregate
    def widest():
        return share(None, lambda f: max(v for v in [*f.values(), local_id()] if v is not None))

    n = 5
    network = SweepNetwork(line_topology(n))
    hops_needed = n  # publication sweep + (n - 1) exchange sweeps
    for sweep in range(1, hops_needed + 1):
        results = network.sweep(widest)
        reached = sum(1 for v in results.values() if v == n - 1)
        assert reached >= sweep  # the maximum covers one more hop each sweep
    assert all(v == n - 1 for v in results.values())


# -- branch ----------------------------------------------------------------


def test_branch_takes_exactly_one_side():
    taken = []

    @aggregate
    def pick():
        return branch(True, lambda: taken.append("then") or 1, lambda: taken.append("else") or 2)

    assert run_rounds(pick, 1) == [1]
    assert taken == ["then"]


@pytest.mark.parametrize("combo", [(False, False), (False, True), (True, False), (True, True)])
def test_branch_isolation_two_nodes(combo):
    """Fields inside a branch contain exactly the devices on the same side."""
    from fieldcast.stdlib import local_id, sense

    @aggregate
    def split():
        inside = branch(
            sense("flag"),
            lambda: neighbors(local_id()).ids(),
            lambda: neighbors(local_id()).ids(),
        )
        after = neighbors(local_id()).ids()
        return inside, after

    sensors = {0: {"flag": combo[0]}, 1: {"flag": combo[1]}}
    network = SweepNetwork(clique_topology(2), sensors=sensors)
    network.sweep(split)
    results = network.sweep(split)

    for node in (0, 1):
        inside, after = results[node]
        same_side = [peer for peer in (0, 1) if combo[peer] == combo[node]]
        assert inside == same_side
        assert after == [0, 1]  # devices realign after the branch


def test_nested_branches_have_distinct_paths():
    @aggregate
    def nested():
        return branch(
            True,
            lambda: branch(False, lambda: "a", lambda: "b"),
            lambda: "c",
        )

    assert run_rounds(nested, 1) == ["b"]


# -- aggregate functions ----------------------------------------------------------


def test_nested_calls_build_nested_paths():
    seen = {}

    @aggregate
    def inner():
        seen["path"] = current_engine().path
        return 1

    @aggregate
    def outer():
        return inner()

    run_rounds(outer, 1)
    tokens = [(t.kind, t.name, t.occurrence) for t in seen["path"]]
    assert tokens == [("fn", "outer", 0), ("fn", "inner", 0)]


def test_recursion_depth_shows_in_path():
    depths = []

    @aggregate
    def descend(k):
        depths.append(len(current_engine().path))
        if k > 1:
            return descend(k - 1)
        return 0

    run_rounds(lambda: descend(3), 1)
    assert depths == [1, 2, 3]


def test_sequential_calls_get_distinct_occurrences():
    paths = []

    @aggregate
    def probe():
        paths.append(current_engine().path[-1].occurrence)
        return 0

    @aggregate
    def main():
        probe()
        probe()

    run_rounds(main, 1)
    assert paths == [0, 1]


def test_aggregate_call_is_transparent_for_pure_bodies():
    @aggregate
    def program():
        return aggregate_call("block", lambda: 2 + 2)

    assert run_rounds(program, 1) == [4]


def test_recursion_limit_raises_clear_error():
    engine = Engine()
    context = NodeContext(0, (0.0, 0.0), 0.0, {})

    @aggregate
    def forever():
        return forever()

    with activate(engine):
        engine.setup(context, {}, None)
        with pytest.raises(AlignmentError, match="depth exceeds limit of 128") as caught:
            forever()
    assert len(caught.value.path) == MAX_DEPTH + 1


def test_body_errors_propagate_with_path_restored():
    engine = Engine()
    context = NodeContext(0, (0.0, 0.0), 0.0, {})

    @aggregate
    def exploding():
        raise RuntimeError("boom")

    with activate(engine):
        engine.setup(context, {}, None)
        with pytest.raises(RuntimeError):
            exploding()
        assert engine.path == ()  # balance restored
        engine.cooldown()


@pytest.mark.parametrize(
    "operator, open_path",
    [
        ("share", "op:share#0"),
        ("branch", "left#0"),
        ("aggregate_call", "fn:block#0"),
        ("aggregate", "fn:leak#0"),
    ],
)
def test_a_scope_left_open_in_an_operator_body_aborts_the_round(operator, open_path):
    def leak(*_):
        current_engine().enter("fn", "leak")  # never exited
        return 1

    run = {
        "share": lambda: share(0, leak),
        "branch": lambda: branch(True, leak, leak),
        "aggregate_call": lambda: aggregate_call("block", leak),
        "aggregate": aggregate(leak),
    }[operator]
    engine = Engine()
    with activate(engine):
        engine.setup(NodeContext(0, (0.0, 0.0), 0.0, {}), {}, None)
        assert run() == 1
        with pytest.raises(AlignmentError) as caught:
            engine.cooldown()
    # the operator closed only the leaked scope, so its own scope is still open
    assert str(caught.value) == f"round ended with unbalanced enter/exit (path: {open_path})"


def test_operators_outside_engine_context_raise():
    with pytest.raises(UsageError):
        remember(0)


def test_alignment_diagnostics_name_the_path():
    engine = Engine()
    with activate(engine):
        engine.setup(NodeContext(0, (0.0, 0.0), 0.0, {}), {}, None)
        engine.enter("fn", "main")
        engine.send(1)
        with pytest.raises(AlignmentError) as caught:
            engine.send(2)
    assert "fn:main#0" in str(caught.value)


def test_sweep_fails_when_a_round_is_aborted():
    """The runner logs and skips a misaligned round; the harness must not."""

    @aggregate
    def sends_twice():
        engine = current_engine()
        engine.send(1)
        engine.send(2)

    network = SweepNetwork(clique_topology(2))
    with pytest.raises(AssertionError, match="2 round\\(s\\) aborted"):
        network.sweep(sends_twice)


def test_rep_nbr_composition_matches_hand_computed_fixpoint():
    """A maximum gossiped via remember + neighbors, traced sweep by sweep.

    The remembered value is what travels, so each exchange delivers the
    neighbors' previous-round states; on a 3-clique seeded with 3/7/5 the
    hand-computed table stabilizes at the global maximum everywhere.
    """
    from fieldcast.stdlib import sense

    @aggregate
    def maxer():
        set_state, state = remember(sense("v"))
        field = neighbors(set_state)
        best = max([state, *field.values()])
        set_state(best)
        return best

    sensors = {0: {"v": 3}, 1: {"v": 7}, 2: {"v": 5}}
    network = SweepNetwork(clique_topology(3), sensors=sensors)
    # sweep 1: nothing received yet, each node keeps its own seed
    assert network.sweep(maxer) == {0: 3, 1: 7, 2: 5}
    # sweep 2: everyone sees the others' round-1 slots (the seeds)
    assert network.sweep(maxer) == {0: 7, 1: 7, 2: 7}
    # fixpoint: stays at the global maximum
    assert network.sweep(maxer) == {0: 7, 1: 7, 2: 7}
