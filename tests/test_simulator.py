"""Event queue, topologies, deployments, runner semantics, monitors."""

import csv
import hashlib
import logging
import math
import random
import re

import pytest
from hypothesis import given, strategies as st

from fieldcast import aggregate, current_engine, neighbors, remember, share
from fieldcast.engine import Export
from fieldcast.errors import DomainError, EncodingError, format_path
from fieldcast.scenarios import oracles
from fieldcast.stdlib import (
    context_rng,
    current_time,
    distance_to,
    hop_distances,
    local_id,
    neighbors_distances,
    sense,
    store_actuation,
)
from fieldcast.simulator import (
    CsvTraceMonitor,
    Environment,
    FrameMonitor,
    Monitor,
    Node,
    Simulator,
    TraceRecorder,
    aggregate_program_runner,
    deformed_lattice,
    derive_seed,
    full_neighborhood,
    grid_generation,
    k_nearest_neighbors,
    motion_actuator,
    radius_neighborhood,
    random_in_circle,
    render_svg_frame,
)
from fieldcast.simulator.environment import _cell

from netharness import SweepNetwork, line_topology


@aggregate
def constant_program():
    return 1


@aggregate
def id_exchange():
    return neighbors(local_id()).ids()


def schedule_everywhere(sim, dt, program):
    for node in sim.environment.node_list():
        sim.schedule_event(0.0, aggregate_program_runner, sim, dt, node, program)


# -- event queue ----------------------------------------------------------------


def test_events_fire_in_time_then_sequence_order():
    sim = Simulator()
    fired = []
    sim.schedule_event(2.0, fired.append, "late")
    sim.schedule_event(1.0, fired.append, "first-at-1")
    sim.schedule_event(1.0, fired.append, "second-at-1")
    sim.run(10)
    assert fired == ["first-at-1", "second-at-1", "late"]


def test_run_without_events_still_notifies_monitors():
    sim = Simulator()
    seen = []

    class Probe(Monitor):
        def on_start(self, simulator):
            seen.append("start")

        def on_finish(self, simulator):
            seen.append("finish")

    sim.attach_monitor(Probe())
    sim.run(10)
    assert seen == ["start", "finish"]
    assert sim.time == 10


def test_scheduling_into_the_past_is_domain_error():
    sim = Simulator()
    sim.schedule_event(1.0, lambda: None)
    sim.run(5)
    with pytest.raises(DomainError):
        sim.schedule_event(2.0, lambda: None)


def test_a_nan_event_time_or_horizon_is_refused():
    sim = Simulator()
    fired = []
    sim.schedule_event(0.5, fired.append, 0.5)
    with pytest.raises(DomainError, match="nan"):
        sim.schedule_event(math.nan, fired.append, "nan")
    sim.schedule_event(1.0, fired.append, 1.0)
    with pytest.raises(DomainError, match="nan"):
        sim.run(math.nan)
    assert sim.time == 0.0 and fired == []
    sim.run(2.0)
    assert fired == [0.5, 1.0] and not sim._queue


def test_events_beyond_horizon_stay_queued():
    sim = Simulator()
    fired = []
    sim.schedule_event(7.0, fired.append, "beyond")
    sim.run(5)
    assert fired == []
    sim.run(10)
    assert fired == ["beyond"]


def test_round_count_matches_horizon_over_period():
    sim = Simulator()
    sim.add_node((0.0, 0.0))
    schedule_everywhere(sim, 0.1, constant_program)
    sim.run(10)
    assert abs(sim.rounds_executed - 100) <= 1


# -- topologies ----------------------------------------------------------------


def assert_node_exact(env, node, radius):
    brute = {
        other.id
        for other in env.nodes.values()
        if other.id != node.id and math.dist(node.position, other.position) <= radius
    }
    assert set(env.neighbor_ids(node)) == brute, node.id


def assert_radius_topology_exact(env, radius):
    for node in env.node_list():
        assert_node_exact(env, node, radius)


def test_radius_neighborhood_matches_brute_force():
    sim = Simulator(seed=3)
    random_in_circle(sim, 60, 1.0)
    sim.environment.set_neighborhood_function(radius_neighborhood(0.3))
    env = sim.environment
    assert_radius_topology_exact(env, 0.3)

    # A seeded random walk: steps within a cell, across one border, and several
    # cells at once, drifting through negative coordinates.  The grid is kept
    # current move by move, so every query must still match brute force.
    rng = random.Random(11)
    radius = 0.3
    for step in range(240):
        node = env.nodes[rng.randrange(len(env.nodes))]
        reach = rng.choice((0.05, 0.3, 1.2))
        x, y = node.position
        env.move_node(node, (x + rng.uniform(-reach, reach), y + rng.uniform(-reach, reach)))
        if step == 80:
            sim.add_node((-0.35, -0.61))
        if step == 160:
            radius = 0.45
            env.set_neighborhood_function(radius_neighborhood(radius))
        assert_radius_topology_exact(env, radius)
    assert min(min(node.position) for node in env.node_list()) < -1.0


def assert_grid_files_each_node_by_its_position(env):
    """Every node sits in exactly one radius-grid bucket: the cell of its position."""
    filed = [(cell, node) for cell, bucket in env._grid.items() for node in bucket]
    assert sorted(node.id for _, node in filed) == sorted(env.nodes)
    assert all(env._grid.values())  # an emptied bucket is dropped
    for cell, node in filed:
        assert cell == _cell(node.position, env._grid_side), node.id


GRID_RADIUS = 0.4
GRID_REACH = 0.5  # GRID_RADIUS plus its skin: the grid's cell side, exact in binary
# One coordinate of a move: onto a cell edge up to two cells away, or a step of up to two cells.
axis_moves = st.one_of(
    st.tuples(st.just("edge"), st.integers(min_value=-2, max_value=2)),
    st.tuples(st.just("step"), st.floats(min_value=-2 * GRID_REACH, max_value=2 * GRID_REACH)),
)


def moved(coordinate, move):
    kind, amount = move
    if kind == "edge":
        return (coordinate // GRID_REACH + amount) * GRID_REACH
    return coordinate + amount


start_coordinates = st.floats(min_value=-1.5, max_value=1.5)


@given(
    st.lists(st.tuples(start_coordinates, start_coordinates), min_size=2, max_size=8),
    st.lists(st.tuples(st.integers(min_value=0, max_value=7), axis_moves, axis_moves), max_size=40),
)
def test_every_move_refiles_its_node_under_the_cell_of_its_position(starts, walk):
    sim = Simulator()
    for position in starts:
        sim.add_node(position)
    env = sim.environment
    env.set_neighborhood_function(radius_neighborhood(GRID_RADIUS))
    assert_radius_topology_exact(env, GRID_RADIUS)
    assert env._grid_side == GRID_REACH
    for index, move_x, move_y in walk:
        node = env.nodes[index % len(env.nodes)]
        x, y = node.position
        env.move_node(node, (moved(x, move_x), moved(y, move_y)))
        assert_grid_files_each_node_by_its_position(env)
        assert_radius_topology_exact(env, GRID_RADIUS)


def count_list_builds(monkeypatch):
    """Count Verlet list builds: each query that misses its node's list scans the grid."""
    builds = []
    radius_grid = Environment._radius_grid

    def counted(env, reach):
        builds.append(reach)
        return radius_grid(env, reach)

    monkeypatch.setattr(Environment, "_radius_grid", counted)
    return builds


def test_verlet_lists_stay_exact_while_every_node_drifts(monkeypatch):
    builds = count_list_builds(monkeypatch)
    sim = Simulator(seed=4)
    random_in_circle(sim, 60, 1.0)
    env = sim.environment
    env.set_neighborhood_function(radius_neighborhood(0.3))
    assert_radius_topology_exact(env, 0.3)
    rng = random.Random(5)
    queries = 0
    for _ in range(200):
        for node in env.node_list():
            angle = rng.uniform(-math.pi, math.pi)
            x, y = node.position
            env.move_node(node, (x + 0.01 * math.cos(angle), y + 0.01 * math.sin(angle)))
            assert_node_exact(env, node, 0.3)
            queries += 1
        assert_radius_topology_exact(env, 0.3)
        queries += 60
    # A list lives about three sweeps (skin / 2 = 0.0375 of travel at 0.01 a
    # step): reused by most queries, and cleared and rebuilt many times.
    assert 60 * 40 < len(builds) < queries / 2


def test_verlet_lists_keep_a_pair_that_closes_to_exactly_the_radius():
    # A 3-4-5 triangle: at step m the pair is 5m/256 apart, exactly, and the
    # radius is 80/256, so m = 16 sits on the boundary.  Both ends move, so
    # the gap closes at twice each node's travel.  Started at m = 38, a rule
    # that let each node travel a whole skin would build a's list at m = 22,
    # just beyond reach, and keep it past m = 16.
    sim = Simulator()
    env = sim.environment
    env.set_neighborhood_function(radius_neighborhood(80 / 256))
    a = sim.add_node((-3 * 38 / 512, -4 * 38 / 512))
    b = sim.add_node((3 * 38 / 512, 4 * 38 / 512))
    heard = {}
    for m in [*range(38, 7, -1), *range(8, 39)]:
        env.move_node(a, (-3 * m / 512, -4 * m / 512))
        env.move_node(b, (3 * m / 512, 4 * m / 512))
        assert math.dist(a.position, b.position) == 5 * m / 256
        assert_radius_topology_exact(env, 80 / 256)
        heard[m] = env.neighbor_ids(a)
    assert heard[16] == (1,) and heard[17] == ()


def test_verlet_lists_take_in_a_node_added_mid_drift():
    sim = Simulator(seed=6)
    random_in_circle(sim, 30, 1.0)
    env = sim.environment
    env.set_neighborhood_function(radius_neighborhood(0.3))
    rng = random.Random(7)
    for sweep in range(20):
        for node in env.node_list():
            x, y = node.position
            env.move_node(node, (x + rng.uniform(-0.01, 0.01), y + rng.uniform(-0.01, 0.01)))
        if sweep == 10:
            sim.add_node((0.05, -0.02))
        assert_radius_topology_exact(env, 0.3)
    assert len(env.nodes) == 31


def test_verlet_lists_follow_a_radius_change_and_an_infinite_radius():
    sim = Simulator(seed=8)
    random_in_circle(sim, 30, 1.0)
    env = sim.environment
    rng = random.Random(9)
    for radius in (0.3, 0.45, 0.2, math.inf):
        env.set_neighborhood_function(radius_neighborhood(radius))
        for _ in range(8):
            for node in env.node_list():
                x, y = node.position
                env.move_node(node, (x + rng.uniform(-0.02, 0.02), y + rng.uniform(-0.02, 0.02)))
            assert_radius_topology_exact(env, radius)
    assert all(len(env.neighbor_ids(node)) == 29 for node in env.node_list())


def test_one_teleport_clears_every_verlet_list(monkeypatch):
    builds = count_list_builds(monkeypatch)
    sim = Simulator(seed=10)
    random_in_circle(sim, 40, 1.0)
    env = sim.environment
    env.set_neighborhood_function(radius_neighborhood(0.3))
    assert_radius_topology_exact(env, 0.3)
    assert len(builds) == 40
    # A short step keeps every list ...
    x, y = env.nodes[0].position
    env.move_node(env.nodes[0], (x + 0.01, y))
    assert_radius_topology_exact(env, 0.3)
    assert len(builds) == 40
    # ... a 1.2-unit jump clears them all, and every node rebuilds its own.
    x, y = env.nodes[3].position
    env.move_node(env.nodes[3], (x + 1.2, y - 0.2))
    assert_radius_topology_exact(env, 0.3)
    assert len(builds) == 80


def test_non_finite_positions_are_refused_before_any_state_changes():
    sim = Simulator(seed=12)
    random_in_circle(sim, 20, 1.0)
    env = sim.environment
    env.set_neighborhood_function(radius_neighborhood(0.4))
    assert_radius_topology_exact(env, 0.4)
    node = env.nodes[5]
    before = node.position
    for bad in ((math.nan, 0.0), (0.0, math.inf), (-math.inf, math.nan)):
        with pytest.raises(DomainError):
            env.move_node(node, bad)
        assert node.position == before
        with pytest.raises(DomainError):
            sim.add_node(bad)
        assert len(env.nodes) == 20
    assert_radius_topology_exact(env, 0.4)
    # The refused moves left no travel or grid entry behind.
    env.move_node(node, (before[0] + 0.3, before[1]))
    assert_radius_topology_exact(env, 0.4)
    assert sim.add_node((0.0, 0.0)).id == 20


def test_topology_arguments_are_checked_at_construction():
    for radius in (-0.1, math.nan):
        with pytest.raises(DomainError):
            radius_neighborhood(radius)
    for k in (-1, 2.5, "3"):
        with pytest.raises(DomainError):
            k_nearest_neighbors(k)


def test_a_topology_with_self_loops_runs_as_one_without_them():
    @aggregate
    def gradient_and_ids():
        distance = distance_to(local_id() == 0, neighbors_distances())
        return distance, neighbors(local_id()).ids()

    positions = {i: (float(i), 0.0) for i in range(4)}
    plain = SweepNetwork(line_topology(4), positions=positions)
    looped = SweepNetwork(
        {i: peers | {i} for i, peers in line_topology(4).items()}, positions=positions
    )
    for _ in range(5):
        assert looped.sweep(gradient_and_ids) == plain.sweep(gradient_and_ids)
    environment = looped.simulator.environment
    assert [environment.neighbor_ids(node) for node in environment.node_list()] == [
        (1,), (0, 2), (1, 3), (2,)
    ]
    assert plain.sweep(gradient_and_ids)[3] == (3.0, [2, 3])


def test_a_sweep_follows_a_link_cut_since_the_last_one():
    @aggregate
    def hops_from_source():
        return distance_to(sense("source"), hop_distances())

    network = SweepNetwork(line_topology(3), sensors={i: {"source": i == 0} for i in range(3)})
    assert network.run(hops_from_source, 6) == {0: 0.0, 1: 1.0, 2: 2.0}
    network.topology[1].discard(2)
    network.topology[2].discard(1)
    assert network.run(hops_from_source, 5) == {0: 0.0, 1: 1.0, 2: math.inf}
    environment = network.simulator.environment
    assert environment.neighbor_ids(environment.nodes[2]) == ()


def test_radius_neighborhood_on_lattice_excludes_diagonals():
    sim = Simulator()
    sim.environment.set_neighborhood_function(radius_neighborhood(0.12))
    grid_generation(sim, 20, 20, 0.1)
    env = sim.environment
    inner = env.nodes[21]  # (row 1, col 1)
    neighbors_found = set(env.neighbor_ids(inner))
    assert neighbors_found == {1, 20, 22, 41}  # axis peers only, diagonal is ~0.141


def test_zero_radius_is_empty():
    sim = Simulator()
    sim.add_node((0.0, 0.0))
    sim.add_node((0.0, 0.0))  # coincident
    sim.environment.set_neighborhood_function(radius_neighborhood(0.0))
    assert sim.environment.neighbor_ids(sim.environment.nodes[0]) == ()


def test_k_nearest_neighbors():
    sim = Simulator()
    for x in (0.0, 1.0, 3.0):
        sim.add_node((x, 0.0))
    env = sim.environment
    env.set_neighborhood_function(k_nearest_neighbors(1))
    assert env.neighbor_ids(env.nodes[1]) == (0,)  # nearer end wins
    env.set_neighborhood_function(k_nearest_neighbors(0))
    assert env.neighbor_ids(env.nodes[1]) == ()
    env.set_neighborhood_function(k_nearest_neighbors(5))
    assert env.neighbor_ids(env.nodes[1]) == (0, 2)  # capped at n - 1


def test_k_nearest_neighbors_breaks_ties_to_the_smaller_id():
    sim = Simulator()
    for position in ((0.0, 0.0), (3.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)):
        sim.add_node(position)
    env = sim.environment
    center = env.nodes[0]
    for k, expected in ((1, (2,)), (2, (2, 3)), (3, (2, 3, 4)), (4, (1, 2, 3, 4))):
        env.set_neighborhood_function(k_nearest_neighbors(k))
        assert env.neighbor_ids(center) == expected


def test_full_neighborhood():
    sim = Simulator()
    for i in range(4):
        sim.add_node((float(i), 0.0))
    env = sim.environment
    env.set_neighborhood_function(full_neighborhood())
    assert all(len(env.neighbor_ids(node)) == 3 for node in env.node_list())
    single = Simulator()
    single.add_node((0.0, 0.0))
    assert single.environment.neighbor_ids(single.environment.nodes[0]) == ()


# -- deployments ----------------------------------------------------------------


def test_grid_positions():
    sim = Simulator()
    nodes = grid_generation(sim, 2, 3, 0.5)
    assert [n.position for n in nodes] == [
        (0.0, 0.0), (0.0, 0.5), (0.0, 1.0),
        (0.5, 0.0), (0.5, 0.5), (0.5, 1.0),
    ]


def test_deformed_lattice_stays_within_noise():
    sim = Simulator(seed=11)
    nodes = deformed_lattice(sim, 20, 20, 0.1, 0.01)
    assert len(nodes) == 400
    for index, node in enumerate(nodes):
        row, col = divmod(index, 20)
        assert abs(node.position[0] - row * 0.1) <= 0.01
        assert abs(node.position[1] - col * 0.1) <= 0.01


def test_zero_noise_equals_grid():
    a, b = Simulator(seed=1), Simulator(seed=2)
    grid = [n.position for n in grid_generation(a, 4, 5, 0.2)]
    before = b.deploy_rng.getstate()
    flat = [n.position for n in deformed_lattice(b, 4, 5, 0.2, 0.0)]
    assert grid == flat
    assert b.deploy_rng.getstate() == before  # zero noise draws nothing


def test_random_in_circle_containment():
    sim = Simulator(seed=5)
    nodes = random_in_circle(sim, 10_000, 2.0, center=(1.0, -1.0))
    assert all(math.dist(n.position, (1.0, -1.0)) <= 2.0 for n in nodes)


def test_bad_dimensions_raise():
    with pytest.raises(DomainError):
        grid_generation(Simulator(), 0, 3, 0.1)
    with pytest.raises(DomainError):
        random_in_circle(Simulator(), 10, 0.0)


# -- runner semantics ----------------------------------------------------------


def test_exchange_visible_from_round_two():
    sim = Simulator()
    sim.environment.set_neighborhood_function(full_neighborhood())
    sim.add_node((0.0, 0.0))
    sim.add_node((1.0, 0.0))
    recorder = TraceRecorder()
    sim.attach_monitor(recorder)
    schedule_everywhere(sim, 0.1, id_exchange)
    sim.run(0.25)

    first = {r[2]: r[4] for r in recorder.records if r[1] == 1}
    second = {r[2]: r[4] for r in recorder.records if r[1] == 2}
    assert first == {0: [0], 1: [1]}  # same-instant exports are not yet visible
    assert second == {0: [0, 1], 1: [0, 1]}


@given(
    st.lists(st.floats(min_value=0.0, max_value=1e3), unique=True, max_size=6).map(sorted),
    st.lists(st.lists(st.floats(min_value=0.0, max_value=10.0), max_size=3), min_size=7),
)
def test_export_before_is_the_last_export_published_strictly_before(times, waits):
    """One clock agrees with the full publish history at every time the runner asks.

    The runner asks at the current instant, so only at or after the latest
    publish; ``times`` are the publishes, strictly increasing.
    """
    node = Node(0, (0.0, 0.0))
    history = []
    for index, time in enumerate([None, *times]):  # None: before the first publish
        if time is not None:
            export = Export({})
            node.publish_export(export, time)
            history.append((time, export))
        start = 0.0 if time is None else time
        for query in [start, start + 1.0] + [start + wait for wait in waits[index]]:
            earlier = [export for published, export in history if published < query]
            assert node.export_before(query) is (earlier[-1] if earlier else None)


def test_constant_program_result_every_round():
    sim = Simulator()
    sim.add_node((0.0, 0.0))
    recorder = TraceRecorder()
    sim.attach_monitor(recorder)
    schedule_everywhere(sim, 0.1, constant_program)
    sim.run(1.0)
    assert all(r[4] == 1 for r in recorder.records)


def test_alignment_error_skips_round_but_keeps_node_alive():
    @aggregate
    def sometimes_broken():
        from fieldcast import current_engine
        from fieldcast.stdlib import current_time

        set_count, count = remember(0)
        set_count(count + 1)
        if local_id() == 0 and current_time() == 0.1:
            engine = current_engine()
            engine.send("a")
            engine.send("b")  # same path twice: alignment error mid-round
        return count

    sim = Simulator()
    sim.environment.set_neighborhood_function(full_neighborhood())
    sim.add_node((0.0, 0.0))
    sim.add_node((1.0, 0.0))
    recorder = TraceRecorder()
    sim.attach_monitor(recorder)
    schedule_everywhere(sim, 0.1, sometimes_broken)
    sim.run(0.55)

    healthy = [r[4] for r in recorder.records if r[2] == 1]
    crashed = [r[4] for r in recorder.records if r[2] == 0]
    assert healthy == [0, 1, 2, 3, 4, 5]
    # node 0 loses the round where it misaligned (state update included),
    # then resumes from the last good state
    assert crashed == [0, 1, 2, 3, 4]


def test_crashing_program_is_logged_with_node_and_time_then_raised(caplog):
    @aggregate
    def divides_by_its_id():
        from fieldcast.stdlib import current_time

        return 1 / local_id() if current_time() >= 0.2 else 0

    sim = Simulator()
    sim.add_node((0.0, 0.0))
    sim.add_node((1.0, 0.0))
    schedule_everywhere(sim, 0.1, divides_by_its_id)
    with caplog.at_level(logging.ERROR, logger="fieldcast.simulator.core"):
        with pytest.raises(ZeroDivisionError, match="division by zero"):
            sim.run(1.0)

    errors = [record for record in caplog.records if record.levelno == logging.ERROR]
    assert len(errors) == 1
    assert "node 0 round at t=0.200000" in errors[0].getMessage()
    assert "ZeroDivisionError" in errors[0].getMessage()
    assert sim.time == pytest.approx(0.2)


def test_a_scope_left_open_in_a_share_update_aborts_the_round_and_keeps_the_state(caplog):
    @aggregate
    def leaky():
        set_count, count = remember(0)
        set_count(count + 1)

        def update(_):
            if current_time() == 0.1:
                current_engine().enter("fn", "leak")  # never exited
            return count

        share(0, update)
        return count

    sim = Simulator()
    node = sim.add_node((0.0, 0.0))
    schedule_everywhere(sim, 0.1, leaky)
    sim.run(0.05)
    state, export = node.state, node.last_export
    with caplog.at_level(logging.WARNING, logger="fieldcast.simulator.core"):
        sim.run(0.15)
    assert [record.getMessage() for record in caplog.records] == [
        "node 0 round at t=0.100000 aborted: "
        "round ended with unbalanced enter/exit (path: fn:leaky#0)"
    ]
    assert node.state is state and node.last_export is export
    assert sim.rounds_executed == 1
    sim.run(0.25)
    assert node.result == 1  # resumed from the kept state
    assert [format_path(path) for path in node.last_export.paths()] == [
        "fn:leaky#0/op:share#0"
    ]


def test_an_export_with_no_wire_form_is_logged_before_the_round_is_committed(caplog):
    @aggregate
    def shares_an_object():
        return neighbors(object()).ids()

    sim = Simulator()
    sim.count_wire_bytes = True
    sim.environment.set_neighborhood_function(full_neighborhood())
    for x in range(3):
        sim.add_node((float(x), 0.0))
    schedule_everywhere(sim, 0.1, shares_an_object)
    expected = r"no wire form \(path: fn:shares_an_object#0/op:neighbors#0\)"
    with caplog.at_level(logging.ERROR, logger="fieldcast.simulator.core"):
        with pytest.raises(EncodingError, match=expected):
            sim.run(1.0)

    errors = [record.getMessage() for record in caplog.records]
    assert len(errors) == 1
    assert "node 0 round at t=0.000000 crashed" in errors[0]
    assert "op:neighbors#0" in errors[0]
    first = sim.environment.nodes[0]
    assert first.state is None and first.last_export is None and first.result is None
    assert sim.rounds_executed == 0 and sim.wire_bytes == 0


@pytest.mark.parametrize("dt", [0.0, -0.1, math.nan, math.inf])
def test_a_round_period_that_is_not_finite_and_positive_is_refused_before_the_round(dt):
    sim = Simulator()
    node = sim.add_node((0.0, 0.0))
    schedule_everywhere(sim, dt, constant_program)
    with pytest.raises(DomainError, match=rf"node 0: round period dt={dt!r} must be finite"):
        sim.run(1.0)
    assert node.state is None and node.last_export is None and node.result is None
    assert sim.rounds_executed == 0 and not sim._queue


def test_a_failing_actuator_is_logged_and_its_round_is_not_committed(caplog):
    @aggregate
    def stands_still():
        store_actuation("heading", (0.0, 0.0))
        return 42

    sim = Simulator()
    node = sim.add_node((0.0, 0.0))
    sim.register_actuator("heading", motion_actuator(1.0, 0.1))
    schedule_everywhere(sim, 0.1, stands_still)
    with caplog.at_level(logging.ERROR, logger="fieldcast.simulator.core"):
        with pytest.raises(DomainError, match="must be a finite non-zero vector"):
            sim.run(1.0)
    errors = [record.getMessage() for record in caplog.records]
    assert len(errors) == 1 and "node 0 round at t=0.000000 crashed" in errors[0]
    assert node.state is None and node.last_export is None and node.result is None
    assert node.position == (0.0, 0.0) and sim.rounds_executed == 0


def test_an_export_with_no_wire_form_leaves_the_node_where_it_was(caplog):
    @aggregate
    def marches_and_shares_an_object():
        store_actuation("heading", (1.0, 0.0))
        return neighbors(object()).ids()

    sim = Simulator()
    sim.count_wire_bytes = True
    node = sim.add_node((0.0, 0.0))
    sim.register_actuator("heading", motion_actuator(1.0, 0.1))
    schedule_everywhere(sim, 0.1, marches_and_shares_an_object)
    with caplog.at_level(logging.ERROR, logger="fieldcast.simulator.core"):
        with pytest.raises(EncodingError):
            sim.run(1.0)
    assert node.position == (0.0, 0.0) and node.last_export is None
    assert sim.rounds_executed == 0


def test_suppressed_node_skips_rounds():
    sim = Simulator()
    node = sim.add_node((0.0, 0.0))
    recorder = TraceRecorder()
    sim.attach_monitor(recorder)
    schedule_everywhere(sim, 0.1, constant_program)
    sim.run(0.35)
    node.suppressed = True
    sim.run(0.75)
    node.suppressed = False
    sim.run(1.0)
    executed = len([r for r in recorder.records if r[2] == node.id])
    assert executed == 4 + 0 + 3  # rounds at 0,.1,.2,.3 then gap, then .8,.9,1.0


def test_monitor_exception_aborts_run():
    class Exploding(Monitor):
        def on_round(self, simulator, node):
            raise RuntimeError("observer failure")

    sim = Simulator()
    sim.add_node((0.0, 0.0))
    sim.attach_monitor(Exploding())
    schedule_everywhere(sim, 0.1, constant_program)
    with pytest.raises(RuntimeError):
        sim.run(1.0)


# -- actuation ----------------------------------------------------------------


def test_motion_actuator_follows_heading():
    @aggregate
    def march():
        store_actuation("heading", (1.0, 0.0))
        return None

    sim = Simulator()
    node = sim.add_node((0.0, 0.0))
    sim.register_actuator("heading", motion_actuator(1.0, 0.1))
    schedule_everywhere(sim, 0.1, march)
    sim.run(0.45)  # rounds at 0, .1, .2, .3, .4
    assert node.position[0] == pytest.approx(0.5, abs=1e-12)
    assert node.position[1] == pytest.approx(0.0, abs=1e-15)


def test_displacement_magnitude_matches_speed_times_dt():
    @aggregate
    def wander():
        from fieldcast.stdlib import context_rng

        angle = context_rng().uniform(-math.pi, math.pi)
        store_actuation("heading", (math.cos(angle), math.sin(angle)))
        return None

    sim = Simulator(seed=9)
    node = sim.add_node((0.0, 0.0))
    sim.register_actuator("heading", motion_actuator(0.05, 0.1))
    positions = [node.position]

    class Tracker(Monitor):
        def on_round(self, simulator, n):
            positions.append(n.position)

    sim.attach_monitor(Tracker())
    schedule_everywhere(sim, 0.1, wander)
    sim.run(2.0)
    for before, after in zip(positions, positions[1:]):
        assert math.dist(before, after) == pytest.approx(0.005, abs=1e-12)


def test_motion_actuator_refuses_a_zero_or_non_finite_heading():
    sim = Simulator()
    node = sim.add_node((0.5, 0.5))
    move = motion_actuator(1.0, 0.1)
    for heading in ((0.0, 0.0), (-0.0, 0.0), (math.nan, 1.0), (math.inf, 0.0), (1.0, -math.inf)):
        with pytest.raises(DomainError):
            move(sim.environment, node, heading)
        assert node.position == (0.5, 0.5)
    move(sim.environment, node, (0.0, -2.0))
    assert node.position == pytest.approx((0.5, 0.4), abs=1e-15)


def test_unregistered_actuation_is_ignored():
    @aggregate
    def shouting():
        store_actuation("unknown", 1)
        return None

    sim = Simulator()
    node = sim.add_node((0.0, 0.0))
    schedule_everywhere(sim, 0.1, shouting)
    sim.run(0.15)
    assert node.position == (0.0, 0.0)


def test_mobility_reshapes_topology():
    """A node drifting out of radio range stops appearing in fields."""

    @aggregate
    def runner_program():
        field = neighbors(local_id())
        if local_id() == 1:
            store_actuation("heading", (1.0, 0.0))  # drift away along +x
        return field.ids()

    sim = Simulator()
    sim.environment.set_neighborhood_function(radius_neighborhood(0.6))
    sim.add_node((0.0, 0.0))
    sim.add_node((0.5, 0.0))
    sim.register_actuator("heading", motion_actuator(1.0, 0.1))
    recorder = TraceRecorder()
    sim.attach_monitor(recorder)
    schedule_everywhere(sim, 0.1, runner_program)
    sim.run(0.55)

    seen_by_0 = [r[4] for r in recorder.records if r[2] == 0]
    # round 2 still exchanges (separation exactly 0.6), round 3 onward is isolated
    assert seen_by_0[0] == [0]
    assert seen_by_0[1] == [0, 1]
    assert all(seen == [0] for seen in seen_by_0[2:])
    distance_at_end = math.dist(
        sim.environment.nodes[0].position, sim.environment.nodes[1].position
    )
    assert distance_at_end > 0.6


# -- self-stabilization under faults ------------------------------------------


@aggregate
def gradient():
    return distance_to(sense("source"), neighbors_distances())


def gradient_line(n):
    """Nodes 1.0 apart along x, radius 1.5, source at node 0."""
    sim = Simulator()
    sim.environment.set_neighborhood_function(radius_neighborhood(1.5))
    for i in range(n):
        sim.add_node((float(i), 0.0), {"source": i == 0})
    schedule_everywhere(sim, 1.0, gradient)
    return sim


def late_join():
    """A sixth node joins the converged line of five at x = 5."""
    sim = gradient_line(5)
    sim.run(20)
    joiner = sim.add_node((5.0, 0.0), {"source": False})
    sim.schedule_event(sim.time + 1.0, aggregate_program_runner, sim, 1.0, joiner, gradient)
    sim.run(40)
    return [node.result for node in sim.environment.node_list()]


def missed_export():
    """Node 4 sleeps through the source moving from node 0 to node 5."""
    sim = gradient_line(6)
    sim.run(20)
    nodes = sim.environment.node_list()
    nodes[4].suppressed = True
    nodes[0].data["source"] = False
    nodes[5].data["source"] = True
    sim.run(40)
    nodes[4].suppressed = False
    sim.run(80)
    return [node.result for node in nodes]


def test_late_join_reaches_the_oracle():
    assert late_join() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]


def test_missed_export_reaches_the_oracle():
    assert missed_export() == [5.0, 4.0, 3.0, 2.0, 1.0, 0.0]


@aggregate
def wandering_gradient():
    if sense("moving"):
        angle = context_rng().uniform(-math.pi, math.pi)
        store_actuation("heading", (math.cos(angle), math.sin(angle)))
    return gradient()


def test_gradient_reaches_the_oracle_after_motion_stops():
    """Nodes random-walk for 3 s, then stop; the gradient re-stabilizes."""
    sim = Simulator(seed=3)
    sim.environment.set_neighborhood_function(radius_neighborhood(0.5))
    nodes = random_in_circle(sim, 40, 1.0)
    for node in nodes:
        node.data = {"source": node.id < 2, "moving": True}
    sim.register_actuator("heading", motion_actuator(0.5, 0.1))
    schedule_everywhere(sim, 0.1, wandering_gradient)
    start = {node.id: node.position for node in nodes}
    sim.run(3.0)
    for node in nodes:
        node.data["moving"] = False
    sim.run(13.0)

    def edges(positions):
        graph = oracles.build_radius_graph(positions, 0.5)
        return {(i, j) for i, adjacent in graph.items() for j in adjacent}

    positions = {node.id: node.position for node in nodes}
    assert edges(positions) != edges(start)  # motion reshaped the topology
    reference = oracles.dijkstra(oracles.build_radius_graph(positions, 0.5), [0, 1])
    # distance_to only counts up in a component without a source, never reaching
    # the oracle's +inf, so the oracle applies to a connected deployment.
    assert all(math.isfinite(distance) for distance in reference.values())
    for node in nodes:
        assert abs(node.result - reference[node.id]) <= 1e-9, node.id


# -- monitors and output ----------------------------------------------------------


def test_csv_trace_format(tmp_path):
    path = tmp_path / "trace.csv"
    sim = Simulator()
    sim.add_node((0.25, -1.5))
    sim.attach_monitor(CsvTraceMonitor(path))
    schedule_everywhere(sim, 0.1, constant_program)
    sim.run(0.15)

    lines = path.read_text().splitlines()
    assert lines[0] == "time,node_id,x,y,value"
    assert lines[1] == "0.000000,0,0.25,-1.5,1"
    assert lines[2] == "0.100000,0,0.25,-1.5,1"
    times = [float(line.split(",")[0]) for line in lines[1:]]
    assert times == sorted(times)


@aggregate
def awkward_value():
    return (local_id(), "a,b") if local_id() == 0 else 'say "hi"'


def test_csv_trace_quotes_values_holding_commas_and_quotes(tmp_path):
    path = tmp_path / "trace.csv"
    sim = Simulator()
    grid_generation(sim, 1, 2, 1.0)
    sim.attach_monitor(CsvTraceMonitor(path))
    schedule_everywhere(sim, 0.1, awkward_value)
    sim.run(0.25)

    with path.open(newline="") as file:
        rows = list(csv.reader(file))
    assert rows[0] == ["time", "node_id", "x", "y", "value"]
    assert len(rows) == 1 + 3 * 2
    for row in rows[1:]:
        assert len(row) == 5, row
        assert row[4] == ("(0, 'a,b')" if row[1] == "0" else 'say "hi"')


@aggregate
def round_counter():
    set_count, count = remember(0)
    set_count(count + 1)
    return count


def lattice_outputs(directory, stops):
    """CSV trace and frames of a 2x2 lattice advanced by one ``run`` per stop."""
    sim = Simulator(seed=3)
    sim.environment.set_neighborhood_function(radius_neighborhood(1.5))
    deformed_lattice(sim, 2, 2, 1.0, 0.1)
    sim.attach_monitor(CsvTraceMonitor(directory / "trace.csv"))
    sim.attach_monitor(FrameMonitor(directory / "frames", interval=1.0))
    schedule_everywhere(sim, 1.0, round_counter)
    for until in stops:
        sim.run(until)
    return {str(path.relative_to(directory)): path.read_bytes() for path in directory.rglob("*.*")}


def test_a_run_resumed_in_parts_writes_what_one_run_writes(tmp_path):
    whole = lattice_outputs(tmp_path / "whole", [4.0])
    assert len(whole["trace.csv"].splitlines()) == 1 + 5 * 4  # rounds at t = 0..4
    assert sorted(whole) == [f"frames/frame_{i}.svg" for i in range(5)] + ["trace.csv"]
    # one stop on a frame boundary, one between two
    assert lattice_outputs(tmp_path / "split", [1.0, 2.5, 4.0]) == whole


def test_frame_monitor_writes_svg(tmp_path):
    sim = Simulator()
    sim.environment.set_neighborhood_function(full_neighborhood())
    sim.add_node((0.0, 0.0))
    sim.add_node((1.0, 1.0))
    sim.attach_monitor(FrameMonitor(tmp_path, interval=0.5))
    schedule_everywhere(sim, 0.1, constant_program)
    sim.run(1.0)

    frames = sorted(tmp_path.glob("frame_*.svg"))
    assert len(frames) == 3  # t=0, t=0.5, t=1.0
    content = frames[0].read_text()
    assert content.startswith("<svg") and "circle" in content and "line" in content


def test_a_frame_is_drawn_once_its_instant_is_over(tmp_path):
    sim = Simulator()
    sim.environment.set_neighborhood_function(radius_neighborhood(1.5))
    deformed_lattice(sim, 3, 3, 1.0, 0.0)
    sim.attach_monitor(FrameMonitor(tmp_path, interval=0.5))
    schedule_everywhere(sim, 0.5, constant_program)
    sim.run(1.0)
    fills = re.findall(r'<circle [^>]*fill="([^"]+)"', (tmp_path / "frame_0.svg").read_text())
    assert len(fills) == 9
    assert "#888888" not in fills  # every node has its t = 0 result


@pytest.mark.parametrize("interval", [0.0, -1.0, math.nan, math.inf])
def test_frame_monitor_refuses_an_interval_that_is_not_finite_and_positive(tmp_path, interval):
    # Constructed only: with interval 0 the emit loop would never end.
    with pytest.raises(DomainError):
        FrameMonitor(tmp_path, interval=interval)


def test_render_handles_empty_and_boolean_fields():
    sim = Simulator()
    assert "<svg" in render_svg_frame(sim.environment)
    node = sim.add_node((0.0, 0.0))
    node.result = True
    assert "circle" in render_svg_frame(sim.environment)


def test_a_seeded_frame_renders_the_recorded_bytes():
    sim = Simulator(seed=11)
    sim.environment.set_neighborhood_function(radius_neighborhood(1.5))
    rng = random.Random(11)
    for node in deformed_lattice(sim, 20, 20, 1.0, 0.3):
        node.result = rng.choice([rng.uniform(-5.0, 5.0), rng.randrange(10), True, math.inf, "x"])
    frame = render_svg_frame(sim.environment).encode()
    assert hashlib.sha256(frame).hexdigest() == (
        "00b8ff8cad788a02823e57f106ba5afb21b3099af503de2c53409e4488111c0e"
    )


def test_render_scales_colours_on_the_finite_values_only():
    sim = Simulator()
    for x, value in enumerate([0.0, 1.0, 2.0, math.inf, math.nan]):
        sim.add_node((float(x), 0.0)).result = value
    fills = re.findall(r'<circle [^>]*fill="([^"]+)"', render_svg_frame(sim.environment))
    assert fills == [
        "hsl(240, 70%, 50%)",  # lowest finite value: blue
        "hsl(120, 70%, 50%)",
        "hsl(0, 70%, 50%)",  # highest finite value: red
        "#000000",  # non-finite values stay black
        "#000000",
    ]


# -- seeding ----------------------------------------------------------------


def test_derive_seed_is_stable_and_distinct():
    assert derive_seed(42, 7) == derive_seed(42, 7)
    assert derive_seed(42, 7) != derive_seed(42, 8)
    assert derive_seed(42, 7) != derive_seed(43, 7)


def test_node_streams_differ_but_reproduce():
    sim_a, sim_b = Simulator(seed=4), Simulator(seed=4)
    nodes_a = [sim_a.add_node((0.0, 0.0)) for _ in range(3)]
    nodes_b = [sim_b.add_node((0.0, 0.0)) for _ in range(3)]
    draws_a = [n.rng.random() for n in nodes_a]
    draws_b = [n.rng.random() for n in nodes_b]
    assert draws_a == draws_b
    assert len(set(draws_a)) == 3
