"""The library blocks against the earlier forms they replace.

One share per block: ``broadcast`` and ``cast_from`` once ran a nested
``distance_to`` next to their own share, and ``collect_with`` a nested
``find_parent``.  The reference blocks below are those nested forms, kept
verbatim.  A neighbor's nested entry and its outer entry always come from the
same export, so the potential each one-share block relaxes inside its update
is the one the nested block would have shared: every sweep must give the same
results.

One pass per field: ``distance_to`` once relaxed through composed fields
(``exclude_self``, then ``zip_with`` the metric, then ``min``), and the metric
builders went through ``map_values`` and the public constructor.  Their
references are those forms, kept verbatim; the one-pass forms must give the
same floats, bit for bit.
"""

import math
from operator import add
from typing import Any, Callable

import pytest
from hypothesis import given, settings, strategies as st

from fieldcast import aggregate, neighbors, share
from fieldcast.fields import NeighborhoodField
from fieldcast.stdlib import (
    broadcast,
    cast_from,
    collect_with,
    distance_to,
    find_parent,
    hop_distances,
    local_id,
    local_position,
    neighbors_distances,
)
from fieldcast.stdlib import spreading
from fieldcast.stdlib._util import check_metric
from netharness import SweepNetwork, scripted

INF = float("inf")


@aggregate
def reference_broadcast(source: bool, value: Any, metric: NeighborhoodField) -> Any:
    potential = distance_to(source, metric)

    def update(links: NeighborhoodField) -> tuple:
        if source:
            return (potential, value)
        parent = min(
            (
                (entry[0], neighbor_id, entry[1])
                for neighbor_id, entry in links.items()
                if neighbor_id != links.owner and entry[0] != INF
            ),
            default=None,
        )
        return (potential, parent[2] if parent is not None else value)

    return share((INF, None), update)[1]


@aggregate
def reference_cast_from(
    source: bool,
    initial: Any,
    accumulate: Callable[[Any, float], Any],
    metric: NeighborhoodField,
) -> Any:
    potential = distance_to(source, metric)

    def update(links: NeighborhoodField) -> tuple:
        if source:
            return (potential, initial)
        best_key = None
        best = None
        for neighbor_id, entry in links.items():
            upstream = entry[0]
            if neighbor_id == links.owner or upstream == INF or neighbor_id not in metric:
                continue
            weight = metric[neighbor_id]
            key = (upstream + weight, neighbor_id)
            if best_key is None or key < best_key:
                best_key = key
                best = accumulate(entry[1], weight)
        return (potential, best if best_key is not None else initial)

    return share((INF, None), update)[1]


@aggregate
def reference_collect_with(
    potential: float, local: Any, accumulate: Callable[[Any, Any], Any]
) -> Any:
    parent = find_parent(potential)
    me = local_id()

    def update(links: NeighborhoodField) -> tuple:
        result = local
        for neighbor_id, entry in links.items():
            if neighbor_id != me and entry[0] == me:
                result = accumulate(result, entry[1])
        return (parent, result)

    return share((None, None), update)[1]


def blocks_under_test(spread, cast, collect):
    """All three blocks on one node, on the metric the node is scripted to use.

    Nodes on different metrics are misaligned at the metric but aligned at
    the blocks' shares, so a block sees neighbors its metric does not hold.
    Tuples record the order of every accumulation and which source won.
    """

    def block(source: bool, hops: bool) -> tuple:
        me = local_id()
        metric = hop_distances() if hops else neighbors_distances()
        potential = distance_to(source, metric)
        return (
            spread(source, me, metric),
            cast(source, (me,), lambda carried, weight: carried + (weight,), metric),
            collect(potential, (me,), lambda acc, child: acc + child),
        )

    return block


SWEEPS = 12


@st.composite
def scripted_runs(draw):
    """A random topology of at most 7 nodes and a script for every sweep.

    Sources switch once, from one set to another; one node is suppressed
    for a window of sweeps; one metric runs everywhere except on the few
    nodes drawn to run the other.
    """
    n = draw(st.integers(min_value=2, max_value=7))
    node = st.integers(min_value=0, max_value=n - 1)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    topology = {i: set() for i in range(n)}
    for i, j in draw(st.lists(st.sampled_from(pairs), unique=True)):
        topology[i].add(j)
        topology[j].add(i)
    coordinate = st.integers(min_value=0, max_value=3).map(float)
    positions = {i: (draw(coordinate), draw(coordinate)) for i in range(n)}
    hops = draw(st.booleans())
    other_metric = draw(st.sets(node, max_size=2))
    metric = {i: hops != (i in other_metric) for i in range(n)}
    sources = [draw(st.sets(node, max_size=2)) for _ in range(2)]
    switch = draw(st.integers(min_value=1, max_value=SWEEPS - 1))
    suppressed = draw(node)
    first = draw(st.integers(min_value=0, max_value=SWEEPS - 1))
    silent = range(first, draw(st.integers(min_value=first, max_value=SWEEPS)))
    return topology, positions, metric, sources, switch, suppressed, silent


@settings(max_examples=200)
@given(scripted_runs())
def test_one_share_blocks_match_their_nested_forms_every_sweep(run):
    topology, positions, metric, sources, switch, suppressed, silent = run
    nodes = set(topology)
    inputs = {i: (i in sources[0], metric[i]) for i in nodes}
    library = SweepNetwork(topology, positions=positions)
    reference = SweepNetwork(topology, positions=positions)
    program = scripted(blocks_under_test(broadcast, cast_from, collect_with), inputs)
    reference_program = scripted(
        blocks_under_test(reference_broadcast, reference_cast_from, reference_collect_with),
        inputs,
    )
    for sweep in range(SWEEPS):
        if sweep == switch:
            inputs.update({i: (i in sources[1], metric[i]) for i in nodes})
        only = nodes - {suppressed} if sweep in silent else None
        assert library.sweep(program, only) == reference.sweep(reference_program, only), sweep


# -- one pass per field ---------------------------------------------------------


def reference_relax(estimates: NeighborhoodField, metric: NeighborhoodField) -> float:
    return min(estimates.exclude_self().zip_with(metric, add).values(), default=INF)


@aggregate
def reference_distance_to(source: bool, metric: NeighborhoodField) -> float:
    check_metric(metric)

    def relax(estimates: NeighborhoodField) -> float:
        if source:
            return 0.0
        return reference_relax(estimates, metric)

    return share(INF, relax)


@aggregate
def reference_neighbors_distances() -> NeighborhoodField:
    own = local_position()
    positions = neighbors(own)
    ox, oy = own
    return positions.map_values(lambda p: math.hypot(p[0] - ox, p[1] - oy))


@aggregate
def reference_hop_distances() -> NeighborhoodField:
    present = neighbors(True)
    me = local_id()
    return NeighborhoodField(me, {j: 0.0 if j == me else 1.0 for j in present.ids()})


def gradient_under_test(gradient):
    def block(source: bool, hops: bool) -> float:
        return gradient(source, hop_distances() if hops else neighbors_distances())

    return block


def metrics_under_test(_source: bool, _hops: bool) -> tuple:
    """Both metric builders next to their references, as (type, owner, repr) each."""
    built = (
        neighbors_distances(),
        reference_neighbors_distances(),
        hop_distances(),
        reference_hop_distances(),
    )
    return tuple((type(field), field.owner, repr(field)) for field in built)


@settings(max_examples=200)
@given(scripted_runs())
def test_one_pass_distance_to_matches_the_composed_relax_every_sweep(run):
    topology, positions, metric, sources, switch, suppressed, silent = run
    nodes = set(topology)
    inputs = {i: (i in sources[0], metric[i]) for i in nodes}
    library = SweepNetwork(topology, positions=positions)
    reference = SweepNetwork(topology, positions=positions)
    program = scripted(gradient_under_test(distance_to), inputs)
    reference_program = scripted(gradient_under_test(reference_distance_to), inputs)
    for sweep in range(SWEEPS):
        if sweep == switch:
            inputs.update({i: (i in sources[1], metric[i]) for i in nodes})
        only = nodes - {suppressed} if sweep in silent else None
        # repr tells -0.0 from 0.0, which == does not
        assert repr(library.sweep(program, only)) == repr(
            reference.sweep(reference_program, only)
        ), sweep


coordinates = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


@settings(max_examples=100)
@given(scripted_runs(), st.data())
def test_one_pass_metric_builders_match_their_composed_forms_every_sweep(run, data):
    topology, _, metric, _, _, suppressed, silent = run
    nodes = set(topology)
    positions = {i: (data.draw(coordinates), data.draw(coordinates)) for i in nodes}
    network = SweepNetwork(topology, positions=positions)
    program = scripted(metrics_under_test, {i: (False, metric[i]) for i in nodes})
    for sweep in range(4):
        only = nodes - {suppressed} if sweep in silent else None
        for node, (distances, reference_distances, hops, reference_hops) in network.sweep(
            program, only
        ).items():
            assert distances == reference_distances, (sweep, node)
            assert hops == reference_hops, (sweep, node)


def relax_of_distance_to(estimates: NeighborhoodField, metric: NeighborhoodField) -> float:
    """``distance_to``'s relax on one estimates field, outside any round."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spreading, "share", lambda initial, update: update(estimates))
        return distance_to.__wrapped__(False, metric)


# Ties, both zeros, infinities; NaN only among the estimates, since a NaN edge
# fails the metric check.
edges = st.sampled_from([0.0, -0.0, 0.5, 1.0, 1.5, INF])
estimates = st.one_of(edges, st.just(math.nan))
ids = st.integers(min_value=0, max_value=6)


@given(
    owner=ids,
    estimates=st.dictionaries(ids, estimates, max_size=7),
    metric=st.dictionaries(ids, edges, max_size=7),
)
def test_one_pass_relax_takes_what_the_composed_relax_takes(owner, estimates, metric):
    """Misaligned ids fall on either side, and the owner's entry may be missing."""
    estimates, metric = NeighborhoodField(owner, estimates), NeighborhoodField(owner, metric)
    assert repr(relax_of_distance_to(estimates, metric)) == repr(
        reference_relax(estimates, metric)
    )


def test_the_relax_keeps_the_first_of_tied_minima_and_skips_the_owner():
    estimates = NeighborhoodField(2, {0: 0.5, 1: -0.0, 2: -1.0, 3: 0.0, 5: 0.0})
    metric = NeighborhoodField(2, {0: INF, 1: -0.0, 2: 0.0, 3: 0.0, 4: 0.0})
    # ids 1 and 3 tie at -0.0 and 0.0; the owner's -1.0 and id 5 (no edge) take no part
    assert repr(relax_of_distance_to(estimates, metric)) == "-0.0"
    assert relax_of_distance_to(NeighborhoodField(2, {2: 0.0}), metric) == INF
