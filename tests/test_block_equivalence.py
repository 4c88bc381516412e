"""One share per block: the library blocks against their nested-share forms.

``broadcast`` and ``cast_from`` once ran a nested ``distance_to`` next to
their own share, and ``collect_with`` a nested ``find_parent``.  The
reference blocks below are those nested forms, kept verbatim.  A neighbor's
nested entry and its outer entry always come from the same export, so the
potential each one-share block relaxes inside its update is the one the
nested block would have shared: every sweep must give the same results.
"""

from typing import Any, Callable

from hypothesis import given, settings, strategies as st

from fieldcast import aggregate, share
from fieldcast.fields import NeighborhoodField
from fieldcast.stdlib import (
    broadcast,
    cast_from,
    collect_with,
    distance_to,
    find_parent,
    hop_distances,
    local_id,
    neighbors_distances,
)
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
