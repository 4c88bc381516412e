"""Information spreading: potential fields, broadcast, accumulating casts.

These are the classic self-stabilizing blocks built on the min-plus gradient:
each node relaxes its estimate against the neighbors' shared estimates every
round, so on a static connected graph the potential converges to the
shortest-path distance to the nearest source and heals itself after sources
or topology change.
"""

from __future__ import annotations

from typing import Any, Callable

from ..calculus import aggregate, share
from ..fields import NeighborhoodField
from ._util import INF, check_metric


@aggregate
def distance_to(source: bool, metric: NeighborhoodField) -> float:
    """Shortest-path distance to the nearest source under ``metric``.

    One Bellman-Ford relaxation per round: sources clamp to 0, everyone else
    takes the minimum neighbor estimate plus edge length, +inf when no
    neighbor is aligned in both the estimates and the metric.  The relaxation
    is one loop over the estimates that reads the metric's entries in place
    and keeps the first minimum in ascending-id order, as ``min`` would.  Own
    older estimates never participate, so values can rise again after a
    source moves or disappears.

    Count to infinity: in a connected component with no source every
    estimate is still some neighbor's estimate plus an edge, so once finite
    the estimates there keep growing, by about one edge per round, instead of
    becoming +inf.  The potential reaches the shortest-path oracle only while
    every node stays connected to a source.
    """
    check_metric(metric)

    def relax(estimates: NeighborhoodField) -> float:
        if source:
            return 0.0
        owner = estimates.owner
        edges = metric._values  # the field's own dict: plain lookups, no dunder calls
        best = None  # the first smallest estimate, as min() takes it
        for j, estimate in estimates.items():
            if j != owner and j in edges:
                candidate = estimate + edges[j]
                if best is None or candidate < best:
                    best = candidate
        return INF if best is None else best

    return share(INF, relax)


def _relax(links: NeighborhoodField, metric: NeighborhoodField) -> float:
    """``distance_to``'s relax over the potentials the neighbors carry in ``entry[0]``."""
    owner = links.owner
    edges = metric._values  # the field's own dict: plain lookups, no dunder calls
    best = None  # the first smallest estimate, as min() takes it
    for j, entry in links.items():
        if j != owner and j in edges:
            estimate = entry[0] + edges[j]
            if best is None or estimate < best:
                best = estimate
    return INF if best is None else best


@aggregate
def broadcast(source: bool, value: Any, metric: NeighborhoodField) -> Any:
    """Propagate each source's value outward along descending potential.

    One share carries (potential, value): the potential is ``distance_to``'s,
    relaxed from the potentials the neighbors share alongside their values.
    Sources return ``value`` immediately; everyone else adopts the value held
    by its parent, the neighbor with the smallest potential (ties to the
    smallest id).  A node with no usable neighbor (disconnected from every
    source) falls back to its local ``value``.
    """
    check_metric(metric)

    def update(links: NeighborhoodField) -> tuple:
        if source:
            return (0.0, value)
        # ids ascend, so the first smallest potential is the smallest (potential, id)
        owner = links.owner
        parent = None
        for neighbor_id, entry in links.items():
            if neighbor_id != owner and entry[0] != INF and (parent is None or entry[0] < parent[0]):
                parent = entry
        return (_relax(links, metric), parent[1] if parent is not None else value)

    return share((INF, None), update)[1]


@aggregate
def cast_from(
    source: bool,
    initial: Any,
    accumulate: Callable[[Any, float], Any],
    metric: NeighborhoodField,
) -> Any:
    """Propagate from sources while accumulating over each hop's edge length.

    One share carries (potential, value), the potential relaxed as in
    ``broadcast``.  The carried value follows the cheapest route: each node
    extends the neighbor minimizing (upstream potential + edge length),
    applying ``accumulate`` to that neighbor's value and the edge length.
    With addition from 0 this reproduces the potential itself; with a
    constant accumulator it reproduces broadcast.
    """
    check_metric(metric)

    def update(links: NeighborhoodField) -> tuple:
        if source:
            return (0.0, initial)
        owner = links.owner
        edges = metric._values
        best_key = None
        best = None
        for neighbor_id, entry in links.items():
            upstream = entry[0]
            if neighbor_id == owner or upstream == INF or neighbor_id not in edges:
                continue
            weight = edges[neighbor_id]
            key = (upstream + weight, neighbor_id)
            if best_key is None or key < best_key:
                best_key = key
                best = accumulate(entry[1], weight)
        return (_relax(links, metric), best if best_key is not None else initial)

    return share((INF, None), update)[1]
