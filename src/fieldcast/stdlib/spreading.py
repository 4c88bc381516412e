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


@aggregate
def broadcast(source: bool, value: Any, metric: NeighborhoodField) -> Any:
    """Propagate each source's value outward along descending potential.

    One share carries (potential, value).  Its update makes one pass over the
    neighbors' entries: it relaxes the potential as ``distance_to`` does and
    picks the parent, the neighbor with the smallest finite potential (ties
    to the smallest id).  Sources return ``value`` immediately; everyone else
    adopts its parent's value, or keeps its local ``value`` when it has no
    usable neighbor (it is disconnected from every source).
    """
    check_metric(metric)

    def update(links: NeighborhoodField) -> tuple:
        if source:
            return (0.0, value)
        owner = links.owner
        edges = metric._values  # the field's own dict: plain lookups, no dunder calls
        best = None  # the first smallest estimate, as min() takes it
        parent = None  # ids ascend, so the first smallest potential is the smallest (potential, id)
        for neighbor_id, entry in links.items():
            if neighbor_id == owner:
                continue
            upstream = entry[0]
            if neighbor_id in edges:
                estimate = upstream + edges[neighbor_id]
                if best is None or estimate < best:
                    best = estimate
            if upstream != INF and (parent is None or upstream < parent[0]):
                parent = entry
        return (INF if best is None else best, parent[1] if parent is not None else value)

    return share((INF, None), update)[1]


@aggregate
def cast_from(
    source: bool,
    initial: Any,
    accumulate: Callable[[Any, float], Any],
    metric: NeighborhoodField,
) -> Any:
    """Propagate from sources while accumulating over each hop's edge length.

    One share carries (potential, value).  Its update makes one pass over the
    neighbors' entries: it relaxes the potential as ``broadcast`` does and
    follows the cheapest route, the neighbor with a finite potential that
    minimizes (upstream potential + edge length, id), applying ``accumulate``
    to that neighbor's value and the edge length.  With addition from 0 this
    reproduces the potential itself; with a constant accumulator, broadcast.
    """
    check_metric(metric)

    def update(links: NeighborhoodField) -> tuple:
        if source:
            return (0.0, initial)
        owner = links.owner
        edges = metric._values
        best = None  # the first smallest estimate, as min() takes it
        best_key, carried = None, initial
        for neighbor_id, entry in links.items():
            if neighbor_id == owner or neighbor_id not in edges:
                continue
            upstream = entry[0]
            weight = edges[neighbor_id]
            estimate = upstream + weight
            if best is None or estimate < best:
                best = estimate
            if upstream != INF:
                key = (estimate, neighbor_id)
                if best_key is None or key < best_key:
                    best_key = key
                    carried = accumulate(entry[1], weight)
        return (INF if best is None else best, carried)

    return share((INF, None), update)[1]
