"""Convergecast: aggregation toward potential sources along the parent tree."""

from __future__ import annotations

from typing import Any, Callable

from ..calculus import aggregate, neighbors, share
from ..fields import NeighborhoodField
from ._util import INF


@aggregate
def find_parent(potential: float) -> int:
    """Id of the neighbor with strictly smaller potential that minimizes it.

    Ties break to the smallest id; a node that is a local minimum (a source,
    or sitting on a plateau) is its own parent.
    """
    potentials = neighbors(potential)
    me = potentials.owner
    best = None
    for neighbor_id, neighbor_potential in potentials.items():
        if neighbor_id != me and neighbor_potential < potential:
            key = (neighbor_potential, neighbor_id)
            if best is None or key < best:
                best = key
    return best[1] if best is not None else me


@aggregate
def collect_with(potential: float, local: Any, accumulate: Callable[[Any, Any], Any]) -> Any:
    """Fold values down the potential: local value combined with the children's.

    One share carries (potential, parent, result).  A node's parent follows
    ``find_parent``'s rule, read from the potentials its neighbors share
    here; its result is its local value accumulated with the results of all
    neighbors that currently claim it as parent, in ascending id order.  On a
    static tree the source ends up aggregating its whole region.
    """

    def update(links: NeighborhoodField) -> tuple:
        me = links.owner
        best = None
        result = local
        for neighbor_id, entry in links.items():
            if neighbor_id == me:
                continue
            if entry[0] < potential:
                key = (entry[0], neighbor_id)
                if best is None or key < best:
                    best = key
            if entry[1] == me:
                result = accumulate(result, entry[2])
        return (potential, best[1] if best is not None else me, result)

    return share((INF, None, None), update)[2]


# The specializations run collect_with's body in their own scope: one scope, the share under it.
@aggregate
def count_nodes(potential: float) -> int:
    """Number of devices in this node's sub-region of the potential."""
    return collect_with.__wrapped__(potential, 1, lambda a, b: a + b)


@aggregate
def sum_values(potential: float, value: float) -> float:
    """Sum of ``value`` over this node's sub-region of the potential."""
    return collect_with.__wrapped__(potential, float(value), lambda a, b: a + b)


@aggregate
def collect_or(potential: float, flag: bool) -> bool:
    """True on flagged nodes and on every parent along their descent.

    At fixpoint this marks exactly the parent chains from each flagged node
    down the potential: with the potential anchored at a target and the flag
    on a source, that is the shortest path between the two.
    """
    return collect_with.__wrapped__(potential, bool(flag), lambda a, b: a or b)
