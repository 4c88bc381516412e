"""Neighbor metrics: Euclidean distances and hop counts."""

from __future__ import annotations

from math import hypot

from ..calculus import aggregate, neighbors
from ..fields import NeighborhoodField, from_ordered
from .device import local_position


@aggregate
def neighbors_distances() -> NeighborhoodField:
    """Euclidean distance to each neighbor (self maps to 0)."""
    own = local_position()
    positions = neighbors(own)
    ox, oy = own
    return from_ordered(
        positions.owner, {j: hypot(p[0] - ox, p[1] - oy) for j, p in positions.items()}
    )


@aggregate
def hop_distances() -> NeighborhoodField:
    """Unit distance to every neighbor (self maps to 0)."""
    present = neighbors(True)
    me = present.owner
    return from_ordered(me, {j: 0.0 if j == me else 1.0 for j in present.ids()})
