"""Epidemic dissemination of values across the whole network."""

from __future__ import annotations

from functools import reduce
from typing import Any, Callable

from ..calculus import aggregate, share
from ..errors import DomainError
from ..fields import NeighborhoodField


@aggregate
def gossip(value: Any, combine: Callable[[Any, Any], Any]) -> Any:
    """Repeatedly fold the local value with every neighbor's gossip state.

    With a monotone combine (max, min, union) this converges to the
    network-wide fold on a static connected graph within diameter exchange
    rounds.  Plain gossip never forgets: a value that leaves the network
    stays in the fold forever (see ``stabilizing_gossip``).
    """
    return share(value, lambda states: states.fold(value, combine))


def gossip_max(value: Any) -> Any:
    return gossip(value, max)


def gossip_min(value: Any) -> Any:
    return gossip(value, min)


@aggregate
def stabilizing_gossip(value: Any, combine: Callable[[Any, Any], Any], diameter: int) -> Any:
    """Gossip that forgets: entries expire once they are older than ``diameter``.

    Each node keeps a table origin-id -> (value, hops).  Every round it merges
    the neighbors' tables with hops incremented, keeping the freshest entry
    per origin, drops entries beyond ``diameter`` hops, re-inserts its own
    (value, 0), and returns the combine-fold of the surviving values.  When a
    node's value changes or the node leaves, its stale entries age out within
    diameter exchange rounds.
    """
    if not isinstance(diameter, int) or diameter < 1:
        raise DomainError(f"diameter must be a positive integer, got {diameter!r}")

    def update(tables: NeighborhoodField) -> dict:
        merged: dict = {}
        for _, table in tables.items():
            for origin, entry in table.items():
                hops = entry[1] + 1
                if hops > diameter:
                    continue
                known = merged.get(origin)
                if known is None or hops < known[1]:
                    merged[origin] = (entry[0], hops)
        merged[tables.owner] = (value, 0)
        return merged

    table = share({}, update)
    return reduce(combine, [table[origin][0] for origin in sorted(table)])
