"""Distance-bounded leader election with random symmetry breaking.

Every device draws a key uniformly from [0, 1) once and remembers it;
candidates order lexicographically by (key, id).  Devices exchange tables of
surviving candidacies: each round a node rebuilds its table from the
neighbors' tables with distances extended by the metric edge, drops
candidates farther than the election radius, and injects its own candidacy
only while it believes it is a leader (nothing in its table beats it).

Because tables are rebuilt purely from neighbor tables, a retracted
candidacy is never refreshed at distance 0 again: every copy's distance
grows each round until it exceeds the radius and expires, which is what
makes the election self-stabilizing.  At fixpoint every node's winner lies
within the radius and no two leaders are within the radius of each other
along graph paths.
"""

from __future__ import annotations

from typing import NamedTuple

from ..calculus import aggregate, remember, share
from ..errors import DomainError
from ..fields import NeighborhoodField
from .device import context_rng
from ._util import INF, check_metric


class ElectionResult(NamedTuple):
    leader: bool
    winner: int
    key: float
    distance: float


@aggregate
def leader_election(radius: float, metric: NeighborhoodField) -> ElectionResult:
    """Run one election round; returns the full winning candidate."""
    if not 0 < radius < INF:
        raise DomainError(f"election radius must be positive and finite, got {radius}")
    check_metric(metric)

    set_key, key = remember(None)
    if key is None:
        key = context_rng().random()
        set_key(key)

    edges = metric._values  # the field's own dict: plain lookups, no dunder calls
    outcome = {}

    def compete(tables: NeighborhoodField) -> dict:
        me = tables.owner
        merged: dict = {}
        for neighbor_id, table in tables.items():
            if neighbor_id == me or neighbor_id not in edges:
                continue
            edge = edges[neighbor_id]
            for uid, entry in table.items():
                distance = entry[1] + edge
                if distance > radius:
                    continue
                known = merged.get(uid)
                if known is None or distance < known[1]:
                    merged[uid] = (entry[0], distance)
        # An echo of this node's own candidacy is not a challenger.
        challenger = None  # the first smallest (key, id), as min() takes it
        for uid, entry in merged.items():
            if uid != me:
                candidate = (entry[0], uid)
                if challenger is None or candidate < challenger:
                    challenger = candidate
        am_leader = challenger is None or (key, me) < challenger
        if am_leader:
            merged[me] = (key, 0.0)
            outcome["winner"] = (True, me, key, 0.0)
        else:
            merged.pop(me, None)  # retracting: kill the echo at its source
            winner_key, winner_id = challenger
            outcome["winner"] = (False, winner_id, winner_key, merged[winner_id][1])
        return merged

    share({}, compete)
    return ElectionResult(*outcome["winner"])


def elect_leaders(radius: float, metric: NeighborhoodField) -> bool:
    """True on devices whose own candidacy wins the local competition."""
    return leader_election(radius, metric).leader
