"""Shared plumbing for the building-block library."""

from __future__ import annotations

import math

from ..errors import DomainError
from ..fields import NeighborhoodField


def check_metric(metric: NeighborhoodField) -> None:
    """Raise `DomainError` unless every entry of ``metric`` is ``>= 0``.

    NaN fails too, since it is not ``>= 0``.  A field that passes is marked,
    so the blocks handed one metric in a round (``leader_election``,
    ``distance_to`` and ``broadcast`` in scr) scan it once.
    """
    if metric._metric_checked:
        return
    for device_id, value in metric._values.items():  # the field's own dict: no list built
        if not value >= 0:
            raise DomainError(f"metric entry for device {device_id} is {value!r}; it must be >= 0")
    metric._metric_checked = True


INF = math.inf
