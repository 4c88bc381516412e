"""Shared plumbing for the building-block library."""

from __future__ import annotations

import math

from ..errors import DomainError
from ..fields import NeighborhoodField


def check_metric(metric: NeighborhoodField) -> None:
    for value in metric._values.values():  # the field's own dict: no list built
        if value < 0:
            raise DomainError(f"metric contains a negative entry ({value})")


INF = math.inf
