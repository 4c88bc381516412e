"""A simulated device: identity, position, sensors, and round artifacts."""

from __future__ import annotations

from typing import Any

from ..engine import Export, PathNode


class Node:
    """One device in the environment.

    ``data`` is the sensor map handed to the program each round.  The node
    keeps its engine state plus the last two published exports so readers can
    fetch the most recent export completed strictly before their own round
    (same-instant exports are not yet visible, as a real message would take
    nonzero time to arrive).

    Setting ``suppressed`` makes the runner skip this node's rounds without
    unscheduling them: the fault-injection hook for unreliable devices.
    """

    __slots__ = (
        "id",
        "position",
        "data",
        "state",
        "result",
        "rng",
        "suppressed",
        "_export",
        "_export_time",
        "_prev_export",
        "_prev_export_time",
    )

    def __init__(self, node_id: int, position, data: dict | None = None):
        self.id = node_id
        self.position = tuple(position)
        self.data = data if data is not None else {}
        self.state: dict[PathNode, Any] | None = None
        self.result: Any = None
        self.rng = None
        self.suppressed = False
        self._export: Export | None = None
        self._export_time = 0.0
        self._prev_export: Export | None = None
        self._prev_export_time = 0.0

    @property
    def last_export(self) -> Export | None:
        return self._export

    def publish_export(self, export: Export, time: float) -> None:
        self._prev_export = self._export
        self._prev_export_time = self._export_time
        self._export = export
        self._export_time = time

    def export_before(self, time: float) -> Export | None:
        """Most recent export published strictly before ``time``."""
        if self._export is not None and self._export_time < time:
            return self._export
        if self._prev_export is not None and self._prev_export_time < time:
            return self._prev_export
        return None

    def __repr__(self) -> str:
        return f"Node(id={self.id}, position={self.position})"
