"""A simulated device: identity, position, sensors, and round artifacts."""

from __future__ import annotations

from typing import Any

from ..engine import Export, PathNode

# A node sends its export template inline at least once every this many exports.
TEMPLATE_REFRESH = 20


class Node:
    """One device in the environment.

    ``data`` is the sensor map handed to the program each round.  Only
    `Environment.move_node` writes ``position`` after construction.  The node
    keeps its engine state and its last two exports, so a reader gets the
    latest export published strictly before its own round (a same-instant
    export has not arrived yet).  Only the latest export has a time: the
    runner's positive ``dt`` makes a node publish at most once per instant.
    A node published twice at one instant would show same-instant readers
    the first of those exports, not its export from before the instant.

    Setting ``suppressed`` makes the runner skip this node's rounds without
    unscheduling them: the fault-injection hook for unreliable devices.

    `encode_export` is the sender's template policy: the template goes inline
    in the first export, when the export's paths differ from the previous
    one's, and in every `TEMPLATE_REFRESH`-th export; otherwise its key does.
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
        "_sent_shape",
        "_references",
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
        self._sent_shape: tuple | None = None
        self._references = 0  # exports sent by reference since the last inline one

    @property
    def last_export(self) -> Export | None:
        return self._export

    def publish_export(self, export: Export, time: float) -> None:
        self._prev_export = self._export
        self._export = export
        self._export_time = time

    def export_before(self, time: float) -> Export | None:
        """Latest export published strictly before ``time`` (at or after the last publish)."""
        return self._export if self._export_time < time else self._prev_export

    def encode_export(self, export: Export) -> tuple[bytes, bool]:
        """The wire bytes of ``export`` under the template policy, and whether they are inline."""
        shape = tuple(export.entries)
        if shape == self._sent_shape and self._references < TEMPLATE_REFRESH - 1:
            self._references += 1
            return export.to_bytes(), False
        self._sent_shape = shape
        self._references = 0
        return export.to_bytes(inline=True), True

    def __repr__(self) -> str:
        return f"Node(id={self.id}, position={self.position})"
