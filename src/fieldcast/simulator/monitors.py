"""Observation hooks: CSV traces, SVG frame snapshots, in-memory recorders.

Monitors observe the simulation read-only.  They receive ``on_start`` when a
run begins, ``on_event`` after every processed event (the popped
``(time, sequence, fn, args)`` tuple), ``on_round`` after each completed node
round, and ``on_finish`` when the run ends.  Each ``Simulator.run`` call is
one run; the file-writing monitors continue where the previous one stopped.
A monitor that raises aborts the run; that is deliberate.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Any

from .core import Simulator
from .node import Node

# Rounds of identical per-node values that count as a stabilized field.
STABILITY_WINDOW = 10


class Monitor:
    def on_start(self, simulator: Simulator) -> None:
        pass

    def on_event(self, simulator: Simulator, event) -> None:
        pass

    def on_round(self, simulator: Simulator, node: Node) -> None:
        pass

    def on_finish(self, simulator: Simulator) -> None:
        pass


def result_value(result: Any, key: str | None) -> Any:
    """Pull the traced value out of a program result (dict results use ``key``)."""
    if key is not None and isinstance(result, dict):
        return result.get(key)
    return result


def _format_value(value: Any) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


class CsvTraceMonitor(Monitor):
    """One CSV row per node round: ``time,node_id,x,y,value``.

    Times carry six decimal places; positions and values are written with
    full repr precision so equal-seed runs produce byte-identical files.
    """

    def __init__(self, path, value_key: str | None = None):
        self.path = Path(path)
        self.value_key = value_key
        self._file = None
        self._mode = "w"

    def on_start(self, simulator: Simulator) -> None:
        if self._file is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = self.path.open(self._mode, encoding="utf-8", newline="\n")
            if self._mode == "w":
                self._file.write("time,node_id,x,y,value\n")
            self._mode = "a"  # a later run appends to the trace this one began

    def on_round(self, simulator: Simulator, node: Node) -> None:
        value = result_value(node.result, self.value_key)
        x, y = node.position
        self._file.write(
            f"{simulator.time:.6f},{node.id},{x!r},{y!r},{_format_value(value)}\n"
        )

    def on_finish(self, simulator: Simulator) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


class TraceRecorder(Monitor):
    """In-memory trace for programmatic checks.

    Each record is ``(time, round_index, node_id, position, result)`` where
    ``round_index`` counts that node's completed rounds from 1.
    """

    def __init__(self):
        self.records: list[tuple[float, int, int, tuple, Any]] = []
        self.rounds: dict[int, int] = {}

    def on_round(self, simulator: Simulator, node: Node) -> None:
        index = self.rounds.get(node.id, 0) + 1
        self.rounds[node.id] = index
        self.records.append((simulator.time, index, node.id, node.position, node.result))


class StabilityTracker(Monitor):
    """Detects stabilization: every node's traced value unchanged for a window.

    A field counts as stabilized once each node has completed at least
    ``window`` rounds with an identical value.
    """

    def __init__(self, value_key: str | None = None, window: int = STABILITY_WINDOW):
        self.value_key = value_key
        self.window = window
        self._streak: dict[int, int] = {}
        self._last: dict[int, Any] = {}

    def on_round(self, simulator: Simulator, node: Node) -> None:
        value = result_value(node.result, self.value_key)
        if node.id in self._last and self._last[node.id] == value:
            self._streak[node.id] += 1
        else:
            self._streak[node.id] = 1
            self._last[node.id] = value

    def stabilized(self, environment) -> bool:
        return all(self._streak.get(node_id, 0) >= self.window for node_id in environment.nodes)


class FrameMonitor(Monitor):
    """SVG snapshots of the deployment at fixed simulation-time intervals.

    Each frame draws the current communication edges and one circle per node
    colored from the traced value; files are named ``frame_<index>.svg``.
    """

    def __init__(self, directory, interval: float, value_key: str | None = None):
        self.directory = Path(directory)
        self.interval = interval
        self.value_key = value_key
        self._next_time: float | None = None
        self._index = 0

    def on_start(self, simulator: Simulator) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        if self._next_time is None:  # a later run keeps the schedule
            self._next_time = simulator.time

    def on_event(self, simulator: Simulator, event) -> None:
        while simulator.time >= self._next_time:
            self._emit(simulator)
            self._next_time += self.interval

    def on_finish(self, simulator: Simulator) -> None:
        # The horizon may land between events (float drift in periodic
        # schedules); emit any snapshot whose interval boundary was reached.
        self.on_event(simulator, None)

    def _emit(self, simulator: Simulator) -> None:
        env = simulator.environment
        path = self.directory / f"frame_{self._index}.svg"
        path.write_text(render_svg_frame(env, self.value_key), encoding="utf-8")
        self._index += 1


def render_svg_frame(environment, value_key: str | None = None, size: int = 640) -> str:
    """Render the environment as a standalone SVG document."""
    nodes = environment.node_list()
    if not nodes:
        return f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}"/>'
    xs = [n.position[0] for n in nodes]
    ys = [n.position[1] for n in nodes]
    span = max(max(xs) - min(xs), max(ys) - min(ys)) or 1.0
    margin = 0.05 * span
    scale = size / (span + 2 * margin)

    def project(p):
        return (
            (p[0] - min(xs) + margin) * scale,
            size - (p[1] - min(ys) + margin) * scale,
        )

    values = [result_value(n.result, value_key) for n in nodes]
    # non-finite values are painted black, so they take no part in the scale
    numeric = [
        v for v in values
        if isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
    ]
    low = min(numeric) if numeric else 0.0
    high = max(numeric) if numeric else 1.0

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">'
    ]
    seen = set()
    for node in nodes:
        x1, y1 = project(node.position)
        for neighbor_id in environment.neighbor_ids(node):
            edge = (min(node.id, neighbor_id), max(node.id, neighbor_id))
            if edge in seen:
                continue
            seen.add(edge)
            x2, y2 = project(environment.nodes[neighbor_id].position)
            parts.append(
                f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
                'stroke="#cccccc" stroke-width="1"/>'
            )
    radius = max(2.0, scale * span / (12 * math.sqrt(len(nodes))))
    for node, value in zip(nodes, values):
        x, y = project(node.position)
        parts.append(
            f'<circle cx="{x:.1f}" cy="{y:.1f}" r="{radius:.1f}" '
            f'fill="{_color_for(value, low, high)}"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def _color_for(value: Any, low: float, high: float) -> str:
    if isinstance(value, bool):
        return "#2a9d2a" if value else "#bbbbbb"
    if isinstance(value, (int, float)):
        if not math.isfinite(value):
            return "#000000"
        frac = 0.0 if high == low else (value - low) / (high - low)
        hue = 240.0 * (1.0 - frac)  # blue (low) to red (high)
        return f"hsl({hue:.0f}, 70%, 50%)"
    return "#888888"
