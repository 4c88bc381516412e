"""The simulated world: nodes plus a pluggable neighborhood topology.

A neighborhood function maps (environment, node) to the ids a node can hear;
it never includes the node's own id (self-inclusion in fields is the
engine's business).  Each node's neighbor set is memoized until the next
move, so a query made after a move always sees it and mobile deployments
reshape the topology naturally.  Positions must be finite.  ``radius_neighborhood``
filters per-node Verlet lists (Verlet, 1967) of the nodes within ``radius + skin``
(``skin = radius / 4``) at the list's build, from a grid of that cell side kept
current move by move.  A node travelling ``skin / 2`` since the last clear clears
every list, so each holds every node within ``radius`` (triangle inequality); after
a jump past ``skin / 2``, every node's rebuild scans 1.56x a radius grid's candidates.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Iterable

from ..errors import DomainError
from .node import Node

NeighborhoodFn = Callable[["Environment", Node], Iterable[int]]

_SKIN = 0.25  # skin / radius: a list outlives seven of flocking's 0.005 steps at radius 0.3
# Travel that clears the lists, over reach: skin / 2 less a rounding margin (inf if reach is).
_CLEAR_SHARE = _SKIN / (1 + _SKIN) / 2 * (1 - 1e-9)


class Environment:
    def __init__(self):
        self.nodes: dict[int, Node] = {}
        self.neighborhood_fn: NeighborhoodFn = full_neighborhood()
        self._neighbor_memo: dict[int, tuple[int, ...]] = {}
        # Radius grid: cell side (None until first built), cell -> ids, id -> cell.
        self._grid_side: float | None = None
        self._grid: dict[tuple[int, int], set[int]] = {}
        self._grid_cell: dict[int, tuple[int, int]] = {}
        # Verlet lists and each node's travel since they were cleared; a new grid clears them.
        self._verlet: dict[int, list[Node]] = {}
        self._travel: dict[int, float] = {}
        self._next_id = 0

    # -- population ----------------------------------------------------------

    def add_node(self, position, data: dict | None = None) -> Node:
        node = Node(self._next_id, _finite(position), data)
        self._next_id += 1
        self.nodes[node.id] = node
        self._invalidate()
        return node

    def node_list(self) -> list[Node]:
        return [self.nodes[i] for i in sorted(self.nodes)]

    def move_node(self, node: Node, position) -> None:
        position = _finite(position)
        step = math.hypot(position[0] - node.position[0], position[1] - node.position[1])
        node.position = position
        if self._neighbor_memo:
            self._neighbor_memo = {}
        side = self._grid_side
        if side is not None:
            travel = self._travel[node.id] = self._travel.get(node.id, 0.0) + step
            if travel > side * _CLEAR_SHARE:
                self._verlet, self._travel = {}, {}
            cell = _cell(position, side)
            old = self._grid_cell[node.id]
            if cell != old:
                bucket = self._grid[old]
                bucket.discard(node.id)
                if not bucket:
                    del self._grid[old]
                self._grid.setdefault(cell, set()).add(node.id)
                self._grid_cell[node.id] = cell

    def set_neighborhood_function(self, fn: NeighborhoodFn) -> None:
        self.neighborhood_fn = fn
        self._invalidate()

    def _invalidate(self) -> None:
        if self._neighbor_memo:
            self._neighbor_memo = {}
        self._grid_side = None

    # -- topology ----------------------------------------------------------

    def neighbor_ids(self, node: Node) -> tuple[int, ...]:
        """Sorted ids of the devices ``node`` currently hears."""
        cached = self._neighbor_memo.get(node.id)
        if cached is not None:
            return cached
        ids = tuple(sorted(self.neighborhood_fn(self, node)))
        self._neighbor_memo[node.id] = ids
        return ids

    def _radius_grid(self, reach: float) -> dict:
        """Node ids bucketed into cells of side ``reach``, with no Verlet lists.

        Built when there is no grid or its side differs from ``reach``;
        ``move_node`` keeps it current afterwards.
        """
        if self._grid_side == reach:
            return self._grid
        grid: dict[tuple[int, int], set[int]] = {}
        cells: dict[int, tuple[int, int]] = {}
        for node in self.nodes.values():
            cell = _cell(node.position, reach)
            grid.setdefault(cell, set()).add(node.id)
            cells[node.id] = cell
        self._grid_side, self._grid, self._grid_cell = reach, grid, cells
        self._verlet, self._travel = {}, {}
        return grid


def _finite(position) -> tuple:
    """``position`` as a tuple; ``DomainError`` unless both coordinates are finite."""
    x, y = position = tuple(position)
    if not (-math.inf < x < math.inf and -math.inf < y < math.inf):
        raise DomainError(f"node position {position} is not finite")
    return position


def _cell(position, side: float) -> tuple[int, int]:
    """The radius-grid cell holding ``position``."""
    return int(position[0] // side), int(position[1] // side)


def radius_neighborhood(radius: float) -> NeighborhoodFn:
    """Connect nodes within Euclidean distance ``radius`` (symmetric)."""
    if not radius >= 0:
        raise DomainError(f"neighborhood radius must be non-negative, not {radius}")
    reach = radius * (1 + _SKIN)

    def fn(env: Environment, node: Node) -> list[int]:
        if radius == 0:
            return []
        x, y = node.position
        hypot = math.hypot
        found = []
        candidates = env._verlet.get(node.id)
        if candidates is not None and env._grid_side == reach:
            for other in candidates:
                ox, oy = other.position
                if hypot(ox - x, oy - y) <= radius:
                    found.append(other.id)
            return found
        grid = env._radius_grid(reach)
        candidates = env._verlet[node.id] = []
        cx, cy = _cell(node.position, reach)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for other_id in grid.get((cx + dx, cy + dy), ()):
                    if other_id == node.id:
                        continue
                    other = env.nodes[other_id]
                    ox, oy = other.position
                    distance = hypot(ox - x, oy - y)
                    if distance <= reach:
                        candidates.append(other)
                        if distance <= radius:
                            found.append(other_id)
        return found

    return fn


def k_nearest_neighbors(k: int) -> NeighborhoodFn:
    """Connect each node to its ``k`` closest peers (ties to the smaller id).

    Possibly asymmetric: being someone's nearest neighbor does not make them
    yours.
    """
    if not isinstance(k, int) or k < 0:
        raise DomainError(f"k must be a non-negative integer, not {k!r}")

    def fn(env: Environment, node: Node) -> list[int]:
        x, y = node.position
        ranked = heapq.nsmallest(
            k,
            (
                (math.hypot(other.position[0] - x, other.position[1] - y), other.id)
                for other in env.nodes.values()
                if other.id != node.id
            ),
        )
        return [other_id for _, other_id in ranked]

    return fn


def full_neighborhood() -> NeighborhoodFn:
    """Every node hears every other node."""

    def fn(env: Environment, node: Node) -> list[int]:
        return [other_id for other_id in env.nodes if other_id != node.id]

    return fn
