"""The simulated world: nodes plus a pluggable neighborhood topology.

A neighborhood function maps (environment, node) to the ids a node can hear;
it never includes the node's own id (self-inclusion in fields is the
engine's business).  Each node's neighbor set is memoized until the next
move, so a query made after a move always sees it and mobile deployments
reshape the topology naturally.  The radius grid behind
``radius_neighborhood`` is built once per radius and updated in place on each
move: the moved id changes cell, and no other node is re-bucketed.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Iterable

from ..errors import DomainError
from .node import Node

NeighborhoodFn = Callable[["Environment", Node], Iterable[int]]


class Environment:
    def __init__(self):
        self.nodes: dict[int, Node] = {}
        self.neighborhood_fn: NeighborhoodFn = full_neighborhood()
        self._neighbor_memo: dict[int, tuple[int, ...]] = {}
        # Radius grid: cell side (None until first built), cell -> ids, id -> cell.
        self._grid_side: float | None = None
        self._grid: dict[tuple[int, int], set[int]] = {}
        self._grid_cell: dict[int, tuple[int, int]] = {}
        self._next_id = 0

    # -- population ----------------------------------------------------------

    def add_node(self, position, data: dict | None = None) -> Node:
        node = Node(self._next_id, position, data)
        self._next_id += 1
        self.nodes[node.id] = node
        self._invalidate()
        return node

    def node_list(self) -> list[Node]:
        return [self.nodes[i] for i in sorted(self.nodes)]

    def move_node(self, node: Node, position) -> None:
        node.position = position = tuple(position)
        if self._neighbor_memo:
            self._neighbor_memo = {}
        side = self._grid_side
        if side is not None:
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

    def _radius_grid(self, radius: float) -> dict:
        """Node ids bucketed into cells of side ``radius``.

        Built when there is no grid or its side differs from ``radius``;
        ``move_node`` keeps it current afterwards.
        """
        if self._grid_side == radius:
            return self._grid
        grid: dict[tuple[int, int], set[int]] = {}
        cells: dict[int, tuple[int, int]] = {}
        for node in self.nodes.values():
            cell = _cell(node.position, radius)
            grid.setdefault(cell, set()).add(node.id)
            cells[node.id] = cell
        self._grid_side, self._grid, self._grid_cell = radius, grid, cells
        return grid


def _cell(position, side: float) -> tuple[int, int]:
    """The radius-grid cell holding ``position``."""
    return int(position[0] // side), int(position[1] // side)


def radius_neighborhood(radius: float) -> NeighborhoodFn:
    """Connect nodes within Euclidean distance ``radius`` (symmetric)."""
    if radius < 0:
        raise DomainError("neighborhood radius must be non-negative")

    def fn(env: Environment, node: Node) -> list[int]:
        if radius == 0:
            return []
        grid = env._radius_grid(radius)
        x, y = node.position
        cx, cy = _cell(node.position, radius)
        found = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for other_id in grid.get((cx + dx, cy + dy), ()):
                    if other_id == node.id:
                        continue
                    ox, oy = env.nodes[other_id].position
                    if math.hypot(ox - x, oy - y) <= radius:
                        found.append(other_id)
        return found

    return fn


def k_nearest_neighbors(k: int) -> NeighborhoodFn:
    """Connect each node to its ``k`` closest peers (ties to the smaller id).

    Possibly asymmetric: being someone's nearest neighbor does not make them
    yours.
    """
    if k < 0:
        raise DomainError("k must be non-negative")

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
