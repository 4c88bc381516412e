"""The simulated world: nodes plus a pluggable neighborhood topology.

A neighborhood function maps (environment, node) to the ids a node can hear;
it never includes the node's own id (self-inclusion in fields is the
engine's business).  Neighborhoods are recomputed whenever positions change,
so mobile deployments reshape the topology naturally; results are memoized
between changes.
"""

from __future__ import annotations

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
        self._grid_memo: tuple[float, dict] | None = None
        self._next_id = 0

    # -- population ----------------------------------------------------------

    def add_node(self, position, data: dict | None = None, rng=None) -> Node:
        node = Node(self._next_id, position, data, rng)
        self._next_id += 1
        self.nodes[node.id] = node
        self._invalidate()
        return node

    def node_list(self) -> list[Node]:
        return [self.nodes[i] for i in sorted(self.nodes)]

    def move_node(self, node: Node, position) -> None:
        node.position = tuple(position)
        self._invalidate()

    def set_neighborhood_function(self, fn: NeighborhoodFn) -> None:
        self.neighborhood_fn = fn
        self._invalidate()

    def _invalidate(self) -> None:
        if self._neighbor_memo:
            self._neighbor_memo = {}
        self._grid_memo = None

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
        """Bucket node ids into cells of side ``radius`` (rebuilt on change)."""
        if self._grid_memo is not None and self._grid_memo[0] == radius:
            return self._grid_memo[1]
        grid: dict[tuple[int, int], list[int]] = {}
        for node in self.nodes.values():
            cell = (int(node.position[0] // radius), int(node.position[1] // radius))
            grid.setdefault(cell, []).append(node.id)
        self._grid_memo = (radius, grid)
        return grid


def radius_neighborhood(radius: float) -> NeighborhoodFn:
    """Connect nodes within Euclidean distance ``radius`` (symmetric)."""
    if radius < 0:
        raise DomainError("neighborhood radius must be non-negative")

    def fn(env: Environment, node: Node) -> list[int]:
        if radius == 0:
            return []
        grid = env._radius_grid(radius)
        x, y = node.position
        cx, cy = int(x // radius), int(y // radius)
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
        ranked = sorted(
            (math.hypot(other.position[0] - x, other.position[1] - y), other.id)
            for other in env.nodes.values()
            if other.id != node.id
        )
        return [other_id for _, other_id in ranked[:k]]

    return fn


def full_neighborhood() -> NeighborhoodFn:
    """Every node hears every other node."""

    def fn(env: Environment, node: Node) -> list[int]:
        return [other_id for other_id in env.nodes if other_id != node.id]

    return fn
