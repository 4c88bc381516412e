"""Spatial deployment generators.

All perturbations draw from the simulator's deployment stream, so a given
seed always produces the same layout.
"""

from __future__ import annotations

import math

from ..errors import DomainError
from .core import Simulator
from .node import Node


def grid_generation(simulator: Simulator, rows: int, cols: int, spacing: float) -> list[Node]:
    """Nodes at the lattice points (row * spacing, col * spacing), row-major."""
    return deformed_lattice(simulator, rows, cols, spacing, 0.0)


def deformed_lattice(
    simulator: Simulator, rows: int, cols: int, spacing: float, noise: float
) -> list[Node]:
    """A grid with per-axis uniform jitter in [-noise, +noise]; zero noise draws nothing."""
    _check_dims(rows, cols, spacing)
    if noise < 0:
        raise DomainError("lattice noise must be non-negative")
    rng = simulator.deploy_rng
    nodes = []
    for row in range(rows):
        for col in range(cols):
            dx = rng.uniform(-noise, noise) if noise else 0.0
            dy = rng.uniform(-noise, noise) if noise else 0.0
            nodes.append(simulator.add_node((row * spacing + dx, col * spacing + dy)))
    return nodes


def random_in_circle(
    simulator: Simulator, n: int, radius: float, center=(0.0, 0.0)
) -> list[Node]:
    """``n`` nodes distributed uniformly by area within a disc."""
    if n <= 0:
        raise DomainError("node count must be positive")
    if radius <= 0:
        raise DomainError("deployment radius must be positive")
    rng = simulator.deploy_rng
    cx, cy = center
    nodes = []
    for _ in range(n):
        r = radius * math.sqrt(rng.random())
        theta = rng.uniform(0.0, 2.0 * math.pi)
        nodes.append(simulator.add_node((cx + r * math.cos(theta), cy + r * math.sin(theta))))
    return nodes


def _check_dims(rows: int, cols: int, spacing: float) -> None:
    if rows <= 0 or cols <= 0:
        raise DomainError("lattice dimensions must be positive")
    if spacing <= 0:
        raise DomainError("lattice spacing must be positive")
