"""Deterministic discrete-event simulator for aggregate networks."""

from .core import Simulator, aggregate_program_runner, derive_seed, motion_actuator
from .deployments import deformed_lattice, grid_generation, random_in_circle
from .environment import (
    Environment,
    full_neighborhood,
    k_nearest_neighbors,
    radius_neighborhood,
)
from .monitors import (
    CsvTraceMonitor,
    FrameMonitor,
    Monitor,
    StabilityTracker,
    TraceRecorder,
    render_svg_frame,
    result_value,
)
from .node import Node

__all__ = [
    "CsvTraceMonitor",
    "Environment",
    "FrameMonitor",
    "Monitor",
    "Node",
    "Simulator",
    "StabilityTracker",
    "TraceRecorder",
    "aggregate_program_runner",
    "deformed_lattice",
    "derive_seed",
    "full_neighborhood",
    "grid_generation",
    "k_nearest_neighbors",
    "motion_actuator",
    "radius_neighborhood",
    "random_in_circle",
    "render_svg_frame",
    "result_value",
]
