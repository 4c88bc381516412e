"""Access to the local device: identity, position, sensors, actuation."""

from __future__ import annotations

from typing import Any

from ..calculus import engine_var
from ..engine import NO_ROUND, NodeContext
from ..errors import MissingSensorError, UsageError


def round_context() -> NodeContext:
    """The context of the round in progress; `UsageError` outside a round."""
    context = engine_var.get().context
    if context is None:
        raise UsageError(NO_ROUND)
    return context


def local_id() -> int:
    return round_context().device_id


def local_position() -> tuple[float, float]:
    return round_context().position


def sense(name: str) -> Any:
    """Read a named sensor from the node context."""
    sensors = round_context().sensors
    if name not in sensors:
        raise MissingSensorError(name)
    return sensors[name]


def context_rng():
    """The node's deterministic random stream."""
    rng = round_context().rng
    if rng is None:
        raise UsageError("node context provides no random stream")
    return rng


def store_actuation(name: str, value: Any) -> None:
    """Stage a named actuation; the runner applies it after the program."""
    engine_var.get().stage_actuation(name, value)
