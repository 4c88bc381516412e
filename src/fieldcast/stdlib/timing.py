"""Temporal primitives: clock access, round counting, decay."""

from __future__ import annotations

from ..calculus import aggregate, remember
from ..errors import DomainError
from .device import round_context


def current_time() -> float:
    return round_context().time


@aggregate
def round_counter() -> int:
    """Number of rounds this node has executed, starting at 1."""
    set_count, count = remember(0)
    set_count(count + 1)
    return count + 1


@aggregate
def exponential_decay(initial: float, rate: float) -> float:
    """Value multiplied by ``rate`` each round, starting from ``initial``."""
    if not 0.0 <= rate <= 1.0:
        raise DomainError(f"decay rate must lie in [0, 1], got {rate}")
    set_value, value = remember(float(initial))
    set_value(value * rate)
    return value


@aggregate
def countdown(duration: float) -> float:
    """Seconds remaining until ``duration`` has elapsed since the first round."""
    if not duration >= 0:
        raise DomainError(f"countdown duration must be non-negative, got {duration}")
    _, started = remember(current_time())
    return max(0.0, duration - (current_time() - started))
