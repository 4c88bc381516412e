"""Programmer-facing core operators: state, neighbor exchange, branching.

Aggregate programs are ordinary Python functions built from four operators:

* ``remember`` evolves state across rounds and returns a setter plus the
  current value, keeping reads and updates explicit;
* ``neighbors`` shares a value with aligned neighbors and returns their
  values as a `NeighborhoodField`;
* ``share`` updates a value from the neighbors' latest shared values and
  shares the result in the same step; the building blocks rest on it;
* ``branch`` evaluates one of two thunks inside a branch scope, so only
  devices that took the same side exchange values within it.

Wrapping a function with ``@aggregate`` gives every call its own function
token, which is what lets two devices recognize they are at the same program
point.  Each operator pops exactly the token it pushed, in a ``finally``
clause, so a scope left open inside an operator body aborts the round as
unbalanced.  The active engine lives in the context variable ``engine_var``,
so independent rounds can run on separate threads or tasks; outside every round
it holds a stand-in whose ``enter``, ``stage_actuation`` and ``context`` raise
`UsageError`, though its ``get(None)`` still returns ``None``.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from functools import wraps
from typing import Any, Callable, NoReturn

from .engine import (
    KIND_BRANCH_LEFT,
    KIND_BRANCH_RIGHT,
    KIND_FUNCTION,
    KIND_OPERATOR,
    NO_ROUND,
    Engine,
    PathNode,
)
from .errors import UsageError
from .fields import NeighborhoodField

NO_ENGINE = "no engine active in this context"


class _NoEngine:
    """The engine outside every round: each use raises `UsageError(NO_ENGINE)`."""

    def enter(self, *args) -> NoReturn:
        raise UsageError(NO_ENGINE)

    stage_actuation = enter
    context = property(enter)


_ABSENT = _NoEngine()
engine_var: ContextVar[Engine] = ContextVar("fieldcast_engine", default=_ABSENT)
# The operators read `engine_var` themselves rather than call `current_engine`:
# on the per-round path a call is most of what such a read costs.


def current_engine() -> Engine:
    engine = engine_var.get()
    if engine is _ABSENT:
        raise UsageError(NO_ENGINE)
    return engine


@contextmanager
def activate(engine: Engine):
    """Make ``engine`` the current one for the duration of a block."""
    token = engine_var.set(engine)
    try:
        yield engine
    finally:
        engine_var.reset(token)


class StateHandle:
    """Setter for one state slot; calling it stages the next-round value.

    ``current`` is the value `remember` returned with the handle, the slot's
    round-start value: staged writes only become visible next round.  Calling
    the handle and reading ``current`` raise `UsageError` outside the round it
    was made in (its engine's ``context``), in a later round of that engine too.
    """

    __slots__ = ("_engine", "_node", "_value", "_round")

    def __init__(self, engine: Engine, node: PathNode, value: Any):
        self._engine = engine
        self._node = node
        self._value = value
        self._round = engine.context

    @property
    def path(self):
        """The slot's alignment path as a tuple of scope tokens."""
        return self._node.tokens

    def __call__(self, value: Any) -> None:
        if self._engine.context is not self._round:
            self._refuse()
        self._engine.set_slot(self._node, value)

    @property
    def current(self) -> Any:
        if self._engine.context is not self._round:
            self._refuse()
        return self._value

    def _refuse(self) -> NoReturn:
        later = self._engine.context is not None
        raise UsageError("state handle from an earlier round" if later else NO_ROUND)

    def __repr__(self) -> str:
        return f"StateHandle(path={self.path!r})"


def remember(initial: Any) -> tuple[StateHandle, Any]:
    """State that survives rounds: returns (setter, current value).

    The first round yields ``initial``; afterwards the value set in the
    previous round (or the old value, carried forward, if the setter was
    never called).  At most one write takes effect per round, the last one.
    """
    engine = engine_var.get()
    engine.enter(KIND_OPERATOR, "remember")
    try:
        value, node = engine.write_slot(initial)
    finally:
        engine.exit()
    return StateHandle(engine, node, value), value


def neighbors(value: Any) -> NeighborhoodField:
    """Share ``value`` with aligned neighbors; returns their shared values.

    The local device is always part of the returned field, mapped to the
    value sent this round.  Passing a `StateHandle` shares the slot's
    round-start value.
    """
    engine = engine_var.get()
    engine.enter(KIND_OPERATOR, "neighbors")
    try:
        engine.send(value.current if isinstance(value, StateHandle) else value)
        return engine.neighbor_values()
    finally:
        engine.exit()


def share(initial: Any, update: Callable[[NeighborhoodField], Any]) -> Any:
    """Evolve a value against the neighborhood and share the result at once.

    ``update`` receives the field of the values every aligned device shared
    here in its latest round -- including this device's own previous value
    (``initial`` on the first round) -- and returns the new value, which is
    immediately shared.  Because the updated value is what travels,
    information advances one hop per round; the building-block library is
    built on this.
    """
    engine = engine_var.get()
    engine.enter(KIND_OPERATOR, "share")
    try:
        value = update(engine.receive(initial))
        engine.send(value)
    finally:
        engine.exit()
    return value


def branch(condition: bool, then: Callable[[], Any], otherwise: Callable[[], Any]) -> Any:
    """Evaluate exactly one thunk inside a branch scope.

    Devices that evaluated opposite conditions are misaligned inside the
    branch (their fields there contain only same-side devices) and realign
    as soon as the branch returns.
    """
    if condition:
        return _scoped(KIND_BRANCH_LEFT, None, then)
    return _scoped(KIND_BRANCH_RIGHT, None, otherwise)


def aggregate_call(name: str, body: Callable[[], Any]) -> Any:
    """Run ``body`` inside a function scope named ``name``."""
    return _scoped(KIND_FUNCTION, name, body)


def _scoped(kind: str, name: str | None, body: Callable[[], Any]) -> Any:
    """Run ``body`` inside one scope token, closed however the body ends."""
    engine = engine_var.get()
    engine.enter(kind, name)
    try:
        return body()
    finally:
        engine.exit()


def aggregate(fn: Callable) -> Callable:
    """Decorator giving a function its own alignment scope per call."""

    name = fn.__name__

    @wraps(fn)
    def wrapper(*args, **kwargs):
        engine = engine_var.get()
        engine.enter(KIND_FUNCTION, name)
        try:
            return fn(*args, **kwargs)
        finally:
            engine.exit()

    return wrapper
