"""Exception hierarchy shared across the runtime."""

from __future__ import annotations


class AggregateError(Exception):
    """Base class for every error raised by this package."""


class UsageError(AggregateError):
    """The runtime API was called outside its contract (wrong phase, stale handle, ...)."""


class AlignmentError(UsageError):
    """The alignment discipline was violated inside a round.

    Carries the offending alignment path so the diagnostic names the exact
    program point. A node hitting this aborts the current round only; its
    previous state and export stay valid.
    """

    def __init__(self, path, message: str):
        self.path = tuple(path)
        super().__init__(f"{message} (path: {format_path(self.path)})")


class DomainError(AggregateError, ValueError):
    """An argument is outside the operation's documented domain."""


class MissingSensorError(AggregateError, KeyError):
    """A program asked for a sensor the node context does not provide."""

    def __init__(self, name: str):
        self.sensor = name
        super().__init__(f"unknown sensor {name!r}")

    def __str__(self) -> str:  # KeyError would quote the whole message
        return self.args[0]


class EmptyFieldError(AggregateError):
    """An extremum was requested on a neighborhood field with no entries."""


class EncodingError(AggregateError, ValueError):
    """A value has no wire form, or bytes are not a valid wire encoding."""


class UnknownTemplateError(EncodingError):
    """The receiver's template table lacks an export's template, or is full and refused it."""


def format_path(path) -> str:
    """Render an alignment path for diagnostics, e.g. ``fn:main#0/op:neighbors#1``."""
    if not path:
        return "<root>"
    parts = []
    for token in path:
        kind, name, occurrence = token
        label = f"{kind}:{name}" if name is not None else kind
        parts.append(f"{label}#{occurrence}")
    return "/".join(parts)
