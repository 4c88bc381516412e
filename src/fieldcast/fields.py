"""Computational-field data structures.

A `NeighborhoodField` is the value a node observes at one aligned program
point: a mapping from device id to the value each aligned neighbor shared
there, with the local device included under its own id. Fields are immutable
after construction and hold their entries in ascending device-id order from
construction on, so every accessor and aggregation reads them in that order
without sorting or copying, and non-commutative folds stay reproducible.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from .errors import EmptyFieldError


class NeighborhoodField:
    """Per-neighbor values for one program point, owned by a device."""

    # _metric_checked: every entry passed the building blocks' metric check
    # (see stdlib's check_metric); a field never changes, so once is enough.
    __slots__ = ("owner", "_values", "_metric_checked")

    def __init__(self, owner: int, values: dict[int, Any]):
        """Copy ``values``, given in any order, into ascending-id order."""
        self.owner = owner
        self._values = dict(sorted(values.items()))
        self._metric_checked = False

    # -- access -----------------------------------------------------------

    def ids(self) -> list[int]:
        return list(self._values)

    def items(self) -> list[tuple[int, Any]]:
        return list(self._values.items())

    def values(self) -> list[Any]:
        return list(self._values.values())

    def get(self, device_id: int, default: Any = None) -> Any:
        return self._values.get(device_id, default)

    def local(self) -> Any:
        """The owner's own entry."""
        return self._values[self.owner]

    def __getitem__(self, device_id: int) -> Any:
        return self._values[device_id]

    def __contains__(self, device_id: int) -> bool:
        return device_id in self._values

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[int]:
        return iter(self._values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NeighborhoodField):
            return NotImplemented
        return self.owner == other.owner and self._values == other._values

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {v!r}" for k, v in self.items())
        return f"NeighborhoodField(owner={self.owner}, {{{inner}}})"

    # -- transforms ---------------------------------------------------------

    def exclude_self(self) -> "NeighborhoodField":
        """A copy without the owner's entry; the owner id is kept for provenance.

        Use it for a field to pass on or combine.  A loop that only needs to
        skip the owner should iterate the field itself and test ``field.owner``.
        """
        values = self._values.copy()
        values.pop(self.owner, None)
        return from_ordered(self.owner, values)

    def map_values(self, fn: Callable[[Any], Any]) -> "NeighborhoodField":
        return from_ordered(self.owner, {k: fn(v) for k, v in self._values.items()})

    def zip_with(self, other: "NeighborhoodField", fn: Callable[[Any, Any], Any]) -> "NeighborhoodField":
        """Pointwise combination on the intersection of both key sets.

        Devices present on only one side drop out silently: a neighbor that is
        misaligned (or late) at either program point contributes nothing.
        """
        others = other._values
        values = {k: fn(v, others[k]) for k, v in self._values.items() if k in others}
        return from_ordered(self.owner, values)

    def merge(self, other: "NeighborhoodField") -> "NeighborhoodField":
        """Key union; on collisions the right-hand field wins."""
        return NeighborhoodField(self.owner, {**self._values, **other._values})

    # -- aggregation --------------------------------------------------------

    def fold(self, initial: Any, combine: Callable[[Any, Any], Any]) -> Any:
        """Left-fold over values in ascending device-id order."""
        acc = initial
        for value in self._values.values():
            acc = combine(acc, value)
        return acc

    def min_value(self) -> Any:
        if not self._values:
            raise EmptyFieldError(f"min_value on empty field (owner {self.owner})")
        return min(self._values.values())

    def max_value(self) -> Any:
        if not self._values:
            raise EmptyFieldError(f"max_value on empty field (owner {self.owner})")
        return max(self._values.values())

    # -- arithmetic conveniences ---------------------------------------------

    def _combine(self, other: Any, fn: Callable[[Any, Any], Any]) -> "NeighborhoodField":
        if isinstance(other, NeighborhoodField):
            return self.zip_with(other, fn)
        return self.map_values(lambda v: fn(v, other))

    def __add__(self, other: Any) -> "NeighborhoodField":
        return self._combine(other, lambda a, b: a + b)

    def __sub__(self, other: Any) -> "NeighborhoodField":
        return self._combine(other, lambda a, b: a - b)

    def __mul__(self, other: Any) -> "NeighborhoodField":
        return self._combine(other, lambda a, b: a * b)


def from_ordered(owner: int, values: dict[int, Any]) -> NeighborhoodField:
    """A field owning ``values``, a fresh dict already in ascending-id order.

    The library's own builders use this to skip the public constructor's sort
    and copy; it does not run ``__init__``.
    """
    field = object.__new__(NeighborhoodField)
    field.owner = owner
    field._values = values
    field._metric_checked = False
    return field


def foldhood(field: NeighborhoodField, initial: Any, combine: Callable[[Any, Any], Any]) -> Any:
    """Aggregate neighbor values with a binary operator (ascending-id fold)."""
    return field.fold(initial, combine)
