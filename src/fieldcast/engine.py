"""Per-round execution core for aggregate programs.

One `Engine` instance services exactly one node round at a time.  During a
round it tracks the alignment path (the sequence of scope tokens naming the
current program point), hands out state slots keyed by that path, reads the
neighbors' inbound exports, and assembles the outbound export.  Two devices
exchange a value at a program point only when their token sequences match
exactly; everything else is misalignment and simply drops out of the
neighborhood field.  Every export carries full values, so a receiver keeps no
memory of earlier exports.

Lifecycle: ``setup(context, inbound, state)`` -> run the program ->
``cooldown()`` returning ``(new_state, export)``.  Alignment violations
(reusing a path, unbalanced enter/exit) raise `AlignmentError` and abort the
round; callers keep the node's previous state and export in that case.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Any, Mapping, NamedTuple

from .errors import AlignmentError, EncodingError, UsageError
from .fields import NeighborhoodField
from .values import decode_value, encode_value, read_uvarint, write_uvarint

KIND_FUNCTION = "fn"
KIND_OPERATOR = "op"
KIND_BRANCH_LEFT = "left"
KIND_BRANCH_RIGHT = "right"

_KINDS = (KIND_FUNCTION, KIND_OPERATOR, KIND_BRANCH_LEFT, KIND_BRANCH_RIGHT)
_KIND_CODES = {kind: code for code, kind in enumerate(_KINDS)}

_MISSING = object()


class ScopeToken(NamedTuple):
    """One step of an alignment path.

    ``occurrence`` counts repeated tokens of the same (kind, name) within the
    enclosing scope, restarting at 0 each round, so straight-line repeated
    calls land on distinct paths.  Branch tokens carry no name.
    """

    kind: str
    name: str | None
    occurrence: int


# An alignment path is a tuple of ScopeTokens; empty at round boundaries.
AlignmentPath = tuple


class NodeContext:
    """Read-only view of the world for one round of one device.

    ``rng`` is the node's deterministic random stream (derived from the
    simulation seed); programs that draw randomness must run under a context
    that provides one.
    """

    __slots__ = ("device_id", "position", "time", "sensors", "rng")

    def __init__(self, device_id, position, time, sensors=None, rng=None):
        self.device_id = device_id
        self.position = tuple(position)
        self.time = time
        self.sensors = sensors if sensors is not None else {}
        self.rng = rng

    def __repr__(self) -> str:
        return f"NodeContext(device_id={self.device_id}, position={self.position}, time={self.time})"


@dataclass
class EngineState:
    """Everything a node persists between rounds.

    ``slots`` holds the state values visited in the most recent round (paths
    not visited are garbage-collected at cooldown).
    """

    slots: dict = dataclass_field(default_factory=dict)


class Export:
    """A node's per-round outbound message: alignment path -> value.

    Every export carries full values.  On the wire, each entry's path is coded
    against the previous entry's: how many leading tokens both share, how many
    new tokens follow, and each new token as the varint ``occurrence << 2 |
    kind code`` followed by its name.  The entry's value comes next.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: dict | None = None):
        self.entries = entries if entries is not None else {}

    def paths(self):
        return self.entries.keys()

    def get(self, path, default=None):
        return self.entries.get(path, default)

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Export):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        return f"Export({len(self.entries)} entries)"

    def to_bytes(self) -> bytes:
        out = bytearray()
        write_uvarint(out, len(self.entries))
        previous: tuple = ()
        for path, value in self.entries.items():
            shared = 0
            limit = min(len(path), len(previous))
            while shared < limit and path[shared] == previous[shared]:
                shared += 1
            write_uvarint(out, shared)
            write_uvarint(out, len(path) - shared)
            for token in path[shared:]:
                write_uvarint(out, token.occurrence << 2 | _KIND_CODES[token.kind])
                encode_value(token.name, out)
            encode_value(value, out)
            previous = path
        return bytes(out)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Export":
        """Decode ``to_bytes`` output; malformed input raises `EncodingError`."""
        entries: dict = {}
        previous: tuple = ()
        count, pos = read_uvarint(raw, 0)
        for _ in range(count):
            shared, pos = read_uvarint(raw, pos)
            if shared > len(previous):
                raise EncodingError(f"path shares {shared} tokens with a path of {len(previous)}")
            fresh, pos = read_uvarint(raw, pos)
            tokens = list(previous[:shared])
            for _ in range(fresh):
                packed, pos = read_uvarint(raw, pos)
                name, pos = decode_value(raw, pos)
                if name is not None and type(name) is not str:
                    raise EncodingError(f"token name of type {type(name).__name__}")
                tokens.append(ScopeToken(_KINDS[packed & 3], name, packed >> 2))
            previous = tuple(tokens)
            entries[previous], pos = decode_value(raw, pos)
        if pos != len(raw):
            raise EncodingError(f"{len(raw) - pos} trailing bytes after the last entry")
        return cls(entries)


class Engine:
    """Executes one aggregate round; never enter a single instance concurrently."""

    def __init__(self, max_depth: int = 128):
        self.max_depth = max_depth
        self._active = False
        self.context: NodeContext | None = None

    # -- lifecycle ----------------------------------------------------------

    def setup(
        self,
        context: NodeContext,
        inbound: Mapping[int, Export] | None = None,
        state: EngineState | None = None,
    ) -> None:
        """Begin a round: take the inbound exports and reset the path."""
        if self._active:
            raise UsageError("setup called while a round is in progress")
        self.context = context
        self._prev_slots = state.slots if state is not None else {}
        self._inbound = {sender: export.entries for sender, export in (inbound or {}).items()}
        self._path: AlignmentPath = ()
        self._counters: list[dict] = [{}]
        self._slots: dict = {}
        self._slot_current: dict = {}
        self._export: dict = {}
        self.staged_actuations: dict[str, Any] = {}
        self._active = True

    def cooldown(self) -> tuple[EngineState, Export]:
        """End the round: return the persisted state and outbound export."""
        self._require_active()
        if self._path:
            raise AlignmentError(self._path, "round ended with unbalanced enter/exit")
        state = EngineState(self._slots)
        export = Export(self._export)
        self._reset()
        return state, export

    def abort(self) -> None:
        """Discard the round in progress (after an alignment error)."""
        self._reset()

    def _reset(self) -> None:
        self._active = False
        self.context = None
        self._inbound = {}
        self._prev_slots = {}

    def _require_active(self) -> None:
        if not self._active:
            raise UsageError("no round in progress (call setup first)")

    # -- alignment ----------------------------------------------------------

    @property
    def path(self) -> AlignmentPath:
        return self._path

    @property
    def depth(self) -> int:
        return len(self._path)

    def enter(self, kind: str, name: str | None = None) -> None:
        """Push a scope token; occurrence counters restart per parent scope."""
        self._require_active()
        scope = self._counters[-1]
        key = (kind, name)
        occurrence = scope.get(key, 0)
        scope[key] = occurrence + 1
        path = self._path + (ScopeToken(kind, name, occurrence),)
        if len(path) > self.max_depth:
            raise AlignmentError(path, f"alignment depth exceeds limit of {self.max_depth}")
        self._path = path
        self._counters.append({})

    def exit(self) -> None:
        self._require_active()
        if not self._path:
            raise AlignmentError((), "exit called with empty alignment path")
        self._counters.pop()
        self._path = self._path[:-1]

    def unwind_to(self, depth: int) -> None:
        """Pop tokens until the path is ``depth`` long (error recovery)."""
        while len(self._path) > depth:
            self.exit()

    # -- state slots ----------------------------------------------------------

    def write_slot(self, initial: Any) -> tuple[Any, AlignmentPath]:
        """Claim the slot at the current path; returns (current value, slot key).

        First round yields ``initial``; later rounds yield whatever was set
        last round (or the carried-forward value if never set).
        """
        self._require_active()
        path = self._path
        if path in self._slot_current:
            raise AlignmentError(path, "state slot claimed twice in one round")
        current = self._prev_slots.get(path, _MISSING)
        if current is _MISSING:
            current = initial
        self._slot_current[path] = current
        self._slots[path] = current  # carry forward unless set_slot overrides
        return current, path

    def set_slot(self, path: AlignmentPath, value: Any) -> None:
        """Stage ``value`` for the next round; last write wins."""
        self._require_active()
        if path not in self._slot_current:
            raise UsageError("set_slot on a slot not claimed this round (stale handle?)")
        self._slots[path] = value

    def slot_value(self, path: AlignmentPath) -> Any:
        """The slot's round-start value (staged writes do not show here)."""
        self._require_active()
        if path not in self._slot_current:
            raise UsageError("slot_value on a slot not claimed this round (stale handle?)")
        return self._slot_current[path]

    # -- exchange ----------------------------------------------------------

    def send(self, value: Any) -> None:
        """Stage ``value`` into the export at the current path."""
        self._require_active()
        path = self._path
        if path in self._export:
            raise AlignmentError(path, "export path used twice in one round")
        self._export[path] = value

    def neighbor_values(self) -> NeighborhoodField:
        """Field of the values aligned neighbors shared at the current path.

        A neighbor appears only if its inbound export carries this exact path
        (misaligned neighbors drop out).  The local device is included with
        the value sent this round, if any.
        """
        self._require_active()
        path = self._path
        own_id = self.context.device_id
        values = {}
        for neighbor_id, entries in self._inbound.items():
            if neighbor_id == own_id:
                continue
            if path in entries:
                values[neighbor_id] = entries[path]
        if path in self._export:
            values[own_id] = self._export[path]
        return NeighborhoodField(own_id, values)

    def receive(self, initial: Any = _MISSING) -> NeighborhoodField:
        """Field at the current path before anything was sent there.

        Unlike ``neighbor_values`` the local entry comes from the node's own
        previous export (a device is a neighbor of itself), falling back to
        ``initial`` when that export lacks this path; this is what lets a
        read-update-send operator carry its state in the export itself.
        """
        self._require_active()
        path = self._path
        own_id = self.context.device_id
        values = {}
        for neighbor_id, entries in self._inbound.items():
            if path in entries:
                values[neighbor_id] = entries[path]
        if own_id not in values and initial is not _MISSING:
            values[own_id] = initial
        return NeighborhoodField(own_id, values)

    # -- actuation ----------------------------------------------------------

    def stage_actuation(self, name: str, value: Any) -> None:
        self._require_active()
        self.staged_actuations[name] = value
