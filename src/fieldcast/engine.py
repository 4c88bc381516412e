"""Per-round execution core for aggregate programs.

One `Engine` instance services exactly one node round at a time.  During a
round it tracks the alignment path (the sequence of scope tokens naming the
current program point), hands out state slots keyed by that path, reads the
neighbors' inbound exports, and assembles the outbound export.  Two devices
exchange a value at a program point only when their token sequences match
exactly; everything else is misalignment and simply drops out of the
neighborhood field.  Every export carries full values, so a receiver keeps no
memory of earlier exports.

Paths are interned: each distinct token sequence is one `PathNode` in a
process-wide trie whose root is the empty path.  Entering a scope is a child
lookup, leaving it follows the parent pointer, and a device's state slots (a
``{PathNode: value}`` dict) and its export entries are keyed by the node,
which hashes by identity.  Devices at the same program point therefore hold
the very same node.  Nodes live only in memory: `Engine.path` and
`Export.paths()` give `ScopeToken` tuples, the wire format still spells out
every token (see `Export`), and a decoded export interns its paths so they
align with the local ones.  `intern_path` is the one conversion from a token
sequence to its node.

Lifecycle: ``setup(context, inbound, state)`` -> run the program ->
``cooldown()`` returning ``(slots, export)``, where ``slots`` is the state to
pass to the next ``setup``.  Alignment violations (reusing a path, unbalanced
enter/exit) raise `AlignmentError` and abort the round; callers keep the
node's previous state and export in that case.
"""

from __future__ import annotations

from typing import Any, Mapping, NamedTuple

from .errors import AlignmentError, EncodingError, UsageError, format_path
from .fields import NeighborhoodField
from .values import decode_value, encode_value, read_uvarint, write_uvarint

KIND_FUNCTION = "fn"
KIND_OPERATOR = "op"
KIND_BRANCH_LEFT = "left"
KIND_BRANCH_RIGHT = "right"

_KINDS = (KIND_FUNCTION, KIND_OPERATOR, KIND_BRANCH_LEFT, KIND_BRANCH_RIGHT)
_KIND_CODES = {kind: code for code, kind in enumerate(_KINDS)}

_MISSING = object()
_NO_ROUND = "no round in progress (call setup first)"


class ScopeToken(NamedTuple):
    """One step of an alignment path.

    ``occurrence`` counts repeated tokens of the same (kind, name) within the
    enclosing scope, restarting at 0 each round, so straight-line repeated
    calls land on distinct paths.  Branch tokens carry no name.
    """

    kind: str
    name: str | None
    occurrence: int


# A path as seen from outside the engine: a tuple of ScopeTokens.
AlignmentPath = tuple


class PathNode:
    """One interned alignment path: a node of the process-wide path trie.

    There is exactly one node per distinct token sequence, so nodes compare
    and hash by identity.  ``tokens`` is the path as a tuple of `ScopeToken`s
    and ``children`` maps ``(kind, name, occurrence)`` to the node one token
    deeper.  The trie only grows: a node is made the first time any device
    (or a decoded export) reaches its path and is reused from then on.
    """

    __slots__ = ("parent", "depth", "tokens", "children")

    def __init__(self, parent: PathNode | None, token: ScopeToken | None):
        self.parent = parent
        self.depth = 0 if parent is None else parent.depth + 1
        self.tokens: AlignmentPath = () if parent is None else parent.tokens + (token,)
        self.children: dict[tuple, PathNode] = {}

    def child(self, kind: str, name: str | None, occurrence: int) -> PathNode:
        """The node one token deeper, made on first use."""
        key = (kind, name, occurrence)
        node = self.children.get(key)
        if node is None:
            # setdefault keeps a single node when two threads race here
            node = self.children.setdefault(key, PathNode(self, ScopeToken(kind, name, occurrence)))
        return node

    def __repr__(self) -> str:
        return f"PathNode({format_path(self.tokens)})"


ROOT = PathNode(None, None)


def intern_path(path) -> PathNode:
    """The node of ``path``, a sequence of (kind, name, occurrence) tokens."""
    node = ROOT
    for kind, name, occurrence in path:
        node = node.child(kind, name, occurrence)
    return node


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


class Export:
    """A node's per-round outbound message: alignment path -> value.

    ``entries`` maps `PathNode` to value and is stored as given, not copied.
    Every export carries full values.  On the wire, each entry's path is coded
    against the previous entry's: how many leading tokens both share, how many
    new tokens follow, and each new token as the varint ``occurrence << 2 |
    kind code`` followed by its name.  The entry's value comes next.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: dict[PathNode, Any]):
        self.entries = entries

    def paths(self) -> list[AlignmentPath]:
        return [node.tokens for node in self.entries]

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Export):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        return f"Export({len(self.entries)} entries)"

    def to_bytes(self) -> bytes:
        """Encode the entries; a token or value with no wire form raises `EncodingError`."""
        out = bytearray()
        write_uvarint(out, len(self.entries))
        previous: tuple = ()
        for node, value in self.entries.items():
            path = node.tokens
            shared = 0
            limit = min(len(path), len(previous))
            while shared < limit and path[shared] == previous[shared]:
                shared += 1
            write_uvarint(out, shared)
            write_uvarint(out, len(path) - shared)
            for kind, name, occurrence in path[shared:]:
                code = _KIND_CODES.get(kind)
                if code is None or not (name is None or isinstance(name, str)):
                    raise EncodingError(
                        f"token {kind}:{name!r} has no wire form (path: {format_path(path)})"
                    )
                write_uvarint(out, occurrence << 2 | code)
                encode_value(name, out)
            encode_value(value, out)
            previous = path
        return bytes(out)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Export":
        """Decode ``to_bytes`` output; malformed input raises `EncodingError`."""
        entries: dict = {}
        previous = ROOT
        count, pos = read_uvarint(raw, 0)
        for _ in range(count):
            shared, pos = read_uvarint(raw, pos)
            if shared > previous.depth:
                raise EncodingError(f"path shares {shared} tokens with a path of {previous.depth}")
            fresh, pos = read_uvarint(raw, pos)
            node = previous
            while node.depth > shared:
                node = node.parent
            for _ in range(fresh):
                packed, pos = read_uvarint(raw, pos)
                name, pos = decode_value(raw, pos)
                if name is not None and type(name) is not str:
                    raise EncodingError(f"token name of type {type(name).__name__}")
                node = node.child(_KINDS[packed & 3], name, packed >> 2)
            previous = node
            entries[node], pos = decode_value(raw, pos)
        if pos != len(raw):
            raise EncodingError(f"{len(raw) - pos} trailing bytes after the last entry")
        return cls(entries)


class Engine:
    """Executes one aggregate round; never enter a single instance concurrently."""

    def __init__(self, max_depth: int = 128):
        self.max_depth = max_depth
        self._active = False
        self._node = ROOT
        self.context: NodeContext | None = None

    # -- lifecycle ----------------------------------------------------------

    def setup(
        self,
        context: NodeContext,
        inbound: Mapping[int, Export] | None = None,
        state: dict[PathNode, Any] | None = None,
    ) -> None:
        """Begin a round on the inbound exports and the slots the last ``cooldown`` returned."""
        if self._active:
            raise UsageError("setup called while a round is in progress")
        self.context = context
        self._prev_slots = state if state is not None else {}
        self._inbound = {sender: export.entries for sender, export in (inbound or {}).items()}
        self._node = ROOT
        # (scope node, kind, name) -> how many such tokens the scope entered
        # this round; a node is entered at most once per round, so it names
        # the scope instance
        self._occurrences: dict = {}
        self._slots: dict = {}
        self._slot_current: dict = {}
        self._export: dict = {}
        self.staged_actuations: dict[str, Any] = {}
        self._active = True

    def cooldown(self) -> tuple[dict[PathNode, Any], Export]:
        """End the round: return the slots visited this round and the outbound export."""
        self._require_active()
        if self._node is not ROOT:
            raise AlignmentError(self._node.tokens, "round ended with unbalanced enter/exit")
        slots, export = self._slots, Export(self._export)
        self._reset()
        return slots, export

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
            raise UsageError(_NO_ROUND)

    # -- alignment ----------------------------------------------------------

    @property
    def path(self) -> AlignmentPath:
        return self._node.tokens

    def enter(self, kind: str, name: str | None = None) -> PathNode:
        """Push a scope token and return the new path's node.

        Occurrence counters restart per parent scope and per round.
        """
        if not self._active:
            raise UsageError(_NO_ROUND)
        parent = self._node
        occurrences = self._occurrences
        key = (parent, kind, name)
        occurrence = occurrences.get(key, 0)
        occurrences[key] = occurrence + 1
        node = parent.children.get((kind, name, occurrence))
        if node is None:
            node = parent.child(kind, name, occurrence)
        if node.depth > self.max_depth:
            raise AlignmentError(node.tokens, f"alignment depth exceeds limit of {self.max_depth}")
        self._node = node
        return node

    def exit(self, scope: PathNode | None = None) -> None:
        """Pop the innermost scope token.

        Given ``scope``, the node its `enter` returned, first close whatever
        the scope's body left open inside it (error recovery).
        """
        if not self._active:
            raise UsageError(_NO_ROUND)
        node = self._node
        if scope is not None and node is not scope:
            self.unwind_to(scope.depth)
            node = self._node
        if node is ROOT:
            raise AlignmentError((), "exit called with empty alignment path")
        self._node = node.parent

    def unwind_to(self, depth: int) -> None:
        """Pop tokens until the path is ``depth`` long (error recovery)."""
        while self._node.depth > depth:
            self.exit()

    # -- state slots ----------------------------------------------------------

    def write_slot(self, initial: Any) -> tuple[Any, PathNode]:
        """Claim the slot at the current path; returns (current value, slot key).

        First round yields ``initial``; later rounds yield whatever was set
        last round (or the carried-forward value if never set).
        """
        if not self._active:
            raise UsageError(_NO_ROUND)
        node = self._node
        if node in self._slot_current:
            raise AlignmentError(node.tokens, "state slot claimed twice in one round")
        current = self._prev_slots.get(node, _MISSING)
        if current is _MISSING:
            current = initial
        self._slot_current[node] = current
        self._slots[node] = current  # carry forward unless set_slot overrides
        return current, node

    def set_slot(self, node: PathNode, value: Any) -> None:
        """Stage ``value`` for the next round; last write wins."""
        self._require_active()
        if node not in self._slot_current:
            raise UsageError("set_slot on a slot not claimed this round (stale handle?)")
        self._slots[node] = value

    def slot_value(self, node: PathNode) -> Any:
        """The slot's round-start value (staged writes do not show here)."""
        self._require_active()
        if node not in self._slot_current:
            raise UsageError("slot_value on a slot not claimed this round (stale handle?)")
        return self._slot_current[node]

    # -- exchange ----------------------------------------------------------

    def send(self, value: Any) -> None:
        """Stage ``value`` into the export at the current path."""
        if not self._active:
            raise UsageError(_NO_ROUND)
        node = self._node
        if node in self._export:
            raise AlignmentError(node.tokens, "export path used twice in one round")
        self._export[node] = value

    def neighbor_values(self) -> NeighborhoodField:
        """Field of the values aligned neighbors shared at the current path.

        A neighbor appears only if its inbound export carries this exact path
        (misaligned neighbors drop out).  The local device is included with
        the value sent this round, if any.
        """
        if not self._active:
            raise UsageError(_NO_ROUND)
        node = self._node
        own_id = self.context.device_id
        values = {}
        for neighbor_id, entries in self._inbound.items():
            if neighbor_id != own_id:
                value = entries.get(node, _MISSING)
                if value is not _MISSING:
                    values[neighbor_id] = value
        value = self._export.get(node, _MISSING)
        if value is not _MISSING:
            values[own_id] = value
        return NeighborhoodField(own_id, values)

    def receive(self, initial: Any = _MISSING) -> NeighborhoodField:
        """Field at the current path before anything was sent there.

        Unlike ``neighbor_values`` the local entry comes from the node's own
        previous export (a device is a neighbor of itself), falling back to
        ``initial`` when that export lacks this path; this is what lets a
        read-update-send operator carry its state in the export itself.
        """
        if not self._active:
            raise UsageError(_NO_ROUND)
        node = self._node
        own_id = self.context.device_id
        values = {}
        for neighbor_id, entries in self._inbound.items():
            value = entries.get(node, _MISSING)
            if value is not _MISSING:
                values[neighbor_id] = value
        if own_id not in values and initial is not _MISSING:
            values[own_id] = initial
        return NeighborhoodField(own_id, values)

    # -- actuation ----------------------------------------------------------

    def stage_actuation(self, name: str, value: Any) -> None:
        self._require_active()
        self.staged_actuations[name] = value
