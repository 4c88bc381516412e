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
align with the local ones.  Each node caches its path's wire bytes per
predecessor, so tokens are encoded once rather than every round, in the same
format.  `PathNode.child` makes no node deeper than `MAX_DEPTH` tokens, so no
longer path exists in a round, on the wire or in the trie.  `intern_path` is
the one conversion from a token sequence to its node.

Lifecycle: ``setup(context, inbound, state)`` -> run the program ->
``cooldown()`` returning ``(slots, export)``, where ``slots`` is the state to
pass to the next ``setup``.  Alignment violations (reusing a path, unbalanced
enter/exit, such as a scope left open inside an operator body) raise
`AlignmentError` and abort the round; callers keep the node's previous state
and export in that case.
"""

from __future__ import annotations

from typing import Any, Mapping, NamedTuple

from .errors import AlignmentError, EncodingError, UsageError, format_path
from .fields import NeighborhoodField, from_ordered
from .values import decode_value, encode_value, read_uvarint, write_uvarint

KIND_FUNCTION = "fn"
KIND_OPERATOR = "op"
KIND_BRANCH_LEFT = "left"
KIND_BRANCH_RIGHT = "right"

_KINDS = (KIND_FUNCTION, KIND_OPERATOR, KIND_BRANCH_LEFT, KIND_BRANCH_RIGHT)
_KIND_CODES = {kind: code for code, kind in enumerate(_KINDS)}

# The deepest alignment path that may exist: `PathNode.child` makes no deeper node.
MAX_DEPTH = 128

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
    ``wire`` caches the path's wire bytes per predecessor node (`_wire_code`).
    """

    __slots__ = ("parent", "depth", "tokens", "children", "wire")

    def __init__(self, parent: PathNode | None, token: ScopeToken | None):
        self.parent = parent
        self.depth = 0 if parent is None else parent.depth + 1
        self.tokens: AlignmentPath = () if parent is None else parent.tokens + (token,)
        self.children: dict[tuple, PathNode] = {}
        self.wire: dict[PathNode, bytes] = {}

    def child(self, kind: str, name: str | None, occurrence: int) -> PathNode:
        """The node one token deeper, made on first use unless it would exceed `MAX_DEPTH`."""
        key = (kind, name, occurrence)
        node = self.children.get(key)
        if node is None:
            token = ScopeToken(kind, name, occurrence)
            if self.depth >= MAX_DEPTH:
                path = self.tokens + (token,)
                raise AlignmentError(path, f"alignment depth exceeds limit of {MAX_DEPTH}")
            # setdefault keeps a single node when two threads race here
            node = self.children.setdefault(key, PathNode(self, token))
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


def _wire_code(node: PathNode, previous: PathNode) -> bytes:
    """Cache the bytes coding ``node``'s path after ``previous``'s; a failure caches nothing."""
    path = node.tokens
    shared = previous  # walk up to the longest prefix both paths share
    while shared.depth > node.depth or path[: shared.depth] != shared.tokens:
        shared = shared.parent
    out = bytearray()
    write_uvarint(out, shared.depth)
    write_uvarint(out, node.depth - shared.depth)
    for kind, name, occurrence in path[shared.depth :]:
        code = _KIND_CODES.get(kind)
        if code is None or not (name is None or isinstance(name, str)):
            raise EncodingError(f"token {kind}:{name!r} has no wire form (path: {format_path(path)})")
        write_uvarint(out, occurrence << 2 | code)
        encode_value(name, out)
    wire = node.wire[previous] = bytes(out)  # a racing thread stores equal bytes
    return wire


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
    kind code`` followed by its name.  The entry's value comes next.  These
    path bytes are cached per predecessor on the node (``PathNode.wire``), and
    decoding rejects a path deeper than `MAX_DEPTH` before interning a token.
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
        """Encode the entries; a path or value the wire cannot carry raises `EncodingError`."""
        out = bytearray()
        write_uvarint(out, len(self.entries))
        previous = ROOT
        for node, value in self.entries.items():
            out += node.wire.get(previous) or _wire_code(node, previous)
            try:
                encode_value(value, out)
            except EncodingError as error:
                raise EncodingError(f"{error} (path: {format_path(node.tokens)})") from None
            previous = node
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
            if shared + fresh > MAX_DEPTH:
                raise EncodingError(f"path of {shared + fresh} tokens, deeper than {MAX_DEPTH}")
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

    def __init__(self):
        self._node = ROOT
        # set exactly while a round is in progress
        self.context: NodeContext | None = None

    # -- lifecycle ----------------------------------------------------------

    def setup(
        self,
        context: NodeContext,
        inbound: Mapping[int, Export] | None = None,
        state: dict[PathNode, Any] | None = None,
    ) -> None:
        """Begin a round on the inbound exports and the slots the last ``cooldown`` returned."""
        if self.context is not None:
            raise UsageError("setup called while a round is in progress")
        self._prev_slots = state if state is not None else {}
        # (sender id, export entries) in ascending id order.  The own id sits
        # at its place with the placeholder `_own`, which `_gather` fills with
        # the own entry of the field it builds; the own previous export is
        # kept apart for `receive`.
        inbound = inbound or {}
        own_id = context.device_id
        previous = inbound.get(own_id)
        self._own_previous = {} if previous is None else previous.entries
        self._own: dict = {}
        self._inbound = [
            (sender, export.entries) for sender, export in inbound.items() if sender != own_id
        ]
        self._inbound.append((own_id, self._own))
        self._inbound.sort()  # ids are distinct, so no two entry dicts are compared
        self._node = ROOT
        # (scope node, kind, name) -> how many such tokens the scope entered
        # this round; a node is entered at most once per round, so it names
        # the scope instance
        self._occurrences: dict = {}
        self._slots: dict = {}
        self._slot_current: dict = {}
        self._export: dict = {}
        self.staged_actuations: dict[str, Any] = {}
        self.context = context

    def cooldown(self) -> tuple[dict[PathNode, Any], Export]:
        """End the round: return the slots visited this round and the outbound export."""
        self._require_round()
        if self._node is not ROOT:
            raise AlignmentError(self._node.tokens, "round ended with unbalanced enter/exit")
        self.context = None
        return self._slots, Export(self._export)

    def abort(self) -> None:
        """Discard the round in progress (after an alignment error)."""
        self.context = None

    def _require_round(self) -> None:
        if self.context is None:
            raise UsageError(_NO_ROUND)

    # -- alignment ----------------------------------------------------------

    @property
    def path(self) -> AlignmentPath:
        return self._node.tokens

    def enter(self, kind: str, name: str | None = None) -> PathNode:
        """Push a scope token and return the new path's node.

        Occurrence counters restart per parent scope and per round.  A token
        that would take the path past `MAX_DEPTH` raises `AlignmentError`.
        """
        if self.context is None:
            raise UsageError(_NO_ROUND)
        parent = self._node
        occurrences = self._occurrences
        key = (parent, kind, name)
        occurrence = occurrences.get(key, 0)
        occurrences[key] = occurrence + 1
        node = parent.children.get((kind, name, occurrence))
        if node is None:
            node = parent.child(kind, name, occurrence)
        self._node = node
        return node

    def exit(self) -> None:
        """Pop the innermost scope token."""
        if self.context is None:
            raise UsageError(_NO_ROUND)
        node = self._node
        if node is ROOT:
            raise AlignmentError((), "exit called with empty alignment path")
        self._node = node.parent

    # -- state slots ----------------------------------------------------------

    def write_slot(self, initial: Any) -> tuple[Any, PathNode]:
        """Claim the slot at the current path; returns (current value, slot key).

        First round yields ``initial``; later rounds yield whatever was set
        last round (or the carried-forward value if never set).
        """
        if self.context is None:
            raise UsageError(_NO_ROUND)
        node = self._node
        if node in self._slot_current:
            raise AlignmentError(node.tokens, "state slot claimed twice in one round")
        current = self._prev_slots.get(node, initial)
        self._slot_current[node] = current
        self._slots[node] = current  # carry forward unless set_slot overrides
        return current, node

    def set_slot(self, node: PathNode, value: Any) -> None:
        """Stage ``value`` for the next round; last write wins."""
        self._require_round()
        if node not in self._slot_current:
            raise UsageError("set_slot on a slot not claimed this round (stale handle?)")
        self._slots[node] = value

    def slot_value(self, node: PathNode) -> Any:
        """The slot's round-start value (staged writes do not show here)."""
        self._require_round()
        if node not in self._slot_current:
            raise UsageError("slot_value on a slot not claimed this round (stale handle?)")
        return self._slot_current[node]

    # -- exchange ----------------------------------------------------------

    def send(self, value: Any) -> None:
        """Stage ``value`` into the export at the current path."""
        if self.context is None:
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
        if self.context is None:
            raise UsageError(_NO_ROUND)
        return self._gather(self._export.get(self._node, _MISSING))

    def receive(self, initial: Any = _MISSING) -> NeighborhoodField:
        """Field at the current path before anything was sent there.

        Unlike ``neighbor_values`` the local entry comes from the node's own
        previous export (a device is a neighbor of itself), falling back to
        ``initial`` when that export lacks this path; this is what lets a
        read-update-send operator carry its state in the export itself.
        """
        if self.context is None:
            raise UsageError(_NO_ROUND)
        return self._gather(self._own_previous.get(self._node, initial))

    def _gather(self, own: Any) -> NeighborhoodField:
        """Every device's entry at the current path, with ``own`` as the local one unless missing."""
        node = self._node
        own_entries = self._own
        own_entries.clear()
        if own is not _MISSING:
            own_entries[node] = own
        values = {}
        for device_id, entries in self._inbound:
            value = entries.get(node, _MISSING)
            if value is not _MISSING:
                values[device_id] = value
        return from_ordered(self.context.device_id, values)

    # -- actuation ----------------------------------------------------------

    def stage_actuation(self, name: str, value: Any) -> None:
        self._require_round()
        self.staged_actuations[name] = value
