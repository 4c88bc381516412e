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
`Export.paths()` give `ScopeToken` tuples, and on the wire an export is coded
against its *template*, the ordered list of its paths (see `Export`).  The
sender caches each template's bytes and key, so tokens are encoded once per
template rather than every round; a receiver interns a template's paths only
when its bounded `TemplateTable` admits it.  `PathNode.child` makes no node
deeper than `MAX_DEPTH` tokens, so no longer path exists in a round, on the
wire or in the trie.  `intern_path` is the one conversion from a token
sequence to its node.

Lifecycle: ``setup(context, inbound, state, previous)`` -> run the program
-> ``cooldown()`` returning ``(slots, export)``, where ``slots`` is the state
to pass to the next ``setup``.  ``inbound`` holds the neighbours'
``(sender id, export entries)`` pairs and ``previous`` the device's own last
export.  `_gather` walks the pairs in id order with ``(own id, None)`` at its
place, where it puts the field's own entry: a device is its own neighbour.
Alignment violations (reusing a path, unbalanced enter/exit, such as a scope
left open inside an operator body) raise `AlignmentError` and abort the
round; callers keep the node's previous state and export in that case.
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterable, NamedTuple

from .errors import AlignmentError, EncodingError, UnknownTemplateError, UsageError, format_path
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
# The most templates one `TemplateTable` holds; a full table refuses new ones.
TEMPLATE_CAPACITY = 256

_MISSING = object()
NO_ROUND = "no round in progress (call setup first)"


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
    (or a template a `TemplateTable` admits) reaches its path and is reused
    from then on.
    """

    __slots__ = ("parent", "depth", "tokens", "children")

    def __init__(self, parent: PathNode | None, token: ScopeToken | None):
        self.parent = parent
        self.depth = 0 if parent is None else parent.depth + 1
        self.tokens: AlignmentPath = () if parent is None else parent.tokens + (token,)
        self.children: dict[tuple, PathNode] = {}

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


# shape (the tuple of an export's path nodes) -> the bytes before the values
# in (reference form, inline form): the header, then the key or the block
_TEMPLATES: dict[tuple, tuple[bytes, bytes]] = {}


def _template(shape: tuple) -> tuple[bytes, bytes]:
    """Cache ``shape``'s two prefixes; a path that fails to encode caches nothing."""
    block = bytearray()
    previous = ROOT
    for node in shape:
        path = node.tokens
        shared = previous  # walk up to the longest prefix both paths share
        while shared.depth > node.depth or path[: shared.depth] != shared.tokens:
            shared = shared.parent
        write_uvarint(block, shared.depth)
        write_uvarint(block, node.depth - shared.depth)
        for kind, name, occurrence in path[shared.depth :]:
            code = _KIND_CODES.get(kind)
            if code is None or not (name is None or isinstance(name, str)):
                raise EncodingError(
                    f"token {kind}:{name!r} has no wire form (path: {format_path(path)})"
                )
            write_uvarint(block, occurrence << 2 | code)
            encode_value(name, block)
        previous = node
    reference, inline = bytearray(), bytearray()
    write_uvarint(reference, len(shape) << 1)
    write_uvarint(inline, len(shape) << 1 | 1)
    reference += hashlib.sha256(block).digest()[:8]
    # a racing thread stores equal bytes
    template = _TEMPLATES[shape] = (bytes(reference), bytes(inline + block))
    return template


def _read_template(raw: bytes, pos: int, count: int) -> tuple[list[AlignmentPath], int]:
    """Parse a template block of ``count`` paths at ``pos`` into token tuples, interning nothing."""
    paths: list[AlignmentPath] = []
    previous: AlignmentPath = ()
    for _ in range(count):
        shared, pos = read_uvarint(raw, pos)
        if shared > len(previous):
            raise EncodingError(f"path shares {shared} tokens with a path of {len(previous)}")
        fresh, pos = read_uvarint(raw, pos)
        if shared + fresh > MAX_DEPTH:
            raise EncodingError(f"path of {shared + fresh} tokens, deeper than {MAX_DEPTH}")
        path = list(previous[:shared])
        for _ in range(fresh):
            packed, pos = read_uvarint(raw, pos)
            name, pos = decode_value(raw, pos)
            if name is not None and type(name) is not str:
                raise EncodingError(f"token name of type {type(name).__name__}")
            path.append(ScopeToken(_KINDS[packed & 3], name, packed >> 2))
        previous = tuple(path)
        paths.append(previous)
    if len(set(paths)) < count:
        raise EncodingError("template repeats a path")
    return paths, pos


class TemplateTable(dict):
    """The templates one receiver knows: 8-byte key -> shape (a tuple of `PathNode`s).

    `Export.from_bytes` admits a template, and interns its paths, only while
    the table holds fewer than `TEMPLATE_CAPACITY`; a full table refuses new
    templates, so wire input cannot grow the path trie without bound.
    """


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
    Every export carries full values.  On the wire an export is coded against
    its template, the tuple of its paths: ``uvarint(count << 1 | inline)``,
    then the template block (inline form) or its 8-byte key (reference form),
    then the values in entry order.  The block codes each path against the
    previous one: how many leading tokens both share, how many new tokens
    follow, and each new token as the varint ``occurrence << 2 | kind code``
    followed by its name.  The key is the first 8 bytes of the block's
    SHA-256.  A sender caches each template's block and key.
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

    def to_bytes(self, inline: bool = False) -> bytes:
        """Encode the entries in reference form, or with the template ``inline``.

        A path or value the wire cannot carry raises `EncodingError`.
        """
        entries = self.entries
        shape = tuple(entries)
        out = bytearray((_TEMPLATES.get(shape) or _template(shape))[inline])
        for node, value in entries.items():
            try:
                encode_value(value, out)
            except EncodingError as error:
                raise EncodingError(f"{error} (path: {format_path(node.tokens)})") from None
        return bytes(out)

    @classmethod
    def from_bytes(cls, raw: bytes, table: TemplateTable) -> "Export":
        """Decode ``to_bytes`` output against the receiver's template ``table``.

        Malformed input, including a path deeper than `MAX_DEPTH`, raises
        `EncodingError` and changes neither the table nor the trie: a template
        is admitted only once the whole message has parsed.  A reference the
        table does not hold, or a template a full table refuses, raises
        `UnknownTemplateError`.
        """
        header, pos = read_uvarint(raw, 0)
        count = header >> 1
        paths = None
        if header & 1:
            start = pos
            paths, pos = _read_template(raw, pos, count)
            key = hashlib.sha256(raw[start:pos]).digest()[:8]
        else:
            key = bytes(raw[pos : pos + 8])
            if len(key) < 8:
                raise EncodingError("truncated template key")
            pos += 8
        values = []
        for _ in range(count):
            value, pos = decode_value(raw, pos)
            values.append(value)
        if pos != len(raw):
            raise EncodingError(f"{len(raw) - pos} trailing bytes after the last entry")
        shape = table.get(key)
        if shape is None:
            if paths is None:
                raise UnknownTemplateError(f"unknown template {key.hex()}")
            if len(table) >= TEMPLATE_CAPACITY:
                raise UnknownTemplateError(f"template table full ({TEMPLATE_CAPACITY} templates)")
            shape = table[key] = tuple(intern_path(path) for path in paths)
        elif len(shape) != count:
            raise EncodingError(f"template {key.hex()} has {len(shape)} paths, not {count}")
        return cls(dict(zip(shape, values)))


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
        inbound: Iterable[tuple[int, dict[PathNode, Any]]] = (),
        state: dict[PathNode, Any] | None = None,
        previous: Export | None = None,
    ) -> None:
        """Begin a round.

        ``inbound`` holds one ``(sender id, export entries)`` pair per neighbour
        heard, in any order, never the own id; it is copied, not kept.
        ``state`` is what the last ``cooldown`` returned, and ``previous`` the
        device's own previous export (None if there is none), which only
        ``receive`` reads.
        """
        if self.context is not None:
            raise UsageError("setup called while a round is in progress")
        self._prev_slots = state if state is not None else {}
        self._own_previous = {} if previous is None else previous.entries
        # (sender id, export entries) in ascending id order; the own id sits
        # at its place with None, where `_gather` puts the field's own entry.
        gathered = list(inbound)
        gathered.append((context.device_id, None))
        gathered.sort()  # ids are distinct, so no two entries are compared
        self._inbound = gathered
        self._node = ROOT
        # the nodes entered this round: a node is entered at most once per
        # round and occurrences are taken in order, so a token's occurrence
        # is the first one whose node is not in here.  It lives on the engine,
        # not on the shared nodes, so rounds on separate threads stay apart.
        self._entered: set[PathNode] = set()
        self._slots: dict = {}
        self._export: dict = {}
        self.staged_actuations: dict[str, Any] = {}
        self.context = context

    def cooldown(self) -> tuple[dict[PathNode, Any], Export]:
        """End the round: return the slots visited this round and the outbound export."""
        if self.context is None:
            raise UsageError(NO_ROUND)
        if self._node is not ROOT:
            raise AlignmentError(self._node.tokens, "round ended with unbalanced enter/exit")
        self.context = None
        return self._slots, Export(self._export)

    def abort(self) -> None:
        """Discard the round in progress (after an alignment error)."""
        self.context = None

    # -- alignment ----------------------------------------------------------

    @property
    def path(self) -> AlignmentPath:
        return self._node.tokens

    def enter(self, kind: str, name: str | None = None) -> PathNode:
        """Push a scope token and return the new path's node.

        The token's occurrence is the number of times the enclosing scope has
        entered ``(kind, name)`` this round: the first child with that kind
        and name not yet entered this round.  A token that would take the
        path past `MAX_DEPTH` raises `AlignmentError`.
        """
        if self.context is None:
            raise UsageError(NO_ROUND)
        children = self._node.children
        entered = self._entered
        occurrence = 0
        node = children.get((kind, name, 0))
        while node in entered:
            occurrence += 1
            node = children.get((kind, name, occurrence))
        if node is None:
            node = self._node.child(kind, name, occurrence)
        entered.add(node)
        self._node = node
        return node

    def exit(self) -> None:
        """Pop the innermost scope token."""
        if self.context is None:
            raise UsageError(NO_ROUND)
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
            raise UsageError(NO_ROUND)
        node = self._node
        if node in self._slots:
            raise AlignmentError(node.tokens, "state slot claimed twice in one round")
        # carried forward unless set_slot overrides
        current = self._slots[node] = self._prev_slots.get(node, initial)
        return current, node

    def set_slot(self, node: PathNode, value: Any) -> None:
        """Stage ``value`` for the next round; last write wins."""
        if self.context is None:
            raise UsageError(NO_ROUND)
        if node not in self._slots:
            raise UsageError("set_slot on a slot not claimed this round (stale handle?)")
        self._slots[node] = value

    # -- exchange ----------------------------------------------------------

    def send(self, value: Any) -> None:
        """Stage ``value`` into the export at the current path."""
        if self.context is None:
            raise UsageError(NO_ROUND)
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
            raise UsageError(NO_ROUND)
        return self._gather(self._export.get(self._node, _MISSING))

    def receive(self, initial: Any = _MISSING) -> NeighborhoodField:
        """Field at the current path before anything was sent there.

        Unlike ``neighbor_values`` the local entry comes from the node's own
        previous export (a device is a neighbor of itself), falling back to
        ``initial`` when that export lacks this path; this is what lets a
        read-update-send operator carry its state in the export itself.
        """
        if self.context is None:
            raise UsageError(NO_ROUND)
        return self._gather(self._own_previous.get(self._node, initial))

    def _gather(self, own: Any) -> NeighborhoodField:
        """Every device's entry at the current path, with ``own`` as the local one unless missing."""
        node = self._node
        values = {}
        for device_id, entries in self._inbound:
            value = own if entries is None else entries.get(node, _MISSING)
            if value is not _MISSING:
                values[device_id] = value
        return from_ordered(self.context.device_id, values)

    # -- actuation ----------------------------------------------------------

    def stage_actuation(self, name: str, value: Any) -> None:
        if self.context is None:
            raise UsageError(NO_ROUND)
        self.staged_actuations[name] = value
