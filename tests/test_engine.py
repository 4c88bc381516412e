"""Engine lifecycle, alignment, state slots, exchange, export wire format."""

import sys
import threading

import pytest
from hypothesis import example, given, strategies as st

from fieldcast import Engine, Export, NodeContext, activate, aggregate_call, neighbors
from fieldcast.engine import (
    KIND_BRANCH_LEFT,
    KIND_BRANCH_RIGHT,
    KIND_FUNCTION,
    KIND_OPERATOR,
    MAX_DEPTH,
    ROOT,
    TEMPLATE_CAPACITY,
    ScopeToken,
    TemplateTable,
    intern_path,
)
from fieldcast.errors import AlignmentError, EncodingError, UnknownTemplateError, UsageError
from fieldcast.values import encoded, write_uvarint


def ctx(device_id=0, time=0.0, sensors=None):
    return NodeContext(device_id, (0.0, 0.0), time, sensors or {})


def fresh(inbound=None, state=None, device_id=0):
    """An engine in a round of ``device_id`` hearing ``inbound``, {sender id: Export}.

    The own id's export, if any, is the round's own previous export.
    """
    inbound = inbound or {}
    pairs = [(sender, export.entries) for sender, export in inbound.items() if sender != device_id]
    engine = Engine()
    engine.setup(ctx(device_id), pairs, state, inbound.get(device_id))
    return engine


def path_of(*steps):
    return tuple(ScopeToken(kind, name, occ) for kind, name, occ in steps)


# -- lifecycle ---------------------------------------------------------------


def test_setup_twice_without_cooldown_is_usage_error():
    engine = fresh()
    with pytest.raises(UsageError):
        engine.setup(ctx(), {}, None)


def test_operations_require_round_in_progress():
    engine = Engine()
    with pytest.raises(UsageError):
        engine.enter(KIND_FUNCTION, "f")
    with pytest.raises(UsageError):
        engine.cooldown()


def test_cooldown_with_open_scope_is_alignment_error():
    engine = fresh()
    engine.enter(KIND_FUNCTION, "f")
    with pytest.raises(AlignmentError):
        engine.cooldown()


def test_abort_returns_engine_to_idle():
    engine = fresh()
    engine.enter(KIND_FUNCTION, "f")
    engine.abort()
    engine.setup(ctx(), {}, None)  # no usage error
    state, export = engine.cooldown()
    assert len(export) == 0 and state == {}


def test_program_with_no_send_exports_nothing():
    engine = fresh()
    state, export = engine.cooldown()
    assert len(export) == 0


# -- alignment paths -----------------------------------------------------------


def test_balanced_nesting_empties_path():
    engine = fresh()
    engine.enter(KIND_FUNCTION, "f")
    engine.enter(KIND_FUNCTION, "g")
    assert engine.path == path_of(("fn", "f", 0), ("fn", "g", 0))
    engine.exit()
    engine.exit()
    assert engine.path == ()


def test_sibling_occurrences_count_up():
    engine = fresh()
    for expected in (0, 1):
        engine.enter(KIND_FUNCTION, "f")
        assert engine.path[-1].occurrence == expected
        engine.exit()


def test_occurrence_counters_reset_per_scope_and_per_round():
    engine = fresh()
    engine.enter(KIND_FUNCTION, "outer")
    engine.enter(KIND_FUNCTION, "f")
    assert engine.path[-1].occurrence == 0  # fresh scope, fresh counter
    engine.exit()
    engine.exit()
    engine.enter(KIND_FUNCTION, "outer")
    assert engine.path[-1].occurrence == 1
    engine.exit()
    engine.cooldown()
    engine.setup(ctx(), {}, None)
    engine.enter(KIND_FUNCTION, "outer")
    assert engine.path[-1].occurrence == 0  # new round, counters reset
    engine.exit()


def occurrences_of(engine, names):
    """Enter and exit each name in turn; the occurrence each one took."""
    taken = []
    for name in names:
        node = engine.enter(KIND_FUNCTION, name)
        taken.append((name, node.tokens[-1].occurrence))
        engine.exit()
    return taken


def test_interleaved_siblings_count_each_name_apart():
    engine = fresh()
    taken = occurrences_of(engine, ["il_f", "il_g", "il_f", "il_g"])
    assert taken == [("il_f", 0), ("il_g", 0), ("il_f", 1), ("il_g", 1)]


def test_occurrences_other_devices_put_into_the_trie_do_not_count():
    busy = fresh(device_id=1)
    assert occurrences_of(busy, ["tr_f"] * 3) == [("tr_f", 0), ("tr_f", 1), ("tr_f", 2)]
    assert ROOT.children[(KIND_FUNCTION, "tr_f", 2)] is not None
    assert occurrences_of(fresh(device_id=2), ["tr_f"]) == [("tr_f", 0)]


def test_entering_a_name_again_after_its_exit_counts_up():
    engine = fresh()
    engine.enter(KIND_FUNCTION, "ex_outer")
    first = engine.enter(KIND_FUNCTION, "ex_f")
    engine.exit()
    second = engine.enter(KIND_FUNCTION, "ex_f")
    engine.exit()
    engine.exit()
    assert second is not first and second.parent is first.parent
    assert [first.tokens[-1].occurrence, second.tokens[-1].occurrence] == [0, 1]


def test_the_round_after_an_abort_counts_from_zero():
    engine = fresh()
    engine.enter(KIND_FUNCTION, "ab_f")
    engine.exit()
    engine.enter(KIND_FUNCTION, "ab_f")  # left open, as a failing body would
    engine.abort()
    engine.setup(ctx(), {}, None)
    assert occurrences_of(engine, ["ab_f", "ab_f"]) == [("ab_f", 0), ("ab_f", 1)]


def test_exit_on_empty_path_is_alignment_error():
    engine = fresh()
    with pytest.raises(AlignmentError):
        engine.exit()


def test_identical_call_sequences_on_two_nodes_reach_identical_paths():
    def walk(engine):
        engine.enter(KIND_FUNCTION, "f")
        engine.exit()
        engine.enter(KIND_FUNCTION, "f")
        taken = engine.path
        engine.exit()
        return taken

    assert walk(fresh(device_id=1)) == walk(fresh(device_id=2))


def test_depth_limit():
    engine = fresh()
    for _ in range(MAX_DEPTH):
        engine.enter(KIND_FUNCTION, "f")
    with pytest.raises(AlignmentError):
        engine.enter(KIND_FUNCTION, "f")


# -- state slots ----------------------------------------------------------------


def test_slot_initial_then_set_then_read_back():
    engine = fresh()
    value, key = engine.write_slot(0)
    assert value == 0
    engine.set_slot(key, 1)
    state, _ = engine.cooldown()

    engine.setup(ctx(), {}, state)
    value, _ = engine.write_slot(0)
    assert value == 1


def test_unset_slot_carries_forward():
    engine = fresh()
    _, key = engine.write_slot("kept")
    state, _ = engine.cooldown()
    engine.setup(ctx(), {}, state)
    value, _ = engine.write_slot("ignored-initial")
    assert value == "kept"


def test_slot_reuse_in_one_round_is_alignment_error():
    engine = fresh()
    engine.write_slot(0)
    with pytest.raises(AlignmentError):
        engine.write_slot(0)


def test_last_write_wins():
    engine = fresh()
    _, key = engine.write_slot(0)
    engine.set_slot(key, 1)
    engine.set_slot(key, 2)
    state, _ = engine.cooldown()
    assert state[ROOT] == 2


def test_unvisited_slots_are_dropped():
    engine = fresh()
    engine.enter(KIND_OPERATOR, "remember")
    engine.write_slot("a")
    engine.exit()
    state, _ = engine.cooldown()
    assert len(state) == 1

    engine.setup(ctx(), {}, state)  # round that never visits the slot
    state, _ = engine.cooldown()
    assert state == {}


def test_stale_handle_is_usage_error():
    engine = fresh()
    _, key = engine.write_slot(0)
    engine.cooldown()
    engine.setup(ctx(), {}, None)
    with pytest.raises(UsageError):
        engine.set_slot(key, 9)


# -- exchange ----------------------------------------------------------------


def test_isolated_send_yields_self_only_field():
    engine = fresh()
    engine.send(7)
    field = engine.neighbor_values()
    assert field.items() == [(0, 7)]


def test_neighbor_value_visible_at_matching_path():
    sender = fresh(device_id=1)
    sender.enter(KIND_FUNCTION, "f")
    sender.send(5)
    sender.exit()
    _, export = sender.cooldown()

    receiver = fresh(inbound={1: export}, device_id=0)
    receiver.enter(KIND_FUNCTION, "f")
    field = receiver.neighbor_values()
    assert field.get(1) == 5
    assert 0 not in field  # nothing sent locally yet
    receiver.exit()
    receiver.cooldown()


def test_mismatched_path_excludes_neighbor():
    sender = fresh(device_id=1)
    sender.enter(KIND_FUNCTION, "f")
    sender.send(5)
    sender.exit()
    _, export = sender.cooldown()

    receiver = fresh(inbound={1: export}, device_id=0)
    receiver.enter(KIND_FUNCTION, "g")
    receiver.send(1)
    assert receiver.neighbor_values().items() == [(0, 1)]
    receiver.exit()


def test_send_twice_at_same_path_is_alignment_error():
    engine = fresh()
    engine.send(1)
    with pytest.raises(AlignmentError):
        engine.send(2)


def test_export_contains_exactly_sent_paths():
    engine = fresh()
    sent_paths = []
    engine.send("root")
    sent_paths.append(engine.path)
    engine.enter(KIND_FUNCTION, "f")
    engine.send("inner")
    sent_paths.append(engine.path)
    engine.exit()
    _, export = engine.cooldown()
    assert set(export.paths()) == set(sent_paths)


def test_receive_includes_own_previous_value():
    engine = fresh(device_id=3)
    engine.send("first")
    _, export = engine.cooldown()

    engine.setup(ctx(3), (), None, export)
    field = engine.receive()
    assert field.items() == [(3, "first")]


def test_receive_falls_back_to_initial():
    engine = fresh(device_id=3)
    assert engine.receive("fallback").items() == [(3, "fallback")]
    assert len(engine.receive()) == 0


def exports_at(path, values):
    """{device id: one-entry export carrying its value at ``path``}."""
    node = intern_path(path)
    return {device_id: Export({node: value}) for device_id, value in values.items()}


def test_neighbor_values_takes_the_own_entry_from_this_round_only():
    inbound = exports_at(path_of(("fn", "f", 0)), {0: "own, last round", 1: "one"})
    engine = fresh(inbound=inbound, device_id=0)
    engine.enter(KIND_FUNCTION, "f")
    assert engine.neighbor_values().items() == [(1, "one")]  # nothing sent yet
    engine.send("own, this round")
    assert engine.neighbor_values().items() == [(0, "own, this round"), (1, "one")]


def test_receive_prefers_the_own_previous_export_over_initial():
    inbound = exports_at(path_of(("fn", "f", 0)), {0: "own, last round", 1: "one"})
    engine = fresh(inbound=inbound, device_id=0)
    engine.enter(KIND_FUNCTION, "f")
    assert engine.receive("initial").items() == [(0, "own, last round"), (1, "one")]


def test_the_gathered_fields_do_not_depend_on_where_the_own_id_sits_in_the_inbound():
    own_first = exports_at(path_of(("fn", "f", 0)), {2: "own", 1: "one", 3: "three"})
    own_last = {device_id: own_first[device_id] for device_id in (1, 3, 2)}

    def fields(inbound):
        engine = fresh(inbound=inbound, device_id=2)
        engine.enter(KIND_FUNCTION, "f")
        received = engine.receive("initial")
        engine.send("sent")
        return received, engine.neighbor_values()

    received, gathered = fields(own_first)
    assert (received, gathered) == fields(own_last)
    assert received.items() == [(1, "one"), (2, "own"), (3, "three")]
    assert gathered.items() == [(1, "one"), (2, "sent"), (3, "three")]


def test_setup_gathers_pairs_given_in_any_order_in_ascending_id_order():
    node = intern_path(path_of(("fn", "f", 0)))
    pairs = [(9, {node: "nine"}), (2, {node: "two"}), (7, {node: "seven"}), (0, {})]
    engine = Engine()
    engine.setup(ctx(4), pairs, None)
    engine.enter(KIND_FUNCTION, "f")
    assert engine.receive("own").items() == [(2, "two"), (4, "own"), (7, "seven"), (9, "nine")]
    assert engine.neighbor_values().ids() == [2, 7, 9]


def test_receive_takes_the_own_entry_only_from_the_previous_export():
    node = intern_path(path_of(("fn", "f", 0)))
    previous = Export({node: "own, last round"})

    def received(pairs, previous):
        engine = Engine()
        engine.setup(ctx(4), pairs, None, previous)
        engine.enter(KIND_FUNCTION, "f")
        field = engine.receive("initial")
        gathered = engine.neighbor_values()  # nothing sent: no own entry
        return field.items(), gathered.items()

    assert received([(1, {node: "one"})], previous) == (
        [(1, "one"), (4, "own, last round")],
        [(1, "one")],
    )
    assert received([(1, {node: "one"})], None) == ([(1, "one"), (4, "initial")], [(1, "one")])
    # an own previous export without this path falls back to initial as well
    elsewhere = Export({intern_path(path_of(("fn", "g", 0))): "other path"})
    assert received([], elsewhere) == ([(4, "initial")], [])


def test_setup_leaves_the_callers_pairs_as_they_were():
    node = intern_path(path_of(("fn", "f", 0)))
    entries = {node: "one"}
    pairs = [(3, {node: "three"}), (1, entries)]
    copy = list(pairs)
    engine = Engine()
    engine.setup(ctx(2), pairs, None)
    engine.enter(KIND_FUNCTION, "f")
    engine.send("own")
    assert engine.neighbor_values().items() == [(1, "one"), (2, "own"), (3, "three")]
    engine.exit()
    engine.cooldown()
    assert pairs == copy and pairs[1][1] is entries and entries == {node: "one"}

    engine.setup(ctx(2), iter(pairs), None)  # any iterable will do
    engine.enter(KIND_FUNCTION, "f")
    assert engine.receive().ids() == [1, 3]


def test_setup_during_a_round_is_usage_error_and_keeps_the_round():
    node = intern_path(path_of(("fn", "f", 0)))
    engine = Engine()
    engine.setup(ctx(0), [(1, {node: "one"})], None)
    with pytest.raises(UsageError):
        engine.setup(ctx(5), [(2, {node: "two"})], None, Export({node: "own"}))
    engine.enter(KIND_FUNCTION, "f")
    assert engine.receive("initial").items() == [(0, "initial"), (1, "one")]


def gathered_fields(inbound, device_id):
    """(receive("initial"), neighbor_values() after sending "sent") at one path."""
    engine = fresh(inbound=inbound, device_id=device_id)
    engine.enter(KIND_FUNCTION, "f")
    received = engine.receive("initial")
    engine.send("sent")
    return received, engine.neighbor_values()


@pytest.mark.parametrize(
    "own_id, senders",
    [
        (4, (9, 7, 4, 2, 1)),  # inbound in descending id order
        (1, (1, 3, 5)),  # own id smallest
        (9, (2, 5, 9)),  # own id largest
        (1, (5, 9, 1, 3)),  # own id smallest, inbound in no order
        (9, (9, 5, 2)),  # own id largest, inbound descending
    ],
)
def test_gathered_fields_list_ascending_ids_with_the_own_entry_at_its_place(own_id, senders):
    inbound = exports_at(
        path_of(("fn", "f", 0)),
        {i: "own" if i == own_id else f"from {i}" for i in senders},
    )
    received, gathered = gathered_fields(inbound, own_id)
    others = [(i, f"from {i}") for i in sorted(senders) if i != own_id]
    assert received.items() == sorted(others + [(own_id, "own")])
    assert gathered.items() == sorted(others + [(own_id, "sent")])
    assert received.ids() == gathered.ids() == sorted(senders)


@pytest.mark.parametrize("own_id", [0, 4, 9])
def test_gathered_fields_without_an_own_export_put_the_own_entry_at_its_place(own_id):
    # first round: the own id is absent from the inbound, given in descending order
    senders = tuple(i for i in (8, 6, 3, 1) if i != own_id)
    inbound = exports_at(path_of(("fn", "f", 0)), {i: f"from {i}" for i in senders})
    received, gathered = gathered_fields(inbound, own_id)
    others = [(i, f"from {i}") for i in sorted(senders)]
    assert received.items() == sorted(others + [(own_id, "initial")])
    assert gathered.items() == sorted(others + [(own_id, "sent")])


# -- determinism ----------------------------------------------------------------


def test_identical_inputs_identical_outputs():
    def one_round():
        sender = Engine()
        sender.setup(ctx(2), {}, None)
        sender.enter(KIND_FUNCTION, "f")
        sender.send((1, 2.5, "x"))
        sender.exit()
        _, export = sender.cooldown()

        engine = Engine()
        state = {ROOT: 7}
        engine.setup(ctx(1, time=3.0), [(2, export.entries)], state)
        value, key = engine.write_slot(0)
        engine.set_slot(key, value + 1)
        engine.enter(KIND_FUNCTION, "f")
        engine.send(value)
        field = engine.neighbor_values()
        engine.exit()
        new_state, out = engine.cooldown()
        return new_state, out.entries, field.items()

    assert one_round() == one_round()


def test_export_wire_roundtrip():
    engine = fresh()
    engine.enter(KIND_FUNCTION, "main")
    engine.enter(KIND_OPERATOR, "neighbors")
    engine.send((1.0, 2.0))
    engine.exit()
    engine.exit()
    _, export = engine.cooldown()
    assert round_trip(export) == export


# -- wire format ----------------------------------------------------------------

MAIN = ScopeToken(KIND_FUNCTION, "main", 0)


def round_trip(export):
    """Decode the inline form into a fresh table, then check the reference form decodes equal."""
    table = TemplateTable()
    decoded = Export.from_bytes(export.to_bytes(inline=True), table)
    assert len(table) == 1
    assert Export.from_bytes(export.to_bytes(), table) == decoded
    assert len(table) == 1
    return decoded


def trie_size(node=ROOT):
    return 1 + sum(trie_size(child) for child in node.children.values())


def trie_depth(node=ROOT):
    return max((trie_depth(child) for child in node.children.values()), default=node.depth)


def test_export_bytes_code_each_path_against_the_previous_one():
    export = Export(
        {
            intern_path((MAIN, ScopeToken(KIND_OPERATOR, "neighbors", 0))): (1.0, 2.0),
            intern_path((MAIN, ScopeToken(KIND_OPERATOR, "share", 0))): 3,
        }
    )
    values = "0802" "3ff0000000000000" "4000000000000000" "0306"  # (1.0, 2.0), then 3
    assert export.to_bytes(inline=True) == bytes.fromhex(
        "05"  # two entries << 1 | inline
        "00" "02"  # shares no token with the empty path, two new tokens
        "00" "05046d61696e"  # occurrence 0 << 2 | fn, "main"
        "01" "05096e65696768626f7273"  # occurrence 0 << 2 | op, "neighbors"
        "01" "01"  # shares fn main, one new token
        "01" "05057368617265"  # occurrence 0 << 2 | op, "share"
        + values
    )
    assert len(export.to_bytes(inline=True)) == 52
    # the reference form: the first 8 bytes of the block's SHA-256, then the same values
    assert export.to_bytes() == bytes.fromhex("04" "46a46638381d8f7b" + values)
    assert len(export.to_bytes()) == 29


def test_a_path_is_coded_against_each_predecessor_it_follows():
    # fn main/op share follows a different path in each export, so each
    # template codes it against its own predecessor, and the keys differ
    share = intern_path((MAIN, ScopeToken(KIND_OPERATOR, "share", 0)))
    after_neighbors = Export(
        {intern_path((MAIN, ScopeToken(KIND_OPERATOR, "neighbors", 0))): 1, share: 2}
    )
    after_f = Export({intern_path((ScopeToken(KIND_FUNCTION, "f", 0),)): 1, share: 2})
    assert after_neighbors.to_bytes(inline=True) == bytes.fromhex(
        "05"
        "00" "02" "00" "05046d61696e" "01" "05096e65696768626f7273"  # main/neighbors
        "01" "01" "01" "05057368617265"  # shares fn main; op share
        "0302" "0304"  # 1, 2
    )
    assert after_f.to_bytes(inline=True) == bytes.fromhex(
        "05"
        "00" "01" "00" "050166"  # fn f
        "00" "02" "00" "05046d61696e" "01" "05057368617265"  # shares nothing with fn f
        "0302" "0304"
    )
    assert after_neighbors.to_bytes() == bytes.fromhex("04" "46a46638381d8f7b" "0302" "0304")
    assert after_f.to_bytes() == bytes.fromhex("04" "77c17a0f5b51fc88" "0302" "0304")
    for export in (after_neighbors, after_f):
        assert round_trip(export) == export


def test_encoding_an_export_twice_gives_the_same_bytes():
    deep = intern_path((MAIN, ScopeToken(KIND_BRANCH_LEFT, None, 40)))
    export = Export({deep: 1.5, deep.parent: "x"})  # the second path is a prefix of the first
    for inline in (False, True):
        assert export.to_bytes(inline) == export.to_bytes(inline)


def test_threads_encoding_new_paths_at_once_get_the_same_bytes():
    race = ScopeToken(KIND_FUNCTION, "race", 0)
    export = Export(
        {intern_path((race, ScopeToken(KIND_OPERATOR, str(i), i))): i for i in range(200)}
    )
    start = threading.Barrier(4)
    encoded = []

    def encode():
        start.wait(timeout=10)
        encoded.append(export.to_bytes(inline=True))

    threads = [threading.Thread(target=encode) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(encoded) == 4 and len(set(encoded)) == 1
    assert Export.from_bytes(encoded[0], TemplateTable()) == export


occurrences = st.integers(0, 300)  # from 32 on, a packed token takes two bytes
tokens = st.one_of(
    st.builds(
        ScopeToken, st.sampled_from([KIND_FUNCTION, KIND_OPERATOR]), st.text(max_size=6), occurrences
    ),
    st.builds(
        ScopeToken, st.sampled_from([KIND_BRANCH_LEFT, KIND_BRANCH_RIGHT]), st.none(), occurrences
    ),
)

wire_values = st.one_of(
    st.none(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=5),
    st.tuples(st.floats(allow_nan=False), st.floats(allow_nan=False)),
)


@st.composite
def exports(draw):
    """Exports whose paths often share a prefix with the previous entry's."""
    entries: dict = {}
    previous: tuple = ()
    for _ in range(draw(st.integers(0, 6))):
        shared = draw(st.integers(0, len(previous)))
        path = previous[:shared] + tuple(draw(st.lists(tokens, max_size=3)))
        if path not in entries:
            entries[path] = draw(wire_values)
            previous = path
    return Export({intern_path(path): value for path, value in entries.items()})


DEEP = (MAIN, ScopeToken(KIND_BRANCH_LEFT, None, 40), ScopeToken(KIND_OPERATOR, "share", 0))


@given(exports())
# the empty path; a branch token with no name whose packed varint takes two
# bytes (occurrence >= 32); a path that is a prefix of the previous one
@example(
    Export(
        {
            ROOT: None,
            intern_path(DEEP): 1.5,
            intern_path(DEEP[:2]): "x",
            intern_path(DEEP[:1]): (0.5, -0.0),
        }
    )
)
def test_export_wire_roundtrip_keeps_every_path_and_the_order(export):
    decoded = round_trip(export)
    assert list(decoded.entries.items()) == list(export.entries.items())


@pytest.mark.parametrize(
    "raw, reason",
    [
        # one inline entry: shares 0, one new token fn #0 whose name is b"\xff"
        (bytes.fromhex("0300010005" "01ff" "00"), "invalid UTF-8"),
        # one inline entry at the empty path whose value is the map {{}: None}
        (bytes.fromhex("030000" "0701070000"), "unhashable map key"),
        # one inline entry: a token named by the integer 1
        (bytes.fromhex("03000100" "0302" "00"), "token name of type int"),
        # the first path claims to share one token with the empty path
        (bytes.fromhex("03010000"), "shares 1 tokens with a path of 0"),
        # a complete one-entry export followed by one more byte
        (bytes.fromhex("03000000" "ff"), "1 trailing bytes"),
        # a value nested 5000 sequences deep
        (bytes.fromhex("030000" + "0601" * 5000 + "00"), "nested too deeply"),
        # one inline entry: shares 0, 129 new tokens right #1, value None
        (bytes.fromhex("03008101" + "0700" * 129 + "00"), "path of 129 tokens, deeper than 128"),
        # a reference whose key stops after two bytes
        (bytes.fromhex("02" "0102"), "truncated template key"),
        # two inline entries, both at the empty path
        (bytes.fromhex("05" "0000" "0000" "00" "00"), "template repeats a path"),
        # a reference to the known template with one entry fewer than it holds
        (bytes.fromhex("02" "46a46638381d8f7b" "00"), "has 2 paths, not 1"),
    ],
    ids=[
        "utf8",
        "unhashable-key",
        "name-type",
        "shared-prefix",
        "trailing",
        "nesting",
        "depth",
        "truncated-key",
        "repeated-path",
        "count",
    ],
)
def test_malformed_export_raises_encoding_error(raw, reason):
    table = TemplateTable()
    known = Export(
        {
            intern_path((MAIN, ScopeToken(KIND_OPERATOR, "neighbors", 0))): 1,
            intern_path((MAIN, ScopeToken(KIND_OPERATOR, "share", 0))): 2,
        }
    )
    Export.from_bytes(known.to_bytes(inline=True), table)
    shapes = dict(table)
    before = trie_size()
    with pytest.raises(EncodingError, match=reason) as caught:
        Export.from_bytes(raw, table)
    assert type(caught.value) is EncodingError
    assert table == shapes
    assert trie_size() == before


def test_a_reference_decodes_only_against_a_table_that_admitted_its_template():
    export = Export({intern_path((MAIN, ScopeToken(KIND_OPERATOR, "late", 0))): 1.5})
    table = TemplateTable()
    key = export.to_bytes()[1:9]
    with pytest.raises(UnknownTemplateError, match=f"unknown template {key.hex()}"):
        Export.from_bytes(export.to_bytes(), table)
    assert len(table) == 0
    assert Export.from_bytes(export.to_bytes(inline=True), table) == export
    assert Export.from_bytes(export.to_bytes(), table) == export


def flood_template(occurrence):
    """An inline one-entry export at fn flood#0/op x#<occurrence> carrying None, built by hand."""
    raw = bytearray.fromhex("03" "00" "02" "00") + encoded("flood")
    write_uvarint(raw, occurrence << 2 | 1)
    return bytes(raw + encoded("x") + encoded(None))


def test_a_template_table_holds_its_capacity_and_interns_only_what_it_admits():
    table = TemplateTable()
    before = trie_size()
    refused = 0
    for occurrence in range(10_000):
        try:
            Export.from_bytes(flood_template(occurrence), table)
        except UnknownTemplateError as error:
            assert str(error) == f"template table full ({TEMPLATE_CAPACITY} templates)"
            refused += 1
    assert len(table) == TEMPLATE_CAPACITY
    assert refused == 10_000 - TEMPLATE_CAPACITY
    admitted_tokens = sum(node.depth for shape in table.values() for node in shape)
    assert trie_size() - before <= admitted_tokens
    flood = ROOT.children[(KIND_FUNCTION, "flood", 0)]
    assert sorted(key[2] for key in flood.children) == list(range(TEMPLATE_CAPACITY))
    # the first templates keep decoding; a refused one stays unknown
    assert len(Export.from_bytes(flood_template(0), table)) == 1
    with pytest.raises(UnknownTemplateError):
        Export.from_bytes(flood_template(TEMPLATE_CAPACITY), table)


def test_a_token_name_the_wire_cannot_carry_raises_encoding_error():
    engine = fresh()
    with activate(engine):
        aggregate_call(7, lambda: neighbors(1.0))
    _, export = engine.cooldown()
    for _ in range(2):  # a path that fails to encode is not cached, so it fails again
        with pytest.raises(EncodingError, match=r"token fn:7 has no wire form \(path: fn:7#0/op:"):
            export.to_bytes()


def test_a_value_with_no_wire_form_raises_encoding_error_naming_its_path():
    export = Export({intern_path((MAIN, ScopeToken(KIND_OPERATOR, "neighbors", 0))): object()})
    expected = r"value of type object has no wire form \(path: fn:main#0/op:neighbors#0\)$"
    with pytest.raises(EncodingError, match=expected):
        export.to_bytes()


def test_a_token_kind_with_no_wire_code_raises_encoding_error():
    export = Export({intern_path((MAIN, ScopeToken("loop", None, 0))): 1})
    expected = r"token loop:None has no wire form \(path: fn:main#0/loop#0\)"
    for _ in range(2):
        with pytest.raises(EncodingError, match=expected):
            export.to_bytes()


def deep_path(depth):
    return intern_path(ScopeToken(KIND_BRANCH_LEFT, None, 1) for _ in range(depth))


def test_a_path_at_the_depth_limit_round_trips():
    export = Export({deep_path(MAX_DEPTH): 1, deep_path(2): 2})
    decoded = round_trip(export)
    assert list(decoded.entries.items()) == list(export.entries.items())


def test_a_path_deeper_than_the_limit_does_not_encode():
    # no export can hold such a path, because no node for it can be made
    with pytest.raises(AlignmentError, match=r"exceeds limit of 128 \(path: left#1/left#1/") as caught:
        Export({deep_path(MAX_DEPTH + 1): 1})
    assert len(caught.value.path) == MAX_DEPTH + 1


def test_no_node_deeper_than_the_limit_is_ever_interned():
    engine = fresh()
    for _ in range(MAX_DEPTH):
        engine.enter(KIND_OPERATOR, "deep")
    with pytest.raises(AlignmentError):
        engine.enter(KIND_OPERATOR, "deeper")
    with pytest.raises(AlignmentError, match="alignment depth exceeds limit of 128"):
        intern_path([ScopeToken(KIND_BRANCH_RIGHT, None, 7)] * (MAX_DEPTH + 1))
    assert trie_depth() == MAX_DEPTH


@given(st.binary(max_size=64))
@example(bytes.fromhex("05020627"))
@example(bytes.fromhex("1109"))
@example(bytes.fromhex("0b08e60bed830279044f0309026034344d040637"))
@example(bytes.fromhex("0f0b070a0700000806fa044e04bf"))
@example(bytes.fromhex("00" "46a46638381d8f7b"))  # a reference to a template of no paths
def test_export_from_any_bytes_decodes_or_raises_encoding_error(raw):
    try:
        decoded = Export.from_bytes(raw, TemplateTable())
    except EncodingError:
        return
    assert isinstance(decoded, Export)


# -- interned paths -----------------------------------------------------------


def test_engines_running_the_same_calls_reach_the_same_node():
    def walk(engine):
        engine.enter(KIND_FUNCTION, "main")
        engine.enter(KIND_OPERATOR, "share")
        engine.exit()
        node = engine.enter(KIND_OPERATOR, "share")
        return node, engine.path

    first_node, first_path = walk(fresh(device_id=1))
    second_node, second_path = walk(fresh(device_id=2))
    assert first_node is second_node
    expected = path_of(("fn", "main", 0), ("op", "share", 1))
    assert first_path == second_path == expected
    assert type(first_path) is tuple and first_node.tokens == expected


def test_the_trie_stops_growing_once_a_fixed_program_has_run():
    from fieldcast.scenarios import SCENARIOS, ScenarioConfig
    from fieldcast.scenarios.base import build_simulator
    from fieldcast.scenarios.scr import make_program
    from fieldcast.simulator import aggregate_program_runner

    config = ScenarioConfig(scenario="scr", rows=4, cols=4, **SCENARIOS["scr"].defaults)
    simulator = build_simulator(config)
    program = make_program(0.15)
    for node in simulator.environment.node_list():
        simulator.schedule_event(0.0, aggregate_program_runner, simulator, config.dt, node, program)
    simulator.run(0.15)  # rounds at t = 0 and t = 0.1
    assert simulator.rounds_executed == 2 * 16
    after_two_rounds = trie_size()
    simulator.run(4.95)
    assert simulator.rounds_executed == 50 * 16
    assert trie_size() == after_two_rounds


def test_a_decoded_export_gives_the_same_field_as_the_export_itself():
    sender = fresh(device_id=1)
    sender.enter(KIND_FUNCTION, "main")
    sender.enter(KIND_BRANCH_LEFT)
    sender.send((1.5, "x"))
    sender.exit()
    sender.exit()
    _, export = sender.cooldown()

    def field_from(inbound):
        receiver = fresh(inbound={1: inbound}, device_id=0)
        receiver.enter(KIND_FUNCTION, "main")
        receiver.enter(KIND_BRANCH_LEFT)
        field = receiver.receive("own")
        receiver.exit()
        receiver.exit()
        return field.items()

    decoded = round_trip(export)
    assert list(decoded.entries) == list(export.entries)
    assert field_from(decoded) == field_from(export) == [(0, "own"), (1, (1.5, "x"))]


def test_depth_limit_error_names_the_rejected_path():
    engine = fresh()
    engine.enter(KIND_FUNCTION, "f")
    for _ in range(MAX_DEPTH - 1):
        engine.enter(KIND_BRANCH_RIGHT)
    parent = path_of(("fn", "f", 0), *[("right", None, 0)] * (MAX_DEPTH - 1))
    with pytest.raises(AlignmentError) as caught:
        engine.enter(KIND_OPERATOR, "share")
    assert caught.value.path == parent + path_of(("op", "share", 0))
    assert str(caught.value) == (
        "alignment depth exceeds limit of 128 (path: fn:f#0"
        + "/right#0" * (MAX_DEPTH - 1)
        + "/op:share#0)"
    )
    assert engine.path == parent
