"""Neighborhood field semantics: fold order, extrema, pointwise operations."""

import math
import operator

import pytest
from hypothesis import given, strategies as st

from fieldcast import NeighborhoodField, foldhood
from fieldcast.errors import EmptyFieldError


def field(owner, mapping):
    return NeighborhoodField(owner, mapping)


def test_empty_fold_returns_initial():
    assert field(0, {}).fold(0, operator.add) == 0


def test_fold_sums_all_entries():
    f = field(0, {1: 2, 2: 3, 0: 5})
    assert foldhood(f, 0, operator.add) == 10


def test_fold_min_over_two():
    f = field(0, {3: 9, 7: 4})
    assert f.fold(math.inf, min) == 4


def test_fold_order_is_ascending_id():
    f = field(0, {2: "b", 0: "a", 7: "c"})
    assert f.fold("", operator.add) == "abc"


def test_extrema():
    f = field(0, {1: 2.0, 2: -1.0, 0: 0.0})
    assert f.min_value() == -1.0
    assert f.max_value() == 2.0


def test_extrema_singleton():
    assert field(0, {0: 5}).min_value() == 5


def test_extrema_on_empty_field_raise():
    lonely = field(0, {0: 1}).exclude_self()
    with pytest.raises(EmptyFieldError):
        lonely.min_value()
    with pytest.raises(EmptyFieldError):
        lonely.max_value()


def test_exclude_self():
    assert field(0, {0: 1}).exclude_self().items() == []
    f = field(0, {0: 1, 2: 9}).exclude_self()
    assert f.items() == [(2, 9)]
    assert f.owner == 0
    assert f.exclude_self().items() == f.items()  # idempotent


def test_zip_with_intersects_keys():
    a = field(0, {1: 1, 2: 2})
    b = field(0, {2: 10, 3: 3})
    assert a.zip_with(b, operator.add).items() == [(2, 12)]


def test_zip_with_identity_and_zero():
    a = field(0, {0: 1, 1: 2})
    assert a.zip_with(a, lambda x, _: x) == a
    zeros = a.zip_with(a, lambda *_: 0)
    assert all(v == 0 for _, v in zeros.items())


def test_map_values():
    assert field(0, {1: 2}).map_values(lambda v: v * 2).items() == [(1, 4)]
    assert field(0, {}).map_values(lambda v: v).items() == []


def test_merge_is_right_biased_union():
    a = field(0, {0: 1, 1: 1})
    b = field(0, {1: 2, 2: 2})
    assert a.merge(b).items() == [(0, 1), (1, 2), (2, 2)]


def test_arithmetic_helpers():
    a = field(0, {0: 1.0, 1: 2.0})
    b = field(0, {0: 10.0, 1: 20.0})
    assert (a + b).items() == [(0, 11.0), (1, 22.0)]
    assert (a * 2).items() == [(0, 2.0), (1, 4.0)]
    assert (b - a).items() == [(0, 9.0), (1, 18.0)]


ids_and_values = st.dictionaries(
    st.integers(min_value=0, max_value=50), st.integers(), min_size=1, max_size=8
)


@given(ids_and_values, st.permutations(range(8)))
def test_commutative_fold_invariant_under_insertion_order(mapping, order):
    items = list(mapping.items())
    shuffled = dict(sorted(items, key=lambda kv: order[items.index(kv) % 8]))
    owner = next(iter(mapping))
    assert field(owner, mapping).fold(0, operator.add) == field(owner, shuffled).fold(
        0, operator.add
    )


@given(ids_and_values)
def test_extrema_match_folds(mapping):
    owner = next(iter(mapping))
    f = field(owner, {k: float(v) for k, v in mapping.items()})
    assert f.min_value() == f.fold(math.inf, min)
    assert f.max_value() == f.fold(-math.inf, max)


@given(ids_and_values)
def test_map_then_fold_equals_fold_of_mapped_combine(mapping):
    owner = next(iter(mapping))
    f = field(owner, mapping)
    double = lambda v: v * 2
    assert f.map_values(double).fold(0, operator.add) == f.fold(
        0, lambda acc, v: acc + double(v)
    )


# -- ascending-id order from construction ----------------------------------------
#
# The reference below is the sort-on-access semantics: every accessor sorts the
# entries by id when called.  A field now orders its entries once, when it is
# built, and must read the same through every accessor and transform.


def reference_items(mapping):
    return sorted(mapping.items())


def reference_repr(owner, mapping):
    inner = ", ".join(f"{k}: {v!r}" for k, v in reference_items(mapping))
    return f"NeighborhoodField(owner={owner}, {{{inner}}})"


def shuffled(mapping, data):
    """``mapping`` with its entries inserted in an order Hypothesis picks."""
    return dict(data.draw(st.permutations(list(mapping.items()))))


def assert_reads_as(f, owner, mapping):
    items = reference_items(mapping)
    assert f.owner == owner
    assert f.ids() == [k for k, _ in items]
    assert f.items() == items
    assert f.values() == [v for _, v in items]
    assert list(f) == [k for k, _ in items]
    assert f.fold((), lambda acc, v: acc + (v,)) == tuple(v for _, v in items)
    assert repr(f) == reference_repr(owner, mapping)
    if items:
        assert f.min_value() == min(v for _, v in items)
        assert f.max_value() == max(v for _, v in items)


any_ids = st.dictionaries(st.integers(min_value=-5, max_value=40), st.integers(), max_size=10)


@given(any_ids, any_ids, st.integers(min_value=-5, max_value=40), st.data())
def test_every_accessor_and_transform_matches_the_sort_on_access_reference(
    left, right, owner, data
):
    left, right = shuffled(left, data), shuffled(right, data)
    a, b = field(owner, left), field(owner, right)
    assert_reads_as(a, owner, left)

    assert_reads_as(a.exclude_self(), owner, {k: v for k, v in left.items() if k != owner})
    assert_reads_as(a.map_values(lambda v: v * 3), owner, {k: v * 3 for k, v in left.items()})
    assert_reads_as(
        a.zip_with(b, lambda x, y: (x, y)),
        owner,
        {k: (v, right[k]) for k, v in left.items() if k in right},
    )
    assert_reads_as(a.merge(b), owner, {**left, **right})
    assert_reads_as(a - b, owner, {k: v - right[k] for k, v in left.items() if k in right})


@given(any_ids, st.integers(), st.data())
def test_mutating_the_dict_after_construction_leaves_the_field_unchanged(mapping, owner, data):
    mapping = shuffled(mapping, data)
    snapshot = dict(mapping)
    f = field(owner, mapping)
    mapping[max(mapping, default=0) + 1] = "added"
    mapping.pop(min(mapping))
    for key in mapping:
        mapping[key] = "changed"
    assert_reads_as(f, owner, snapshot)
