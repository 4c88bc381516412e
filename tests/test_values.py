"""Wire encoding round-trips and edge cases."""

import math

import pytest
from hypothesis import example, given, strategies as st

from fieldcast.errors import EncodingError
from fieldcast.values import decode_value, encoded


def roundtrip(value):
    decoded, pos = decode_value(encoded(value))
    return decoded


def normalize(value):
    """What the wire hands back: sequences become tuples."""
    if isinstance(value, (list, tuple)):
        return tuple(normalize(v) for v in value)
    if isinstance(value, dict):
        return {normalize(k): normalize(v) for k, v in value.items()}
    return value


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.text(max_size=20),
)

trees = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.one_of(st.integers(), st.text(max_size=5)), children, max_size=4),
    ),
    max_leaves=20,
)


@given(trees)
def test_roundtrip_equals_normalized(value):
    assert roundtrip(value) == normalize(value)


@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=16))
def test_float_vectors_roundtrip(vector):
    assert roundtrip(tuple(vector)) == tuple(vector)


def test_special_floats():
    assert roundtrip(math.inf) == math.inf
    assert roundtrip(-math.inf) == -math.inf
    assert math.isnan(roundtrip(math.nan))


def test_sequences_decode_as_tuples():
    assert roundtrip([1, 2, [3]]) == (1, 2, (3,))


def test_vector_encoding_is_compact():
    vector = tuple(float(i) for i in range(8))
    generic = encoded([1] + list(vector))  # mixed types force the generic form
    assert len(encoded(vector)) < len(generic)


def test_unsupported_type_raises():
    with pytest.raises(EncodingError):
        encoded(object())


def test_deep_nesting_raises_encoding_error():
    nested = ()
    for _ in range(5000):
        nested = (nested,)
    with pytest.raises(EncodingError, match="nested too deeply"):
        encoded(nested)


def test_truncated_input_raises():
    raw = encoded("hello")
    with pytest.raises(EncodingError):
        decode_value(raw[:-1])


@given(st.binary(max_size=64))
@example(bytes.fromhex("0508e60bed830279044f0309026034344d040637"))  # invalid UTF-8
@example(bytes.fromhex("070b070a0700000806fa044e04bf"))  # unhashable map key
def test_decode_any_bytes_returns_a_value_or_raises_encoding_error(raw):
    try:
        decode_value(raw)
    except EncodingError:
        pass
