"""Self-describing binary encoding for values that cross the node boundary.

Exports leave a node as opaque byte strings in deployments, so every value a
program may hand to the exchange operators has to fit a small tagged wire
form: null, bool, int, real, string, sequence, map, and a compact vector of
reals. Sequences decode as tuples so round-tripped values stay hashable and
usable as map keys.

An export codes its values with this encoding after its template block or
template key (`fieldcast.engine.Export`).  The in-process simulator passes
`Export` objects by reference and only encodes when byte accounting is
requested, under each node's template policy; values are treated as immutable
once sent either way.
"""

from __future__ import annotations

import struct
from typing import Any

from .errors import EncodingError

_TAG_NULL = 0x00
_TAG_FALSE = 0x01
_TAG_TRUE = 0x02
_TAG_INT = 0x03
_TAG_REAL = 0x04
_TAG_STR = 0x05
_TAG_SEQ = 0x06
_TAG_MAP = 0x07
_TAG_VEC = 0x08

_REAL = struct.Struct(">d")

# Exports no longer carry unchanged-markers; the name stays for tools that count them.
UNCHANGED = object()


def write_uvarint(out: bytearray, n: int) -> None:
    if n < 0:
        raise EncodingError("uvarint cannot encode negative numbers")
    while True:
        byte = n & 0x7F
        n >>= 7
        if n:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def read_uvarint(buf: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(buf):
            raise EncodingError("truncated varint")
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def _zigzag(n: int) -> int:
    return n * 2 if n >= 0 else -n * 2 - 1


def _unzigzag(n: int) -> int:
    return n // 2 if n % 2 == 0 else -(n + 1) // 2


def encode_value(value: Any, out: bytearray) -> None:
    """Append the wire form of ``value`` to ``out``, or raise `EncodingError`."""
    try:
        _encode(value, out)
    except RecursionError:
        raise EncodingError("value nested too deeply") from None


def _encode(value: Any, out: bytearray) -> None:
    if value is None:
        out.append(_TAG_NULL)
    elif value is True:
        out.append(_TAG_TRUE)
    elif value is False:
        out.append(_TAG_FALSE)
    elif isinstance(value, int):
        out.append(_TAG_INT)
        write_uvarint(out, _zigzag(value))
    elif isinstance(value, float):
        out.append(_TAG_REAL)
        out += _REAL.pack(value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(_TAG_STR)
        write_uvarint(out, len(raw))
        out += raw
    elif isinstance(value, (tuple, list)):
        if value and all(type(item) is float for item in value):
            out.append(_TAG_VEC)
            write_uvarint(out, len(value))
            for item in value:
                out += _REAL.pack(item)
        else:
            out.append(_TAG_SEQ)
            write_uvarint(out, len(value))
            for item in value:
                _encode(item, out)
    elif isinstance(value, dict):
        out.append(_TAG_MAP)
        write_uvarint(out, len(value))
        for key, item in value.items():
            _encode(key, out)
            _encode(item, out)
    else:
        raise EncodingError(f"value of type {type(value).__name__} has no wire form")


def decode_value(buf: bytes, pos: int = 0) -> tuple[Any, int]:
    """Decode the value at ``pos`` into (value, next position), or raise `EncodingError`."""
    try:
        return _decode(buf, pos)
    except RecursionError:
        raise EncodingError("value nested too deeply") from None


def _decode(buf: bytes, pos: int) -> tuple[Any, int]:
    if pos >= len(buf):
        raise EncodingError("truncated value")
    tag = buf[pos]
    pos += 1
    if tag == _TAG_NULL:
        return None, pos
    if tag == _TAG_TRUE:
        return True, pos
    if tag == _TAG_FALSE:
        return False, pos
    if tag == _TAG_INT:
        raw, pos = read_uvarint(buf, pos)
        return _unzigzag(raw), pos
    if tag == _TAG_REAL:
        if pos + 8 > len(buf):
            raise EncodingError("truncated real")
        return _REAL.unpack_from(buf, pos)[0], pos + 8
    if tag == _TAG_STR:
        length, pos = read_uvarint(buf, pos)
        if pos + length > len(buf):
            raise EncodingError("truncated string")
        try:
            return buf[pos : pos + length].decode("utf-8"), pos + length
        except UnicodeDecodeError as error:
            raise EncodingError(f"invalid UTF-8 in string: {error.reason}") from None
    if tag == _TAG_SEQ:
        count, pos = read_uvarint(buf, pos)
        items = []
        for _ in range(count):
            item, pos = _decode(buf, pos)
            items.append(item)
        return tuple(items), pos
    if tag == _TAG_VEC:
        count, pos = read_uvarint(buf, pos)
        if pos + 8 * count > len(buf):
            raise EncodingError("truncated real vector")
        items = struct.unpack_from(f">{count}d", buf, pos)
        return tuple(items), pos + 8 * count
    if tag == _TAG_MAP:
        count, pos = read_uvarint(buf, pos)
        mapping = {}
        for _ in range(count):
            key, pos = _decode(buf, pos)
            item, pos = _decode(buf, pos)
            try:
                mapping[key] = item
            except TypeError:
                raise EncodingError(f"unhashable map key {key!r}") from None
        return mapping, pos
    raise EncodingError(f"unknown wire tag 0x{tag:02x}")


def encoded(value: Any) -> bytes:
    out = bytearray()
    encode_value(value, out)
    return bytes(out)
