"""Canonical byte encoding for states, messages and certificates.

Every state and message handled by the executor must admit a canonical,
platform-stable byte encoding.  The encoding below is a small tag-length-value
scheme over the value shapes the toolkit actually uses: ``N`` for None, ``B``
for booleans, ``I`` for ints, ``S`` for strings (UTF-8), ``Y`` for bytes,
``T`` for tuples and lists, ``F`` for sets and frozensets.  Two values encode
equal exactly when they have the same shape and equal contents, where:

* lists and tuples share ``T``, so ``[1, 2]`` and ``(1, 2)`` encode equal;
* sets and frozensets share ``F``, and members are encoded in sorted order,
  so the encoding never depends on iteration order or hash randomisation;
* ``True`` and ``1`` differ (``B1;`` against ``I1;``), although ``True == 1``;
* a subclass encodes as its base shape: a ``NamedTuple`` as the tuple of its
  fields, an ``IntEnum`` member as its int, a ``str`` subclass as its text.

The lexicographic order on encodings serves as the fixed total message order
used when multisets have to be realised as vectors.
"""

from __future__ import annotations

import hashlib

from .graphs import PortlogicError

__all__ = ["canon", "digest", "EncodingError"]


class EncodingError(PortlogicError, ValueError):
    """An int too long to print, or a str with no UTF-8 form (a surrogate)."""


# The wire format: one template per tag, shared by the encoders below and
# by the fast path for tuples in ``canon``.
_INT = b"I%d;"
_STR = b"S%d:%b"
_BYTES = b"Y%d:%b"
_SEQUENCE = b"T%d:%b"
_SET = b"F%d:%b"


def _encode_int(value) -> bytes:
    try:
        return _INT % value
    except ValueError as exc:
        raise EncodingError(f"int has no canonical encoding: {exc}") from None


def _encode_str(value) -> bytes:
    try:
        raw = value.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise EncodingError(f"str has no canonical encoding: {exc}") from None
    return _STR % (len(raw), raw)


def _encode_sequence(value) -> bytes:
    parts = [canon(item) for item in value]
    return _SEQUENCE % (len(parts), b"".join(parts))


def _encode_set(value) -> bytes:
    parts = sorted([canon(item) for item in value])
    return _SET % (len(parts), b"".join(parts))


# Keyed by exact type; a subclass takes the entry of its nearest base in the
# table.  No class can subclass two of these shapes (their layouts conflict),
# so the nearest base is the only one.
_BY_TYPE = {
    type(None): lambda value: b"N;",
    bool: lambda value: b"B1;" if value else b"B0;",
    int: _encode_int,
    str: _encode_str,
    bytes: lambda value: _BYTES % (len(value), value),
    tuple: _encode_sequence,
    list: _encode_sequence,
    set: _encode_set,
    frozenset: _encode_set,
}


def canon(value) -> bytes:
    """Canonical byte encoding of ``value``.

    Supported shapes: None, bool, int, str, bytes, tuple/list, set/frozenset,
    and their subclasses.  Raises ``TypeError`` for any other value, and
    ``EncodingError`` for a value of these shapes that has no encoding.
    """
    kind = type(value)
    if kind is tuple:
        # ints and bytes (ports, degrees, digests) are most of the members;
        # encoding them here, not through a call, saves about a quarter of
        # the encoding time of a collapse sweep
        parts = []
        for item in value:
            member = type(item)
            if member is int:
                try:
                    parts.append(_INT % item)
                except ValueError as exc:
                    raise EncodingError(f"int has no canonical encoding: {exc}") from None
            elif member is bytes:
                parts.append(_BYTES % (len(item), item))
            else:
                parts.append(canon(item))
        return _SEQUENCE % (len(parts), b"".join(parts))
    encode = _BY_TYPE.get(kind)
    if encode is None:
        for base in kind.__mro__:
            encode = _BY_TYPE.get(base)
            if encode is not None:
                break
        else:
            raise TypeError(f"value of type {kind.__name__} has no canonical encoding")
    return encode(value)


def digest(value) -> bytes:
    """16-byte structural digest of ``value`` (blake2b over ``canon``)."""
    return hashlib.blake2b(canon(value), digest_size=16).digest()
