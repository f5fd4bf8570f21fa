"""The canonical encoding against the isinstance-chain encoder it replaced."""

import enum
import hashlib
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from portlogic.encoding import EncodingError, canon, digest
from portlogic.graphs import PortlogicError


def reference_canon(value) -> bytes:
    """The encoder ``canon`` was before its type dispatch, kept verbatim."""
    if value is None:
        return b"N;"
    if value is True:
        return b"B1;"
    if value is False:
        return b"B0;"
    if isinstance(value, int):
        return b"I" + str(value).encode("ascii") + b";"
    if isinstance(value, bytes):
        return b"Y" + str(len(value)).encode("ascii") + b":" + value
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return b"S" + str(len(raw)).encode("ascii") + b":" + raw
    if isinstance(value, (tuple, list)):
        parts = [reference_canon(item) for item in value]
        return b"T" + str(len(parts)).encode("ascii") + b":" + b"".join(parts)
    if isinstance(value, (set, frozenset)):
        parts = sorted(reference_canon(item) for item in value)
        return b"F" + str(len(parts)).encode("ascii") + b":" + b"".join(parts)
    raise TypeError(f"value of type {type(value).__name__} has no canonical encoding")


def outcome(encode, value):
    """The bytes, or the exception's type and message."""
    try:
        return encode(value)
    except Exception as exc:  # noqa: BLE001 - the exception is the result
        return type(exc), str(exc)


def assert_same(value):
    """``canon`` gives the reference's bytes or exception, except that where
    the reference raised a bare ``ValueError`` (an int with too many digits,
    text with no UTF-8 form) ``canon`` raises its one-line ``EncodingError``."""
    expected = outcome(reference_canon, value)
    actual = outcome(canon, value)
    if isinstance(expected, tuple) and issubclass(expected[0], ValueError):
        kind, message = actual
        assert kind is EncodingError
        assert issubclass(kind, PortlogicError) and issubclass(kind, ValueError)
        assert "\n" not in message
        return
    assert actual == expected
    if isinstance(expected, bytes):
        assert digest(value) == hashlib.blake2b(expected, digest_size=16).digest()


class Point(NamedTuple):
    x: int
    y: object


class Colour(enum.IntEnum):
    RED = 1
    HUGE = 10**20


class Name(str):
    pass


class Nickname(Name):  # two levels below str
    pass


class Count(int):
    pass


class Blob(bytes):
    pass


class Row(list):
    pass


class Bag(frozenset):
    pass


leaves = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**30), max_value=10**30)
    | st.binary(max_size=20)
    | st.text(max_size=12)
)
subclassed = (
    st.builds(Point, st.integers(), leaves)
    | st.sampled_from(list(Colour))
    | st.builds(Name, st.text(max_size=8))
)
hashable = st.recursive(
    leaves | subclassed,
    lambda inner: (
        st.tuples(inner, inner)
        | st.lists(inner, max_size=4).map(tuple)
        | st.frozensets(inner, max_size=4)
    ),
    max_leaves=12,
)
values = st.recursive(
    hashable,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.sets(hashable, max_size=4)
        | st.frozensets(hashable, max_size=4)
    ),
    max_leaves=20,
)


@settings(max_examples=200)
@given(values)
def test_canon_matches_the_isinstance_chain(value):
    assert_same(value)


@given(st.text(max_size=20), st.binary(max_size=20), st.integers(min_value=-(10**30), max_value=10**30))
def test_canon_matches_on_non_ascii_text_bytes_and_big_ints(text, raw, n):
    for value in (text, raw, n, (text, raw, n), [n, text], {raw, n}, frozenset({text})):
        assert_same(value)


@pytest.mark.parametrize(
    "value",
    [
        Point(1, "a"),
        (Point(2, (3, b"x")), [Point(0, None)]),
        frozenset({Point(1, 2), (1, 2)}),
        Colour.RED,
        (Colour.HUGE, Colour.RED, 1),
        Name("héllo"),
        [Name("a"), "a"],
        Nickname("ok"),
        (Count(7), Blob(b"\x00"), Row([Count(-1)]), Bag({Count(2), 3})),
        Row([Bag(), Blob()]),
        "é中\U0001f600",
        "\ud800",  # a lone surrogate has no UTF-8 encoding
    ],
)
def test_canon_matches_on_subclasses(value):
    assert_same(value)


@pytest.mark.parametrize(
    "value",
    [1.5, object(), {"a": 1}, 10**5000, (1, 10**5000), [b"x", 1.5], frozenset({1.5}), ((), {1: 2})],
    # 10**5000 has too many digits for the default ids (and for ``str``)
    ids=["float", "object", "dict", "huge_int", "huge_int_member", "float_member", "float_in_set", "dict_member"],
)
def test_canon_refuses_exactly_what_the_isinstance_chain_refused(value):
    assert not isinstance(outcome(reference_canon, value), bytes)
    assert_same(value)


def test_equal_encodings_follow_the_documented_shapes():
    assert canon([1, 2]) == canon((1, 2))
    assert canon({1, 2}) == canon(frozenset({2, 1}))
    assert canon(True) != canon(1) and True == 1
    assert canon(Point(1, 2)) == canon((1, 2))
    assert canon(Colour.RED) == canon(1)
    assert canon(Name("a")) == canon("a")


def test_an_int_subclass_encodes_its_value_not_its_text():
    # the isinstance chain wrote str(value); the base shape is the number
    class Loud(int):
        def __str__(self):
            return "loud"

    assert canon(Loud(5)) == canon(5) == b"I5;"
    assert reference_canon(Loud(5)) == b"Iloud;"
