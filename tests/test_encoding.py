"""The canonical encoding's wire format, stated as exact bytes, and the
values it refuses."""

import enum
import hashlib
from typing import NamedTuple

import pytest

from portlogic.encoding import EncodingError, canon, digest
from portlogic.graphs import PortlogicError


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


def test_canon_writes_every_tag_inside_a_tuple():
    # str lengths count UTF-8 bytes, True is not 1, None keeps its ";",
    # a list is a T, set members are sorted
    value = ("é", True, None, b"x", 5, [2], frozenset({3, 1}))
    expected = b"T7:S2:\xc3\xa9B1;N;Y1:xI5;T1:I2;F2:I1;I3;"
    assert canon(value) == expected
    assert digest(value) == hashlib.blake2b(expected, digest_size=16).digest()


@pytest.mark.parametrize(
    "value, expected",
    [
        (None, b"N;"),
        (True, b"B1;"),
        (False, b"B0;"),
        (0, b"I0;"),
        (-12, b"I-12;"),
        (10**20, b"I100000000000000000000;"),
        ("", b"S0:"),
        ("é中\U0001f600", b"S9:\xc3\xa9\xe4\xb8\xad\xf0\x9f\x98\x80"),
        (b"", b"Y0:"),
        (b"a;b", b"Y3:a;b"),
        ((), b"T0:"),
        ([], b"T0:"),
        ([b"\x00", -1, False], b"T3:Y1:\x00I-1;B0;"),
        (((1,), [None, "a"]), b"T2:T1:I1;T2:N;S1:a"),
        (set(), b"F0:"),
        # members sort by their encodings, so I10; comes before I9;
        ({9, 10}, b"F2:I10;I9;"),
        (frozenset({"b", b"a", 10, (False,)}), b"F4:I10;S1:bT1:B0;Y1:a"),
    ],
    ids=[
        "none",
        "true",
        "false",
        "zero",
        "negative_int",
        "long_int",
        "empty_str",
        "non_ascii_str",
        "empty_bytes",
        "bytes",
        "empty_tuple",
        "empty_list",
        "list",
        "nested",
        "empty_set",
        "int_set",
        "mixed_frozenset",
    ],
)
def test_canon_writes_the_documented_bytes(value, expected):
    assert canon(value) == expected


@pytest.mark.parametrize(
    "value, expected",
    [
        (Point(1, "a"), b"T2:I1;S1:a"),
        ((Point(2, (3, b"x")), [Point(0, None)]), b"T2:T2:I2;T2:I3;Y1:xT1:T2:I0;N;"),
        # Point(1, 2) == (1, 2), so the set has one member
        (frozenset({Point(1, 2), (1, 2)}), b"F1:T2:I1;I2;"),
        (Colour.RED, b"I1;"),
        ((Colour.HUGE, Colour.RED, 1), b"T3:I100000000000000000000;I1;I1;"),
        (Name("héllo"), b"S6:h\xc3\xa9llo"),
        ([Name("a"), "a"], b"T2:S1:aS1:a"),
        (Nickname("ok"), b"S2:ok"),
        ((Count(7), Blob(b"\x00"), Row([Count(-1)]), Bag({Count(2), 3})), b"T4:I7;Y1:\x00T1:I-1;F2:I2;I3;"),
        (Row([Bag(), Blob()]), b"T2:F0:Y0:"),
    ],
    ids=[
        "namedtuple",
        "nested_namedtuple",
        "namedtuple_in_set",
        "intenum",
        "intenum_members",
        "str",
        "str_in_list",
        "str_twice",
        "int_bytes_list_frozenset",
        "empty_frozenset_and_bytes",
    ],
)
def test_canon_encodes_a_subclass_as_its_base_shape(value, expected):
    assert canon(value) == expected


@pytest.mark.parametrize(
    "value, error",
    [
        (1.5, TypeError),
        (object(), TypeError),
        ({"a": 1}, TypeError),
        ([b"x", 1.5], TypeError),
        (frozenset({1.5}), TypeError),
        (((), {1: 2}), TypeError),
        # 10**5000 has too many digits for str, and a lone surrogate has no UTF-8 form
        (10**5000, EncodingError),
        ((10**5000,), EncodingError),
        ([1, 10**5000], EncodingError),
        ({10**5000}, EncodingError),
        ("\ud800", EncodingError),
        (("\ud800",), EncodingError),
    ],
    ids=[
        "float",
        "object",
        "dict",
        "float_member",
        "float_in_set",
        "dict_member",
        "huge_int",
        "huge_int_in_tuple",
        "huge_int_in_list",
        "huge_int_in_set",
        "surrogate",
        "surrogate_in_tuple",
    ],
)
def test_canon_refuses_values_outside_the_wire_format(value, error):
    with pytest.raises(error) as caught:
        canon(value)
    if error is EncodingError:
        assert isinstance(caught.value, PortlogicError) and isinstance(caught.value, ValueError)
        assert "\n" not in str(caught.value)
    else:
        assert str(caught.value).endswith("has no canonical encoding")


def test_equal_encodings_follow_the_documented_shapes():
    assert canon([1, 2]) == canon((1, 2))
    assert canon({1, 2}) == canon(frozenset({2, 1}))
    assert canon(True) != canon(1) and True == 1
    assert canon(Point(1, 2)) == canon((1, 2))
    assert canon(Colour.RED) == canon(1)
    assert canon(Name("a")) == canon("a")


def test_an_int_subclass_encodes_its_value_not_its_text():
    class Loud(int):
        def __str__(self):
            return "loud"

    assert canon(Loud(5)) == canon(5) == b"I5;"
