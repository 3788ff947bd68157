import json
import math
import random

import pytest

from reducto.values import (
    CyclicArray,
    canonical_json,
    float_bits,
    freeze,
    thaw,
    value_from_json,
    value_to_json,
    values_equal,
    wrap_int,
)


def test_equality_is_type_strict():
    assert not values_equal(1, 1.0)
    assert not values_equal(1, True)
    assert not values_equal(0, False)
    assert not values_equal("1", 1)
    assert values_equal(1, 1)
    assert values_equal("ab", "ab")


def test_float_equality_is_bit_pattern():
    assert values_equal(float("inf"), float("inf"))
    assert not values_equal(float("inf"), float("-inf"))
    assert values_equal(float("nan"), float("nan"))  # same canonical bits
    assert not values_equal(0.0, -0.0)
    assert values_equal(1.5, 1.5)


def test_array_equality_structural():
    assert values_equal((1, (2, 3)), (1, (2, 3)))
    assert values_equal([1, 2], (1, 2))  # list/tuple are the same array type
    assert not values_equal((1, 2), (1, 2, 3))
    assert not values_equal((1.0,), (1,))


def test_wrap_int_two_complement():
    assert wrap_int(2**63) == -(2**63)
    assert wrap_int(-(2**63) - 1) == 2**63 - 1
    assert wrap_int(2**63 - 1) == 2**63 - 1
    assert wrap_int(-5) == -5
    assert wrap_int((2**62) * 4 + 7) == 7


def test_freeze_and_thaw_round_trip():
    v = [1, [2.5, "x"], True]
    frozen = freeze(v)
    assert frozen == (1, (2.5, "x"), True)
    thawed = thaw(frozen)
    assert thawed == [1, [2.5, "x"], True]
    thawed[1][0] = 9.0
    assert frozen[1][0] == 2.5  # freezing detaches storage


@pytest.mark.parametrize(
    "value",
    [0, 1, -(2**63), 2**63 - 1, True, False, "line\nbreak", "",
     1.5, -0.0, float("inf"), float("-inf"), float("nan"),
     (1, (2, "x"), (True, 0.5))],
)
def test_tagged_json_round_trip(value):
    encoded = value_to_json(value)
    decoded = value_from_json(encoded)
    assert values_equal(decoded, value)
    assert type(decoded) is type(value) or (type(value) is tuple and type(decoded) is tuple)
    assert canonical_json(value) == json.dumps(encoded, sort_keys=True, separators=(",", ":"))


def _nested(depth: int, leaf, wrap):
    value = leaf
    for _ in range(depth):
        value = wrap(value)
    return value


def _chain(value) -> tuple:
    """(depth, array type at every level, innermost array) of a chain of
    one-item arrays; Python's own ``==`` would recurse through it."""
    depth, types = 0, set()
    while len(value) == 1 and type(value[0]) in (list, tuple):
        depth, value = depth + 1, value[0]
        types.add(type(value))
    return depth, types, value


@pytest.mark.parametrize("depth", [2_000, 5_000, 50_000])
def test_deep_arrays_need_no_recursion(depth):
    deep = _nested(depth, [1.5], lambda v: [v])
    frozen = freeze(deep)
    assert _chain(frozen) == (depth, {tuple}, (1.5,))
    assert _chain(thaw(frozen)) == (depth, {list}, [1.5])
    assert values_equal(deep, frozen)
    assert not values_equal(deep, _nested(depth, (-1.5,), lambda v: (v,)))
    assert not values_equal(deep, _nested(depth - 1, (1.5,), lambda v: (v,)))
    encoded = value_to_json(deep)
    for _ in range(depth):
        (encoded,) = encoded["array"]
    assert encoded == {"array": [value_to_json(1.5)]}
    text = '{"array":[' * (depth + 1) + canonical_json(1.5) + "]}" * (depth + 1)
    assert canonical_json(deep) == text


def test_arrays_that_contain_themselves():
    a = [0]
    a[0] = a
    b = [[0]]
    b[0][0] = b
    assert values_equal(a, a)
    assert values_equal(a, b)  # both unfold to [[[...]]]
    assert not values_equal(a, [[1]])
    for observe in (freeze, value_to_json, canonical_json):
        with pytest.raises(CyclicArray):
            observe([1, a])


def test_float_json_uses_bit_pattern():
    encoded = value_to_json(float("nan"))
    assert encoded == {"float": "0x" + float_bits(float("nan")).hex()}
    # `{"float": 1.5}` plain-number form is accepted when reading files
    assert value_from_json({"float": 1.5}) == 1.5


def test_malformed_literals_rejected():
    for bad in ({"int": "3"}, {"bool": 1}, {"str": 5}, {"array": 3},
                {"int": 3, "bool": True}, "plain", {"what": 1}, {"undefined": True}):
        with pytest.raises(ValueError):
            value_from_json(bad)


@pytest.mark.parametrize(
    "payload", [10**400, -(10**400), "0x00", "0x" + "00" * 9, True],
    ids=["1e400", "-1e400", "one_byte", "nine_bytes", "bool"],
)
def test_float_literal_no_double_holds_is_a_value_error(payload):
    with pytest.raises(ValueError, match="bad float literal"):
        value_from_json({"float": payload})


def test_the_largest_integer_a_double_holds_is_a_float_literal():
    assert value_from_json({"float": int(1.7976931348623157e308)}) == 1.7976931348623157e308


def _arrays(value):
    """Every array in ``value``, itself included."""
    found, stack = [], [value]
    while stack:
        item = stack.pop()
        if type(item) is list or type(item) is tuple:
            found.append(item)
            stack += item
    return found


@pytest.mark.parametrize(
    "value", [(), [], (1, 2.5, "x"), [1, 2.5, "x"], ((1,), (2, (3,))), [[1], (2, [3])]]
)
def test_thaw_builds_fresh_lists_all_the_way_down(value):
    before = freeze(value)
    thawed = thaw(value)
    assert values_equal(thawed, value)
    assert all(type(array) is list for array in _arrays(thawed))
    assert not {id(a) for a in _arrays(thawed)} & {id(a) for a in _arrays(value)}
    for array in _arrays(thawed):
        array.append(0)
    assert freeze(value) == before


def test_value_equality_fuzz_reflexive_symmetric():
    rng = random.Random(7)

    def make(depth=0):
        kind = rng.randrange(6 if depth < 2 else 5)
        if kind == 0:
            return rng.randint(-10, 10)
        if kind == 1:
            return rng.choice([0.5, -0.0, 0.0, float("inf"), math.pi])
        if kind == 2:
            return rng.random() < 0.5
        if kind == 3:
            return rng.choice(["", "a", "bc"])
        if kind == 4:
            return rng.choice(["x", 3, 2.5])
        return tuple(make(depth + 1) for _ in range(rng.randrange(3)))

    for _ in range(500):
        a, b = make(), make()
        assert values_equal(a, a)
        assert values_equal(a, b) == values_equal(b, a)
        enc = value_to_json(a)
        assert values_equal(value_from_json(enc), a)
        assert canonical_json(a) == json.dumps(enc, sort_keys=True, separators=(",", ":"))
