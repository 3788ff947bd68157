"""Runtime values for SLANG and their canonical, text-free encoding.

Values are plain Python objects: int, float, bool, str, and list (mutable,
only while a program is running).  At every observation boundary (prints,
returned results, expectations) arrays are frozen to tuples so the recorded
value can never be mutated afterwards.

Two rules matter everywhere downstream:

* equality is structural and type-strict (``1 != 1.0 != True``), and
* float equality is bit-pattern equality, so ``+inf``, ``-inf`` and NaN are
  ordinary, comparable tokens and ``0.0 != -0.0``.

Nothing in this module ever compares printed representations; the JSON
encoding keeps floats as hex bit patterns for the same reason.
"""

from __future__ import annotations

import struct
from typing import Any, Union

INT_BITS = 64
INT_MIN = -(1 << (INT_BITS - 1))
INT_MAX = (1 << (INT_BITS - 1)) - 1
INT_MASK = (1 << INT_BITS) - 1

FrozenValue = Union[int, float, bool, str, tuple]
Value = Union[int, float, bool, str, tuple, list]


def wrap_int(n: int) -> int:
    """Wrap an arbitrary Python int to two's-complement 64-bit."""
    return ((n - INT_MIN) & INT_MASK) + INT_MIN


def float_bits(x: float) -> bytes:
    return struct.pack(">d", x)


def float_from_bits(raw: bytes) -> float:
    return struct.unpack(">d", raw)[0]


def freeze(v: Any) -> FrozenValue:
    """Deep-freeze a runtime value: lists become tuples, scalars pass through."""
    if type(v) is list or type(v) is tuple:
        # A list comprehension, not a generator: recursion through Python
        # frames only, which on CPython 3.11+ takes no C stack, so a raised
        # recursion limit is safe.
        return tuple([freeze(item) for item in v])
    return v


def thaw(v: Any) -> Value:
    """Deep-thaw a frozen value back into mutable runtime form."""
    if type(v) is list or type(v) is tuple:
        return [thaw(item) for item in v]
    return v


def values_equal(a: Any, b: Any) -> bool:
    """Structural, type-strict equality; floats compare by bit pattern."""
    ta, tb = type(a), type(b)
    if ta is not tb:
        # tuple-vs-list counts as the same array type
        if {ta, tb} == {list, tuple}:
            return _seq_equal(a, b)
        return False
    if ta is float:
        return float_bits(a) == float_bits(b)
    if ta is list or ta is tuple:
        return _seq_equal(a, b)
    return a == b


def _seq_equal(a, b) -> bool:
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):  # a loop, not all(...): see freeze
        if not values_equal(x, y):
            return False
    return True


def value_to_json(v: Any) -> dict:
    """Encode a value as tagged JSON; floats as hex bit patterns."""
    t = type(v)
    if t is bool:
        return {"bool": v}
    if t is int:
        return {"int": v}
    if t is float:
        return {"float": "0x" + float_bits(v).hex()}
    if t is str:
        return {"str": v}
    if t is list or t is tuple:
        return {"array": [value_to_json(item) for item in v]}
    raise TypeError(f"not a SLANG value: {v!r}")


def value_from_json(obj: Any) -> FrozenValue:
    """Decode tagged JSON produced by value_to_json (also accepts it in files)."""
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValueError(f"malformed value literal: {obj!r}")
    (tag, payload), = obj.items()
    if tag == "int":
        if not isinstance(payload, int) or isinstance(payload, bool):
            raise ValueError(f"bad int literal: {payload!r}")
        return wrap_int(payload)
    if tag == "float":
        if isinstance(payload, str) and payload.startswith("0x"):
            return float_from_bits(bytes.fromhex(payload[2:]))
        if isinstance(payload, (int, float)) and not isinstance(payload, bool):
            return float(payload)
        raise ValueError(f"bad float literal: {payload!r}")
    if tag == "bool":
        if not isinstance(payload, bool):
            raise ValueError(f"bad bool literal: {payload!r}")
        return payload
    if tag == "str":
        if not isinstance(payload, str):
            raise ValueError(f"bad str literal: {payload!r}")
        return payload
    if tag == "array":
        if not isinstance(payload, list):
            raise ValueError(f"bad array literal: {payload!r}")
        return tuple(value_from_json(item) for item in payload)
    raise ValueError(f"unknown value tag: {tag!r}")
