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

import json
import struct
import sys
from typing import Any, Union

INT_BITS = 64
INT_MIN = -(1 << (INT_BITS - 1))
INT_MAX = (1 << (INT_BITS - 1)) - 1
INT_MASK = (1 << INT_BITS) - 1

# Most digits a decimal integer literal may have, in a program or a tests
# file: CPython's default limit on converting text to an int.
MAX_INT_DIGITS = 4_300

FrozenValue = Union[int, float, bool, str, tuple]
Value = Union[int, float, bool, str, tuple, list]


class CyclicArray(ValueError):
    """An array contains itself, so it has no finite frozen or JSON form."""


def wrap_int(n: int) -> int:
    """Wrap an arbitrary Python int to two's-complement 64-bit."""
    return ((n - INT_MIN) & INT_MASK) + INT_MIN


def int_from_digits(text: str) -> int:
    """The int a decimal literal, with an optional leading ``-``, spells.

    A ValueError when it has more than MAX_INT_DIGITS digits.  The digits
    are converted in pieces no longer than CPython's threshold for its
    digit limit, which no ``PYTHONINTMAXSTRDIGITS`` can reject, so the
    outcome does not depend on the process's limit."""
    negative = text.startswith("-")
    digits = text[1:] if negative else text
    if len(digits) > MAX_INT_DIGITS:
        raise ValueError(f"integer literal has more than {MAX_INT_DIGITS} digits")
    piece = sys.int_info.str_digits_check_threshold
    value = 0
    for start in range(0, len(digits), piece):
        chunk = digits[start:start + piece]
        value = value * 10 ** len(chunk) + int(chunk)
    return -value if negative else value


def float_bits(x: float) -> bytes:
    return struct.pack(">d", x)


def float_from_bits(raw: bytes) -> float:
    return struct.unpack(">d", raw)[0]


def _is_array(v: Any) -> bool:
    return type(v) is list or type(v) is tuple


def _rebuild(root, leaf, node):
    """Map a nested array bottom-up without recursion: ``leaf`` maps each
    scalar and ``node`` each array's list of mapped items.  An array that
    contains itself has no finite image and raises CyclicArray."""
    on_path = {id(root)}
    stack = [(root, iter(root), [])]
    while True:
        array, items, mapped = stack[-1]
        for item in items:
            if type(item) is list or type(item) is tuple:
                if id(item) in on_path:
                    raise CyclicArray("array contains itself")
                on_path.add(id(item))
                stack.append((item, iter(item), []))
                break
            mapped.append(leaf(item))
        else:
            stack.pop()
            on_path.discard(id(array))
            if not stack:
                return node(mapped)
            stack[-1][2].append(node(mapped))


def _same(v: Any) -> Any:
    return v


def freeze(v: Any) -> FrozenValue:
    """Deep-freeze a runtime value: lists become tuples, scalars pass through."""
    if type(v) is not list and type(v) is not tuple:
        return v
    for item in v:
        if type(item) is list or type(item) is tuple:
            return _rebuild(v, _same, tuple)
    return tuple(v)


def thaw(v: Any) -> Value:
    """Deep-thaw a frozen value back into mutable runtime form."""
    if type(v) is not list and type(v) is not tuple:
        return v
    for item in v:
        if type(item) is list or type(item) is tuple:
            return _rebuild(v, _same, list)
    return list(v)


def values_equal(a: Any, b: Any) -> bool:
    """Structural, type-strict equality; floats compare by bit pattern."""
    ta, tb = type(a), type(b)
    if ta is not tb:
        # tuple-vs-list counts as the same array type
        if {ta, tb} == {list, tuple}:
            return _arrays_equal(a, b)
        return False
    if ta is float:
        return float_bits(a) == float_bits(b)
    if ta is list or ta is tuple:
        return _arrays_equal(a, b)
    return a == b


def _arrays_equal(a, b) -> bool:
    """Compare two arrays pair by pair off a stack, without recursion.
    A pair met again is taken as equal: it is either settled or still being
    compared, and any difference fails the whole comparison at once.  So
    arrays that contain themselves compare as their infinite unfoldings."""
    if len(a) != len(b):
        return False
    stack = [(a, b)]
    met = {(id(a), id(b))}
    while stack:
        x, y = stack.pop()
        for p, q in zip(x, y):
            tp, tq = type(p), type(q)
            if (tp is list or tp is tuple) and (tq is list or tq is tuple):
                if len(p) != len(q):
                    return False
                pair = (id(p), id(q))
                if pair not in met:
                    met.add(pair)
                    stack.append((p, q))
            elif tp is not tq:
                return False
            elif tp is float:
                if float_bits(p) != float_bits(q):
                    return False
            elif p != q:
                return False
    return True


def _scalar_to_json(v: Any) -> dict:
    t = type(v)
    if t is bool:
        return {"bool": v}
    if t is int:
        return {"int": v}
    if t is float:
        return {"float": "0x" + float_bits(v).hex()}
    if t is str:
        return {"str": v}
    raise TypeError(f"not a SLANG value: {v!r}")


def _array_to_json(items: list) -> dict:
    return {"array": items}


def value_to_json(v: Any) -> dict:
    """Encode a value as tagged JSON; floats as hex bit patterns."""
    if _is_array(v):
        return _rebuild(v, _scalar_to_json, _array_to_json)
    return _scalar_to_json(v)


def canonical_json(v: Any) -> str:
    """``value_to_json(v)`` as canonical JSON text (sorted keys, no
    whitespace), written without recursion: ``json.dumps`` recurses once per
    nesting level and fails on arrays a few thousand levels deep."""
    if not _is_array(v):
        return _dumps(_scalar_to_json(v))
    parts = ['{"array":[']
    on_path = {id(v)}
    stack = [(v, enumerate(v))]
    while stack:
        array, items = stack[-1]
        for i, item in items:
            if i:
                parts.append(",")
            if type(item) is list or type(item) is tuple:
                if id(item) in on_path:
                    raise CyclicArray("array contains itself")
                on_path.add(id(item))
                parts.append('{"array":[')
                stack.append((item, enumerate(item)))
                break
            parts.append(_dumps(_scalar_to_json(item)))
        else:
            stack.pop()
            on_path.discard(id(array))
            parts.append("]}")
    return "".join(parts)


def _dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


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
            raw = bytes.fromhex(payload[2:])
            if len(raw) == 8:
                return float_from_bits(raw)
        elif isinstance(payload, (int, float)) and not isinstance(payload, bool):
            try:
                return float(payload)
            except OverflowError:  # an integer beyond the largest double
                pass
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
