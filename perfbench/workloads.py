"""The benchmark's three workloads and the inputs each one loads.

``lattice`` is the shipped 13-bundle corpus.  ``terminating`` is the nine
shipped bundles in which no execution ever exceeds the step budget.
``long_tests`` keeps those nine programs byte for byte and the tests of
their buggy function as shipped, and replaces every test of an unrelated
library function by a seeded test with large inputs whose expectation
comes from a Python oracle below, not from the interpreter.  Only
``long_tests`` depends on the seed.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

WORKLOADS = ("lattice", "terminating", "long_tests")

# Shipped bundles with no budget-exceeded execution anywhere in the
# pipeline; their buggy functions have no loops.
TERMINATING = (
    "b02_last_of",
    "b04_rate_of",
    "b06_scale_ratio",
    "b07_bonus_amount",
    "b08_any_pos",
    "b09_rect_area",
    "b11_clamp_to",
    "b12_perimeter_of",
    "b13_element_at",
)

# Loop trip counts and array lengths of the generated long tests.  Each
# loop iteration costs 4-6 interpreter steps, so a long test with a loop runs
# about 250 to 1,450 steps (at most 161 on ``terminating``), far below the 100k
# budget, and execution takes most of a pass.  Larger sizes would lengthen
# a pass past the half of a 20 s run that two passes each get.
LONG_SIZE = (60, 240)
BIG = 10**9  # magnitude of array elements
HUGE = 2**62  # magnitude of scalar arguments of loop-free functions


# ---------------------------------------------------------------------------
# Oracles: SLANG semantics of the library functions, written in Python.
# Integers are 64-bit two's complement; wrapping after every operation
# equals wrapping once at the end, because reduction mod 2**64 commutes
# with + and *.

def _wrap(n: int) -> int:
    return ((n + 2**63) % 2**64) - 2**63


def _trunc_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _fib(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, (a + b) % 2**64
    return _wrap(a)


def _gcd(a: int, b: int) -> int:
    while b != 0:
        a, b = b, a % b
    return a


def _oracle(fn: str, args: tuple):
    """(expect kind, payload) of one call on the unmodified library."""
    if fn == "sum_to":
        (n,) = args
        return "value", _wrap(n * (n + 1) // 2) if n >= 1 else 0
    if fn == "is_even":
        return "value", args[0] % 2 == 0
    if fn == "abs_of":
        return "value", abs(args[0])
    if fn == "gcd_of":
        return "value", _gcd(*args)
    if fn == "fib_at":
        return "value", _fib(args[0])
    if fn == "count_pos":
        return "value", sum(1 for x in args[0] if x > 0)
    if fn == "sum_arr":
        return "value", _wrap(sum(args[0]))
    if fn == "max_arr":
        return "value", max(args[0])
    if fn == "pow_int":
        base, e = args
        return "value", _wrap(base**e)
    if fn == "sign_of":
        x = args[0]
        return "value", (x > 0) - (x < 0)
    if fn == "div_exact":
        a, b = args
        if b == 0:
            return "error", "DivByZero"
        return "value", _trunc_div(a, b)
    if fn == "echo_pair":
        return "output", list(args)
    if fn == "dot_of":
        xs, ys = args
        return "value", _wrap(sum(x * y for x, y in zip(xs, ys)))
    if fn == "repeat_join":
        s, k = args
        return "value", s * k
    raise ValueError(f"no oracle for {fn}")


def _long_args(fn: str, size: int, rng: random.Random) -> tuple:
    """Arguments of one long test whose loops run about ``size`` times."""

    def array(n):
        return [rng.randint(-BIG, BIG) for _ in range(n)]

    if fn in ("sum_to", "fib_at"):
        return (size,)
    if fn in ("is_even", "abs_of", "sign_of"):
        return (rng.randint(-HUGE, HUGE),)
    if fn == "gcd_of":
        # consecutive Fibonacci numbers are Euclid's worst case
        k = 60 + size * 30 // LONG_SIZE[1]
        return (_fib(k + 1), _fib(k))
    if fn in ("count_pos", "sum_arr", "max_arr"):
        return (array(size),)
    if fn == "pow_int":
        return (rng.randint(-7, 7), size)
    if fn == "div_exact":
        divisor = 0 if rng.random() < 0.15 else rng.choice([-1, 1]) * rng.randint(1, HUGE)
        return (rng.randint(-HUGE, HUGE), divisor)
    if fn == "echo_pair":
        return (rng.randint(-HUGE, HUGE), rng.randint(-HUGE, HUGE))
    if fn == "dot_of":
        return (array(size), array(size))
    if fn == "repeat_join":
        return (rng.choice(["ab", "z", "q-", "xy"]), size)
    raise ValueError(f"no sampler for {fn}")


def _sizes(count: int, rng: random.Random) -> list[int]:
    """``count`` sizes spread evenly over LONG_SIZE, in seeded order.

    The seed picks the order and the values, not the sizes, so every seed
    gives a pass of about the same number of interpreter steps.
    """
    lo, hi = LONG_SIZE
    sizes = [lo + (hi - lo) * i // max(count - 1, 1) for i in range(count)]
    rng.shuffle(sizes)
    return sizes


def _to_json(v):
    if type(v) is bool:
        return {"bool": v}
    if type(v) is int:
        return {"int": v}
    if type(v) is str:
        return {"str": v}
    if type(v) in (list, tuple):
        return {"array": [_to_json(x) for x in v]}
    raise TypeError(v)


def _buggy_function(program_text: str, bug_line: int) -> str:
    """Name of the function whose body holds the ground-truth bug line."""
    name = None
    for number, line in enumerate(program_text.split("\n"), start=1):
        match = re.match(r"\s*fn\s+(\w+)\s*\(", line)
        if match and number <= bug_line:
            name = match.group(1)
    if name is None:
        raise ValueError("bug line precedes every function")
    return name


def write_long_tests_corpus(root: Path, seed: int, out: Path) -> None:
    """Write the nine ``long_tests`` bundles under ``out``."""
    for index, name in enumerate(TERMINATING):
        src = root / "corpus" / name
        manifest = json.loads((src / "manifest.json").read_text(encoding="utf-8"))
        program_text = (src / manifest["program"]).read_text(encoding="utf-8")
        shipped = json.loads((src / manifest["tests"]).read_text(encoding="utf-8"))
        buggy = _buggy_function(program_text, manifest["ground_truth"]["bug_line"])

        rng = random.Random(seed * 1000 + index)
        unrelated = [e["call"]["fn"] for e in shipped if e["call"]["fn"] != buggy]
        sizes = {fn: _sizes(unrelated.count(fn), rng) for fn in dict.fromkeys(unrelated)}
        tests = []
        for fn in unrelated:
            args = _long_args(fn, sizes[fn].pop(), rng)
            kind, payload = _oracle(fn, args)
            if kind == "value":
                expect = {"value": _to_json(payload)}
            elif kind == "output":
                expect = {"output": [_to_json(v) for v in payload]}
            else:
                expect = {"error": payload}
            tests.append({
                "id": f"u{len(tests):03d}_{fn}",
                "call": {"fn": fn, "args": [_to_json(a) for a in args]},
                "expect": expect,
            })
        tests.extend(entry for entry in shipped if entry["call"]["fn"] == buggy)

        dest = out / name
        dest.mkdir(parents=True, exist_ok=True)
        (dest / manifest["program"]).write_text(program_text, encoding="utf-8")
        (dest / manifest["tests"]).write_text(json.dumps(tests), encoding="utf-8")
        (dest / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
