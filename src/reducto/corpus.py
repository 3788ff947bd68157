"""Seeded bug corpus: thirteen bundles across five bug classes.

Every bundle is one SLANG program holding a buggy function among a handful
of unrelated utility functions, plus a JSON test suite.  The unrelated
functions exist to be sliced away: the bulk of each suite targets them, so
reducing the suite against the slice discards most tests while the
bug-relevant ones survive.  Bug classes covered: wrong relational
operator, off-by-one index, wrong integer constant, missing guard, wrong
returned variable, and a few operator/variable-misuse variants, including
one bundle engineered so the baseline patch location is itself sliced
away (the pruned list then no longer contains it).

Expectations for bug-relevant tests come from executing the ground-truth
patched program; expectations for unrelated tests pin current behavior.
Generation is fully deterministic (fixed seeds), so a rebuilt corpus is
byte-identical.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from . import interp
from .harness import TestCase, TestSuite, run_suite, save_suite
from .parser import parse
from .source import SourceProgram

# ---------------------------------------------------------------------------
# Unrelated utility functions (self-contained; no cross-calls)

LIBRARY: dict[str, list[str]] = {
    "sum_to": [
        "fn sum_to(n)",
        "let total = 0",
        "let i = 1",
        "while i <= n",
        "total = total + i",
        "i = i + 1",
        "end",
        "return total",
        "end",
    ],
    "is_even": [
        "fn is_even(n)",
        "return n % 2 == 0",
        "end",
    ],
    "abs_of": [
        "fn abs_of(x)",
        "if x < 0",
        "return 0 - x",
        "end",
        "return x",
        "end",
    ],
    "gcd_of": [
        "fn gcd_of(a, b)",
        "while b != 0",
        "let t = b",
        "b = a % b",
        "a = t",
        "end",
        "return a",
        "end",
    ],
    "fib_at": [
        "fn fib_at(n)",
        "let a = 0",
        "let b = 1",
        "let i = 0",
        "while i < n",
        "let t = a + b",
        "a = b",
        "b = t",
        "i = i + 1",
        "end",
        "return a",
        "end",
    ],
    "count_pos": [
        "fn count_pos(xs)",
        "let c = 0",
        "let i = 0",
        "while i < len(xs)",
        "if xs[i] > 0",
        "c = c + 1",
        "end",
        "i = i + 1",
        "end",
        "return c",
        "end",
    ],
    "sum_arr": [
        "fn sum_arr(xs)",
        "let total = 0",
        "let i = 0",
        "while i < len(xs)",
        "total = total + xs[i]",
        "i = i + 1",
        "end",
        "return total",
        "end",
    ],
    "max_arr": [
        "fn max_arr(xs)",
        "let m = xs[0]",
        "let i = 1",
        "while i < len(xs)",
        "if xs[i] > m",
        "m = xs[i]",
        "end",
        "i = i + 1",
        "end",
        "return m",
        "end",
    ],
    "pow_int": [
        "fn pow_int(base, e)",
        "let r = 1",
        "let i = 0",
        "while i < e",
        "r = r * base",
        "i = i + 1",
        "end",
        "return r",
        "end",
    ],
    "sign_of": [
        "fn sign_of(x)",
        "if x < 0",
        "return 0 - 1",
        "end",
        "if x > 0",
        "return 1",
        "end",
        "return 0",
        "end",
    ],
    "div_exact": [
        "fn div_exact(a, b)",
        "return a / b",
        "end",
    ],
    "echo_pair": [
        "fn echo_pair(a, b)",
        "print a",
        "print b",
        "return a + b",
        "end",
    ],
    "dot_of": [
        "fn dot_of(xs, ys)",
        "let total = 0",
        "let i = 0",
        "while i < len(xs)",
        "total = total + xs[i] * ys[i]",
        "i = i + 1",
        "end",
        "return total",
        "end",
    ],
    "repeat_join": [
        "fn repeat_join(s, k)",
        'let out = ""',
        "let i = 0",
        "while i < k",
        "out = out + s",
        "i = i + 1",
        "end",
        "return out",
        "end",
    ],
}

# Functions whose tests pin the printed output instead of the return value.
OUTPUT_FNS = {"echo_pair"}


def _sample_args(fn: str, rng: random.Random) -> tuple:
    if fn == "sum_to":
        return (rng.randint(-3, 40),)
    if fn == "is_even":
        return (rng.randint(-30, 30),)
    if fn == "abs_of":
        return (rng.randint(-50, 50),)
    if fn == "gcd_of":
        return (rng.randint(1, 60), rng.randint(1, 60))
    if fn == "fib_at":
        return (rng.randint(0, 20),)
    if fn in ("count_pos", "sum_arr", "max_arr"):
        return (tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 6))),)
    if fn == "pow_int":
        return (rng.randint(-6, 6), rng.randint(0, 7))
    if fn == "sign_of":
        return (rng.randint(-20, 20),)
    if fn == "div_exact":
        if rng.random() < 0.15:
            return (rng.randint(-30, 30), 0)  # pins the DivByZero behavior
        return (rng.randint(-30, 30), rng.choice([-4, -2, -1, 1, 2, 3, 5]))
    if fn == "echo_pair":
        return (rng.randint(-9, 9), rng.randint(-9, 9))
    if fn == "dot_of":
        n = rng.randint(1, 5)
        return (
            tuple(rng.randint(-6, 6) for _ in range(n)),
            tuple(rng.randint(-6, 6) for _ in range(n)),
        )
    if fn == "repeat_join":
        return (rng.choice(["ab", "z", "q-", "xy"]), rng.randint(0, 5))
    raise ValueError(f"no sampler for {fn}")


# ---------------------------------------------------------------------------
# Buggy functions

@dataclass(frozen=True)
class BuggyFn:
    name: str
    lines: tuple[str, ...]  # buggy source block
    bug_offset: int  # 0-based index of the buggy line within ``lines``
    patched_text: str  # ground-truth replacement for that line
    failing_calls: tuple  # arg tuples that must fail on the buggy program
    passing_calls: tuple  # arg tuples that must pass on the buggy program


@dataclass(frozen=True)
class BundleDef:
    name: str
    bug_class: str
    buggy: BuggyFn
    library: tuple[str, ...]  # unrelated functions to include
    buggy_position: int  # insertion index among the library blocks
    seed: int
    tests_per_fn: int = 14
    description: str = ""


def _bundles() -> list[BundleDef]:
    defs = []

    defs.append(BundleDef(
        name="b01_pick_max3",
        bug_class="wrong-relational-operator",
        buggy=BuggyFn(
            name="pick_max3",
            lines=(
                "fn pick_max3(a, b, c)",
                "let m = a",
                "if b > m",
                "m = b",
                "end",
                "if c > a",
                "m = c",
                "end",
                "return m",
                "end",
            ),
            bug_offset=5,
            patched_text="if c > m",
            failing_calls=((1, 5, 2), (0, 4, 3)),
            passing_calls=((5, 1, 2), (7, 7, 3), (1, 2, 9), (2, 1, 2), (0, 9, 9)),
        ),
        library=("sum_to", "is_even", "gcd_of", "fib_at", "sum_arr", "pow_int", "echo_pair"),
        buggy_position=2,
        seed=101,
        description="maximum of three picks the wrong comparison operand",
    ))

    defs.append(BundleDef(
        name="b02_last_of",
        bug_class="off-by-one-index",
        buggy=BuggyFn(
            name="last_of",
            lines=(
                "fn last_of(xs)",
                "return xs[len(xs)]",
                "end",
            ),
            bug_offset=1,
            patched_text="return xs[len(xs) - 1]",
            failing_calls=(((1, 2, 3),), ((7,),)),
            passing_calls=(),
        ),
        library=("abs_of", "count_pos", "max_arr", "sign_of", "div_exact", "dot_of", "repeat_join"),
        buggy_position=3,
        seed=102,
        description="last element reads one slot past the end",
    ))

    defs.append(BundleDef(
        name="b03_series_sum",
        bug_class="wrong-integer-constant",
        buggy=BuggyFn(
            name="series_sum",
            lines=(
                "fn series_sum(n)",
                "let total = 0",
                "let i = 2",
                "while i <= n",
                "total = total + i",
                "i = i + 1",
                "end",
                "return total",
                "end",
            ),
            bug_offset=2,
            patched_text="let i = 1",
            failing_calls=((3,), (5,)),
            passing_calls=((0,), (-2,)),
        ),
        library=("is_even", "abs_of", "fib_at", "max_arr", "sign_of", "echo_pair", "repeat_join"),
        buggy_position=0,
        seed=103,
        description="arithmetic series starts at the wrong index",
    ))

    defs.append(BundleDef(
        name="b04_rate_of",
        bug_class="missing-guard",
        buggy=BuggyFn(
            name="rate_of",
            lines=(
                "fn rate_of(total, count)",
                "return total / count",
                "end",
            ),
            bug_offset=1,
            patched_text="if count != 0\nreturn total / count\nend",
            failing_calls=((10, 0), (7, 0)),
            passing_calls=((10, 2), (9, 3), (-8, 2)),
        ),
        library=("sum_to", "gcd_of", "count_pos", "sum_arr", "pow_int", "dot_of", "echo_pair"),
        buggy_position=4,
        seed=104,
        description="average omits the zero-count guard",
    ))

    defs.append(BundleDef(
        name="b05_span_of",
        bug_class="wrong-returned-variable",
        buggy=BuggyFn(
            name="span_of",
            lines=(
                "fn span_of(xs)",
                "let lo = xs[0]",
                "let hi = xs[0]",
                "let i = 1",
                "while i < len(xs)",
                "if xs[i] < lo",
                "lo = xs[i]",
                "end",
                "if xs[i] > hi",
                "hi = xs[i]",
                "end",
                "i = i + 1",
                "end",
                "let span = hi - lo",
                "return lo",
                "end",
            ),
            bug_offset=14,
            patched_text="return span",
            failing_calls=(((3, 9),), ((5, 1, 8),)),
            passing_calls=(((2, 4),), ((3, 6),), ((1, 1, 2),)),
        ),
        library=("sum_to", "is_even", "gcd_of", "sign_of", "div_exact", "echo_pair", "repeat_join"),
        buggy_position=5,
        seed=105,
        description="range width computes the span but returns the minimum",
    ))

    defs.append(BundleDef(
        name="b06_scale_ratio",
        bug_class="wrong-constant-guarded",
        buggy=BuggyFn(
            name="scale_ratio",
            lines=(
                "fn scale_ratio(a, b)",
                "let r = a / b",
                "if b == 0.0",
                "r = a / b",
                "end",
                "return r",
                "end",
            ),
            bug_offset=3,
            patched_text="r = 0.0",
            failing_calls=((2.0, 0.0),),
            passing_calls=((6.0, 3.0), (1.0, 2.0), (0.0, 4.0), (-3.0, 1.5)),
        ),
        library=("sum_to", "abs_of", "fib_at", "count_pos", "max_arr", "pow_int", "dot_of"),
        buggy_position=1,
        seed=106,
        description="zero-divisor branch recomputes the same bad division, so "
        "the slicer removes it and the pruned list loses the patch location",
    ))

    defs.append(BundleDef(
        name="b07_bonus_amount",
        bug_class="wrong-integer-constant",
        buggy=BuggyFn(
            name="bonus_amount",
            lines=(
                "fn bonus_amount(points)",
                "if points > 100",
                "let audit1 = points - 1",
                "let audit2 = points + 3",
                "return points / 3",
                "end",
                "return 0",
                "end",
            ),
            bug_offset=4,
            patched_text="return points / 2",
            failing_calls=((200,), (120,)),
            passing_calls=((40,), (100,), (0,)),
        ),
        library=("is_even", "gcd_of", "fib_at", "sum_arr", "sign_of", "div_exact", "echo_pair"),
        buggy_position=6,
        seed=107,
        description="bonus divides by the wrong constant behind dead audit stores",
    ))

    defs.append(BundleDef(
        name="b08_any_pos",
        bug_class="wrong-boolean-operator",
        buggy=BuggyFn(
            name="any_pos",
            lines=(
                "fn any_pos(a, b)",
                "if a > 0 and b > 0",
                "return true",
                "end",
                "return false",
                "end",
            ),
            bug_offset=1,
            patched_text="if a > 0 or b > 0",
            failing_calls=((3, -1), (-2, 7)),
            passing_calls=((2, 5), (-1, -2), (0, 0)),
        ),
        library=("sum_to", "abs_of", "count_pos", "max_arr", "pow_int", "dot_of", "repeat_join"),
        buggy_position=2,
        seed=108,
        description="any-positive conjunction should be a disjunction",
    ))

    defs.append(BundleDef(
        name="b09_rect_area",
        bug_class="wrong-arithmetic-operator",
        buggy=BuggyFn(
            name="rect_area",
            lines=(
                "fn rect_area(w, h)",
                "return w + h",
                "end",
            ),
            bug_offset=1,
            patched_text="return w * h",
            failing_calls=((3, 4), (5, 5)),
            passing_calls=((2, 2), (0, 0)),
        ),
        library=("is_even", "gcd_of", "fib_at", "sum_arr", "sign_of", "div_exact", "repeat_join"),
        buggy_position=1,
        seed=109,
        description="area adds instead of multiplying",
    ))

    defs.append(BundleDef(
        name="b10_shifted_sum",
        bug_class="off-by-one-index",
        buggy=BuggyFn(
            name="shifted_sum",
            lines=(
                "fn shifted_sum(xs)",
                "let total = 0",
                "let i = 0",
                "while i < len(xs)",
                "total = total + xs[i + 1]",
                "i = i + 1",
                "end",
                "return total",
                "end",
            ),
            bug_offset=4,
            patched_text="total = total + xs[i]",
            failing_calls=(((2, 3, 4),), ((5,),)),
            passing_calls=(((),),),
        ),
        library=("sum_to", "abs_of", "count_pos", "pow_int", "sign_of", "echo_pair", "dot_of"),
        buggy_position=5,
        seed=110,
        description="array sum indexes one past the loop cursor",
    ))

    defs.append(BundleDef(
        name="b11_clamp_to",
        bug_class="wrong-relational-operand",
        buggy=BuggyFn(
            name="clamp_to",
            lines=(
                "fn clamp_to(x, lo, hi)",
                "if x < lo",
                "return lo",
                "end",
                "if x > lo",
                "return hi",
                "end",
                "return x",
                "end",
            ),
            bug_offset=4,
            patched_text="if x > hi",
            failing_calls=((2, 1, 3), (5, 0, 9)),
            passing_calls=((0, 1, 3), (1, 1, 3), (3, 1, 3), (-7, -5, 5), (7, 1, 3)),
        ),
        library=("is_even", "gcd_of", "fib_at", "max_arr", "div_exact", "echo_pair", "repeat_join"),
        buggy_position=3,
        seed=111,
        description="upper clamp compares against the lower bound",
    ))

    defs.append(BundleDef(
        name="b12_perimeter_of",
        bug_class="variable-misuse",
        buggy=BuggyFn(
            name="perimeter_of",
            lines=(
                "fn perimeter_of(w, h)",
                "let two_w = w + w",
                "let two_h = h + h",
                "return two_w + two_w",
                "end",
            ),
            bug_offset=3,
            patched_text="return two_w + two_h",
            failing_calls=((3, 4), (2, 5)),
            passing_calls=((4, 4), (1, 1), (0, 0)),
        ),
        library=("sum_to", "abs_of", "count_pos", "sum_arr", "sign_of", "pow_int", "dot_of"),
        buggy_position=0,
        seed=112,
        description="perimeter doubles the same side twice",
    ))

    defs.append(BundleDef(
        name="b13_element_at",
        bug_class="missing-guard",
        buggy=BuggyFn(
            name="element_at",
            lines=(
                "fn element_at(xs, i)",
                "return xs[i]",
                "end",
            ),
            bug_offset=1,
            patched_text="if i >= 0 and i < len(xs)\nreturn xs[i]\nend",
            failing_calls=(((4, 5), 7), ((3,), -1)),
            passing_calls=(((4, 5), 1), ((9,), 0)),
        ),
        library=("sum_to", "is_even", "gcd_of", "fib_at", "max_arr", "echo_pair", "repeat_join"),
        buggy_position=4,
        seed=113,
        description="element lookup omits the bounds guard",
    ))

    return defs


BUNDLE_DEFS = _bundles()


# ---------------------------------------------------------------------------
# Assembly

@dataclass
class BuiltBundle:
    name: str
    program_text: str
    tests: TestSuite
    bug_line: int
    patched_text: str
    relevant_ids: list[str] = field(default_factory=list)
    failing_ids: list[str] = field(default_factory=list)


def _assemble_program(bdef: BundleDef) -> tuple[list[str], int]:
    """Program lines plus the 1-based line number of the buggy line."""
    blocks = [list(LIBRARY[name]) for name in bdef.library]
    blocks.insert(bdef.buggy_position, list(bdef.buggy.lines))
    lines = [f"# bundle {bdef.name}: {bdef.description}"]
    bug_line = None
    for i, block in enumerate(blocks):
        lines.append("")
        if i == bdef.buggy_position:
            bug_line = len(lines) + 1 + bdef.buggy.bug_offset
        lines.extend(block)
    assert bug_line is not None
    return lines, bug_line


def _expectation_from_run(program: SourceProgram, fn: str, args: tuple):
    """(kind, payload) pinned from an actual run; OUTPUT_FNS pin stdout."""
    result = interp.execute(interp.compile_ast(parse(program)), fn, list(args))
    if result.status == "runtime_error":
        return "error", result.error_kind
    assert result.status == "completed", f"{fn}{args}: {result.status}"
    if fn in OUTPUT_FNS:
        return "output", result.output
    return "value", result.return_value


def build_bundle(bdef: BundleDef) -> BuiltBundle:
    lines, bug_line = _assemble_program(bdef)
    program = SourceProgram(tuple(lines), bdef.name)
    patched_lines = list(lines)
    patched_lines[bug_line - 1:bug_line] = bdef.buggy.patched_text.split("\n")
    fixed = SourceProgram(tuple(patched_lines), bdef.name + "-fixed")

    rng = random.Random(bdef.seed)
    tests = []
    seen_args = set()
    for fn in bdef.library:
        produced = 0
        while produced < bdef.tests_per_fn:
            args = _sample_args(fn, rng)
            key = (fn, args)
            if key in seen_args:
                continue
            seen_args.add(key)
            kind, payload = _expectation_from_run(program, fn, args)
            tests.append(TestCase(f"u{len(tests):03d}_{fn}", fn, args, kind, payload))
            produced += 1

    relevant_ids = []
    failing_ids = []
    bug_fn = bdef.buggy.name
    for k, args in enumerate(bdef.buggy.failing_calls + bdef.buggy.passing_calls):
        kind, payload = _expectation_from_run(fixed, bug_fn, args)
        test_id = f"r{k:03d}_{bug_fn}"
        tests.append(TestCase(test_id, bug_fn, args, kind, payload))
        relevant_ids.append(test_id)
        if k < len(bdef.buggy.failing_calls):
            failing_ids.append(test_id)

    suite = TestSuite(tuple(tests))
    built = BuiltBundle(
        name=bdef.name,
        program_text=program.to_text(),
        tests=suite,
        bug_line=bug_line,
        patched_text=bdef.buggy.patched_text,
        relevant_ids=relevant_ids,
        failing_ids=failing_ids,
    )
    _check_bundle(bdef, program, built)
    return built


def _check_bundle(bdef: BundleDef, program: SourceProgram, built: BuiltBundle):
    """Fail loudly if a bundle drifts from its design."""
    result = run_suite(program, built.tests)
    failing = set(result.failing)
    expect_failing = set(built.failing_ids)
    if failing != expect_failing:
        raise AssertionError(
            f"{bdef.name}: failing set {sorted(failing)} != designed {sorted(expect_failing)}"
        )
    total = len(built.tests)
    if not 40 <= total <= 200:
        raise AssertionError(f"{bdef.name}: suite size {total} outside 40..200")
    relevant = len(built.relevant_ids)
    if relevant > 0.2 * total:
        raise AssertionError(f"{bdef.name}: {relevant}/{total} relevant tests exceeds 20%")


def build_corpus(out_dir) -> list[str]:
    """Write every bundle under ``out_dir``, every run at the default step
    budget; returns the bundle names."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = []
    for bdef in BUNDLE_DEFS:
        built = build_bundle(bdef)
        bundle_dir = out / built.name
        bundle_dir.mkdir(parents=True, exist_ok=True)
        (bundle_dir / "program.sl").write_text(built.program_text, encoding="utf-8")
        save_suite(built.tests, bundle_dir / "tests.json")
        manifest = {
            "program": "program.sl",
            "tests": "tests.json",
            "ground_truth": {
                "bug_line": built.bug_line,
                "patched_text": built.patched_text,
            },
        }
        (bundle_dir / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        names.append(built.name)
    return names
