"""Single-expectation test cases, suite execution and failure signatures.

Every test makes exactly one call and checks exactly one thing: a returned
value, an error kind, or the printed output sequence.  Outcomes are
canonicalized into FailureSignatures whose comparison is purely structural;
no printed representation ever enters a signature, so two values that
happen to render identically still compare by their bits.

``read_json`` reads every JSON file of a bundle or a slice directory, and
``reading`` reports a fault in any such file as one ManifestError naming it.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

from . import interp
from .interp import ERROR_KINDS, execute
from .parser import ParseError
from .source import SourceProgram
from .values import (
    canonical_json, int_from_digits, slang_text, value_from_json, value_to_json, values_equal,
)

EXPECT_VALUE = "value"
EXPECT_ERROR = "error"
EXPECT_OUTPUT = "output"


@dataclass(frozen=True)
class TestCase:
    id: str
    function: str
    args: tuple
    expect_kind: str  # value | error | output
    expect: object  # frozen value | error kind string | tuple of frozen values
    # Steps each run of the test may take; ``experiment.load_bundle`` sets
    # it from the test's run on the bundle's original program.
    budget: int = interp.DEFAULT_BUDGET


@dataclass(frozen=True)
class TestSuite:
    tests: tuple[TestCase, ...]

    def __post_init__(self):
        seen = set()
        for t in self.tests:
            if t.id in seen:
                raise ValueError(f"duplicate test id {t.id!r}")
            seen.add(t.id)

    def __len__(self):
        return len(self.tests)

    def __iter__(self):
        return iter(self.tests)

    def ids(self) -> list[str]:
        return [t.id for t in self.tests]

    def subset(self, ids) -> "TestSuite":
        keep = set(ids)
        return TestSuite(tuple(t for t in self.tests if t.id in keep))


PASS = "Pass"
FAIL = "Fail"
ERRORED = "Errored"
UNBUILDABLE = "Unbuildable"
BUDGET_EXCEEDED = "BudgetExceeded"


# One per test run, so slotted rather than frozen: a frozen dataclass's
# ``__init__`` pays one ``object.__setattr__`` per field.  No one writes to
# an outcome once it is returned.  The records built per suite or per
# candidate stay frozen.
@dataclass(slots=True)
class Outcome:
    kind: str  # Pass | Fail | Errored | Unbuildable | BudgetExceeded
    covered: frozenset
    steps: int
    expected: Optional[str] = None  # canonical JSON of what was expected
    actual: Optional[str] = None  # canonical JSON of what was observed
    error_kind: Optional[str] = None
    error_line: Optional[int] = None

    @property
    def passed(self) -> bool:
        return self.kind == PASS


@dataclass(frozen=True)
class FailureSignature:
    """Canonical, platform-stable digest of one test outcome.

    Tuple fields only; the human-readable error message is deliberately
    not part of the comparison.
    """

    test_id: str
    outcome: str
    error_kind: Optional[str] = None
    error_line: Optional[int] = None
    expected: Optional[str] = None
    actual: Optional[str] = None


def _canon(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _value_text(value) -> str:
    """``_canon({"value": value_to_json(value)})``, at any nesting depth."""
    return '{"value":' + canonical_json(value) + "}"


def _output_text(values) -> str:
    """``_canon({"output": [value_to_json(v) for v in values]})``, at any
    nesting depth."""
    return '{"output":[' + ",".join(canonical_json(v) for v in values) + "]}"


def observed_text(actual: str) -> str:
    """An outcome's ``actual`` for a message, its values as SLANG writes
    them: ``returning 10``, ``printing 1, "a"`` or ``printing nothing``."""
    if actual.startswith('{"value":'):
        return "returning " + slang_text(actual[len('{"value":'):-1])
    return "printing " + (slang_text(actual[len('{"output":['):-2]) or "nothing")


def run_test(code: interp.Code, test: TestCase) -> Outcome:
    """Execute one test on a compiled program, at the test's budget."""
    result = execute(code, test.function, list(test.args), test.budget)
    covered, steps = result.covered, result.steps
    if result.status == "budget_exceeded":
        return Outcome(BUDGET_EXCEEDED, covered, steps)
    if result.status == "runtime_error":
        if test.expect_kind == EXPECT_ERROR and test.expect == result.error_kind:
            return Outcome(
                PASS, covered, steps, error_kind=result.error_kind, error_line=result.error_line
            )
        return Outcome(
            ERRORED, covered, steps, error_kind=result.error_kind, error_line=result.error_line
        )

    # completed
    if test.expect_kind == EXPECT_VALUE:
        if values_equal(result.return_value, test.expect):
            return Outcome(PASS, covered, steps)
        return Outcome(
            FAIL,
            covered,
            steps,
            expected=_value_text(test.expect),
            actual=_value_text(result.return_value),
        )
    if test.expect_kind == EXPECT_OUTPUT:
        if values_equal(result.output, test.expect):
            return Outcome(PASS, covered, steps)
        return Outcome(
            FAIL,
            covered,
            steps,
            expected=_output_text(test.expect),
            actual=_output_text(result.output),
        )
    # expected an error, program completed
    return Outcome(
        FAIL,
        covered,
        steps,
        expected=_canon({"error": test.expect}),
        actual=_value_text(result.return_value),
    )


@dataclass(frozen=True)
class SuiteResult:
    outcomes: dict  # test id -> Outcome
    passing: tuple[str, ...]
    failing: tuple[str, ...]  # everything that is not a Pass


def run_suite(program: SourceProgram, suite: TestSuite) -> SuiteResult:
    """Run every test independently, each at its budget; the partition is
    exhaustive and disjoint.

    The program is built once, in a scope of its own; when it does not
    parse, every test is Unbuildable."""
    try:
        code = interp.Scope().build(program)
    except ParseError:
        outcomes = {t.id: Outcome(UNBUILDABLE, frozenset(), 0) for t in suite}
        return SuiteResult(outcomes, (), tuple(suite.ids()))
    outcomes = {}
    passing = []
    failing = []
    for test in suite:
        outcome = run_test(code, test)
        outcomes[test.id] = outcome
        (passing if outcome.passed else failing).append(test.id)
    return SuiteResult(outcomes, tuple(passing), tuple(failing))


def signature(test_id: str, outcome: Outcome) -> FailureSignature:
    """Canonical signature; total and deterministic for every outcome class."""
    if outcome.kind == ERRORED:
        return FailureSignature(
            test_id, ERRORED, error_kind=outcome.error_kind, error_line=outcome.error_line
        )
    if outcome.kind == FAIL:
        return FailureSignature(
            test_id, FAIL, expected=outcome.expected, actual=outcome.actual
        )
    return FailureSignature(test_id, outcome.kind)


# ---------------------------------------------------------------------------
# Tests-file format: a JSON array of
#   {"id": str, "call": {"fn": str, "args": [value, ...]},
#    "expect": {"value": v} | {"error": kind} | {"output": [v, ...]}}

def _parse_expect(obj, test_id: str) -> tuple[str, object]:
    if not isinstance(obj, dict):
        raise ValueError(f"test {test_id!r}: expect must be an object")
    if len(obj) != 1:
        raise ValueError(
            f"test {test_id!r} carries multiple expectations; "
            "split it into single-expectation tests"
        )
    (key, payload), = obj.items()
    if key == EXPECT_VALUE:
        return EXPECT_VALUE, value_from_json(payload)
    if key == EXPECT_ERROR:
        if payload not in ERROR_KINDS:
            raise ValueError(f"test {test_id!r}: unknown error kind {payload!r}")
        return EXPECT_ERROR, payload
    if key == EXPECT_OUTPUT:
        if not isinstance(payload, list):
            raise ValueError(f"test {test_id!r}: output expectation must be a list")
        return EXPECT_OUTPUT, tuple(value_from_json(v) for v in payload)
    raise ValueError(f"test {test_id!r}: unknown expectation {key!r}")


def suite_from_json(data, budget: int = interp.DEFAULT_BUDGET) -> TestSuite:
    """The tests of a tests file's JSON, each at ``budget``."""
    if not isinstance(data, list):
        raise ValueError("tests file must be a JSON array")
    tests = []
    for entry in data:
        if not isinstance(entry, dict) or "id" not in entry:
            raise ValueError(f"malformed test entry: {entry!r}")
        test_id = entry["id"]
        if not isinstance(test_id, str):
            raise ValueError(f"test id must be a string: {test_id!r}")
        call = entry.get("call")
        if (
            not isinstance(call, dict)
            or not isinstance(call.get("fn"), str)
            or not isinstance(call.get("args"), list)
        ):
            raise ValueError(f"test {test_id!r}: call needs a string fn and a list of args")
        args = tuple(value_from_json(a) for a in call["args"])
        if "expect" not in entry:
            raise ValueError(f"test {test_id!r}: missing expectation")
        kind, expect = _parse_expect(entry["expect"], test_id)
        tests.append(TestCase(test_id, call["fn"], args, kind, expect, budget))
    return TestSuite(tuple(tests))


def suite_to_json(suite: TestSuite) -> list:
    out = []
    for t in suite:
        if t.expect_kind == EXPECT_VALUE:
            expect = {"value": value_to_json(t.expect)}
        elif t.expect_kind == EXPECT_ERROR:
            expect = {"error": t.expect}
        else:
            expect = {"output": [value_to_json(v) for v in t.expect]}
        out.append(
            {
                "id": t.id,
                "call": {"fn": t.function, "args": [value_to_json(a) for a in t.args]},
                "expect": expect,
            }
        )
    return out


class ManifestError(Exception):
    """A corpus, a bundle's file or a slice directory's deletion log is unusable."""


@contextmanager
def reading(path):
    """Turn a fault met while reading the file at ``path`` into one
    ManifestError naming it: an OSError, a ValueError (not UTF-8, not JSON,
    or a schema check of the reader) or a RecursionError (nested too
    deeply)."""
    try:
        yield
    except (OSError, ValueError, RecursionError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ManifestError(f"{path}: {reason}") from exc


def read_json(path):
    """The JSON document in the bundle file at ``path``, read as UTF-8 with
    every integer read as ``int_from_digits`` reads it; a ManifestError
    naming the file when it cannot be read."""
    with reading(path):
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        # An integer lies within one comma-separated piece of the text.  When
        # no piece is longer than any digit limit may reject, json's own ints
        # read every integer as ``int_from_digits`` would, and calling that on
        # each integer makes a file of long arrays several times slower to read.
        longest = max(map(len, text.split(",")))
        parse_int = int_from_digits if longest > sys.int_info.str_digits_check_threshold else None
        return json.loads(text, parse_int=parse_int)


def load_suite(path, budget: int = interp.DEFAULT_BUDGET) -> TestSuite:
    """The tests file at ``path``, each test at ``budget``."""
    with reading(path):
        return suite_from_json(read_json(path), budget)


def save_suite(suite: TestSuite, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(suite_to_json(suite), fh, indent=2, sort_keys=True)
        fh.write("\n")
