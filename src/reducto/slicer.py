"""Observation-based slicing: delete windows of lines, keep what preserves
the criterion, iterate to a fixpoint.

The scan order is fixed for reproducibility: passes run top to bottom over
the current slice; at each index the window grows from one line up to
``DELTA`` lines, the first accepted width wins, and the scan stays at the
same index after a successful deletion (lines shift up into it).  A pass
that deletes nothing terminates the loop.  Every earlier pass deletes
at least one line, so the scan ends within ``len(program) + 1`` passes and
its result is always a fixpoint.

Acceptance is structural: a candidate is kept only if it parses and every
criterion test reproduces its baseline failure signature exactly (with
error lines compared in original-program coordinates).  Printed text plays
no part, so candidates whose wrong values merely render the same as the
baseline's are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from . import interp
from .harness import (
    FailureSignature,
    Outcome,
    SuiteResult,
    TestCase,
    TestSuite,
    run_test,
    signature,
)
from .parser import ParseError
from .source import SourceProgram, count_sloc


class NoFailingTests(Exception):
    """The suite passes entirely; there is no bug behavior to preserve."""


class BaselineMismatch(Exception):
    """The unmodified program does not reproduce its own baseline."""


DELTA = 3  # maximum deletion-window length, in lines


@dataclass(frozen=True)
class LineMapping:
    """Strictly monotonic bijection between slice lines and surviving
    original lines: slice line k is original line ``originals[k - 1]``."""

    originals: tuple[int, ...]

    @classmethod
    def identity(cls, n: int) -> "LineMapping":
        return cls(tuple(range(1, n + 1)))

    def to_original(self, slice_line: Optional[int]) -> Optional[int]:
        if slice_line is None or not 1 <= slice_line <= len(self.originals):
            return None
        return self.originals[slice_line - 1]

    def to_slice(self, original_line: int) -> Optional[int]:
        try:
            return self.originals.index(original_line) + 1
        except ValueError:
            return None

    def original_lines(self) -> tuple[int, ...]:
        return self.originals


@dataclass(frozen=True)
class Baseline:
    """The slicing criterion and what it must reproduce: the failing tests
    of the unmodified program in suite order, each at its budget, and their
    failure signatures."""

    tests: tuple[TestCase, ...]
    signatures: dict  # test id -> FailureSignature

    def __post_init__(self):
        if not self.tests:
            raise ValueError("criterion needs at least one failing test")


@dataclass(frozen=True)
class Acceptance:
    accepted: bool
    reason: Optional[str] = None  # "Unbuildable" | "BehaviorChanged"
    detail: Optional[str] = None

    def __bool__(self):
        return self.accepted


@dataclass(frozen=True)
class SliceResult:
    slice: SourceProgram
    deleted: tuple[int, ...]  # original line numbers, ascending
    mapping: LineMapping
    original_sloc: int
    slice_sloc: int
    percent: float
    passes: int

    def stats(self) -> dict:
        return {
            "orig_sloc": self.original_sloc,
            "slice_sloc": self.slice_sloc,
            "percent": self.percent,
        }


def mapped_signature(test_id: str, outcome: Outcome, line_map: LineMapping) -> FailureSignature:
    """Signature with error lines reported in original coordinates (via
    ``line_map``) so signatures stay comparable across a program and its
    slices."""
    sig = signature(test_id, outcome)
    if sig.error_line is not None and sig.error_line != 0:
        sig = replace(sig, error_line=line_map.to_original(sig.error_line))
    return sig


def build_criterion(suite: TestSuite, result: SuiteResult) -> Baseline:
    """The baseline of every failing test in ``result``, the suite run on
    the unmodified program."""
    if not result.failing:
        raise NoFailingTests("every test passes; nothing to slice against")
    failing = tuple(t for t in suite if t.id in set(result.failing))
    signatures = {t.id: signature(t.id, result.outcomes[t.id]) for t in failing}
    return Baseline(failing, signatures)


def candidate_accepts(
    candidate: SourceProgram,
    baseline: Baseline,
    line_map: LineMapping,
    scope: interp.Scope,
) -> Acceptance:
    """Accept iff the candidate, built in the caller's ``scope`` (see
    ``interp.Scope``), parses and reproduces the baseline exactly."""
    try:
        code = scope.build(candidate)
    except ParseError as exc:
        return Acceptance(False, "Unbuildable", f"line {exc.line}: {exc.reason}")
    for test in baseline.tests:
        outcome = run_test(code, test)
        if mapped_signature(test.id, outcome, line_map) != baseline.signatures[test.id]:
            return Acceptance(False, "BehaviorChanged", test.id)
    return Acceptance(True)


def orbs_slice(program: SourceProgram, baseline: Baseline) -> SliceResult:
    """Delete-observe loop over the whole program.

    Raises BaselineMismatch if the unmodified program fails its own
    baseline (a broken precondition, not a slicing outcome).
    """
    n = len(program)
    identity = LineMapping.identity(n)
    scope = interp.Scope()  # one for the self-check and every window
    self_check = candidate_accepts(program, baseline, identity, scope)
    if not self_check:
        raise BaselineMismatch(
            f"program does not reproduce its own baseline: {self_check.reason} "
            f"({self_check.detail})"
        )

    lines = list(program.lines)
    originals = list(range(1, n + 1))
    passes = 0

    while True:
        passes += 1
        deleted_this_pass = 0
        i = 1
        while i <= len(lines):
            accepted_width = 0
            for width in range(1, DELTA + 1):
                if i + width - 1 > len(lines):
                    break
                cand_lines = lines[: i - 1] + lines[i - 1 + width:]
                cand_originals = originals[: i - 1] + originals[i - 1 + width:]
                cand = SourceProgram(tuple(cand_lines), program.id)
                line_map = LineMapping(tuple(cand_originals))
                if candidate_accepts(cand, baseline, line_map, scope):
                    accepted_width = width
                    lines = cand_lines
                    originals = cand_originals
                    break
            if accepted_width:
                deleted_this_pass += accepted_width
                # stay at the same index: following lines shifted up into it
            else:
                i += 1
        if deleted_this_pass == 0:
            break

    slice_program = SourceProgram(tuple(lines), program.id)
    mapping = LineMapping(tuple(originals))
    survivors = set(originals)
    deleted = tuple(x for x in range(1, n + 1) if x not in survivors)
    orig_sloc = count_sloc(program)
    slice_sloc = count_sloc(slice_program)
    percent = (100.0 * slice_sloc / orig_sloc) if orig_sloc else 0.0
    return SliceResult(
        slice=slice_program,
        deleted=deleted,
        mapping=mapping,
        original_sloc=orig_sloc,
        slice_sloc=slice_sloc,
        percent=percent,
        passes=passes,
    )


@dataclass(frozen=True)
class MinimalityReport:
    minimal: bool
    counterexample: Optional[int]  # 1-based line of the checked program


def minimality_check(
    slice_program: SourceProgram,
    baseline: Baseline,
    line_map: Optional[LineMapping] = None,
) -> MinimalityReport:
    """1-minimality: no single-line deletion of the slice is acceptable.

    ``line_map`` gives the slice's lines in original coordinates (identity
    when the checked program is the original).
    """
    n = len(slice_program)
    if line_map is None:
        line_map = LineMapping.identity(n)
    originals = list(line_map.original_lines())
    scope = interp.Scope()
    for i in range(1, n + 1):
        cand = slice_program.without_lines([i])
        cand_originals = originals[: i - 1] + originals[i:]
        cand_map = LineMapping(tuple(cand_originals))
        if candidate_accepts(cand, baseline, cand_map, scope):
            return MinimalityReport(False, i)
    return MinimalityReport(True, None)


# ---------------------------------------------------------------------------
# On-disk artifacts

def deletion_log_json(result: SliceResult) -> dict:
    return {
        "deleted": list(result.deleted),
        "mapping": [[s, o] for s, o in enumerate(result.mapping.original_lines(), start=1)],
    }


def slice_result_from_log(program: SourceProgram, log) -> tuple[SourceProgram, LineMapping]:
    """Rebuild (slice, mapping) from a deletion log against the original.

    Raises ValueError unless the log is ``{"deleted": [o, ...], "mapping":
    [[1, o1], [2, o2], ...]}`` with slice lines exactly 1..n, surviving
    original lines strictly increasing, and survivors and deleted lines
    splitting the program's lines between them."""
    if not isinstance(log, dict) or not {"deleted", "mapping"} <= set(log):
        raise ValueError('deletion log must be an object with "deleted" and "mapping"')
    deleted, pairs = log["deleted"], log["mapping"]
    if not isinstance(deleted, list) or not isinstance(pairs, list) or not all(
        isinstance(pair, list) and len(pair) == 2 for pair in pairs
    ):
        raise ValueError('"deleted" must be a list, "mapping" a list of [slice, original] pairs')
    survivors = [o for _, o in pairs]
    if not all(type(line) is int for line in deleted + survivors):
        raise ValueError("original line numbers must be integers")
    if [s for s, _ in pairs] != list(range(1, len(pairs) + 1)):
        raise ValueError("slice lines must run 1, 2, ... in order")
    if any(b <= a for a, b in zip(survivors, survivors[1:])):
        raise ValueError("surviving original lines must strictly increase")
    if sorted(survivors + deleted) != list(range(1, len(program) + 1)):
        raise ValueError("surviving and deleted lines do not split the program's lines")
    slice_program = SourceProgram(
        tuple(program.line(o) for o in survivors), program.id
    )
    return slice_program, LineMapping(tuple(survivors))
