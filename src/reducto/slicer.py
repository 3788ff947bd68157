"""Observation-based slicing: delete whole functions, then windows of lines,
keep what preserves the criterion, iterate to a fixpoint.

The order is fixed for reproducibility.  A coarse step first deletes
whole functions, each spanning the blank and comment lines before its
header through its ``end``.  It tries two groups in turn, each in program
order: first every function in which the failing tests run no line on the
original program, then the rest.  A check still decides every deletion,
and a rejected group splits into two halves, first half first, down to
single functions (hierarchical delta debugging, Misherghi & Su, ICSE
2006).  So when the tests enter just the functions they need, one check
deletes all the others, however many there are.  Window passes then run
top to bottom over the current slice; at each index the window grows from
one line up to ``DELTA`` lines, the first accepted width wins, and the
scan stays at the same index after a successful deletion (lines shift up
into it).  A pass that deletes nothing terminates the loop.  Every earlier
pass deletes at least one line, so the scan ends within
``len(program) + 1`` passes and its result is always a fixpoint of every
window.
``SliceResult.passes`` counts the window passes alone.

Acceptance is structural: a candidate is kept only if it parses and every
criterion test reproduces its baseline failure signature exactly (with
error lines compared in original-program coordinates).  Printed text plays
no part, so candidates whose wrong values merely render the same as the
baseline's are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from . import interp, parser
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
    """A slice does not reproduce the baseline failure of every failing test."""


DELTA = 3  # maximum deletion-window length, in lines


@dataclass(frozen=True)
class LineMapping:
    """Strictly monotonic bijection between slice lines and surviving
    original lines: slice line k is original line ``originals[k - 1]``.
    Each direction takes only the lines of its side of the bijection."""

    originals: tuple[int, ...]

    def to_original(self, slice_line: int) -> int:
        return self.originals[slice_line - 1]

    def to_slice(self, original_line: int) -> int:
        return self.originals.index(original_line) + 1

    def original_lines(self) -> tuple[int, ...]:
        return self.originals


@dataclass(frozen=True)
class Baseline:
    """The slicing criterion and what it must reproduce: the failing tests
    of the unmodified program in suite order, each at its budget, and their
    failure signatures.  ``covered`` is the union of the lines those tests
    run on the unmodified program; ``delete_functions`` tries the functions
    without such a line first, and a check still decides their deletion."""

    tests: tuple[TestCase, ...]
    signatures: dict  # test id -> FailureSignature
    covered: frozenset  # original lines


@dataclass(frozen=True)
class Acceptance:
    accepted: bool
    reason: Optional[str] = None  # "Unbuildable" | "BehaviorChanged"

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
    passes: int  # window passes of ``orbs_slice``; 0 for a slice read from a log

    @classmethod
    def keeping(cls, program: SourceProgram, survivors, passes: int) -> "SliceResult":
        """The slice of ``program`` that keeps its original lines
        ``survivors``, ascending, and deletes every other line."""
        slice_program = SourceProgram(tuple(program.line(o) for o in survivors), program.id)
        kept = set(survivors)
        orig_sloc = count_sloc(program)
        slice_sloc = count_sloc(slice_program)
        return cls(
            slice=slice_program,
            deleted=tuple(x for x in range(1, len(program) + 1) if x not in kept),
            mapping=LineMapping(tuple(survivors)),
            original_sloc=orig_sloc,
            slice_sloc=slice_sloc,
            percent=(100.0 * slice_sloc / orig_sloc) if orig_sloc else 0.0,
            passes=passes,
        )

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
    covered = frozenset().union(*(result.outcomes[t.id].covered for t in failing))
    return Baseline(failing, signatures, covered)


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
    except ParseError:
        return Acceptance(False, "Unbuildable")
    for test in baseline.tests:
        outcome = run_test(code, test)
        if mapped_signature(test.id, outcome, line_map) != baseline.signatures[test.id]:
            return Acceptance(False, "BehaviorChanged")
    return Acceptance(True)


def delete_functions(
    program: SourceProgram, baseline: Baseline, scope: interp.Scope
) -> list[int]:
    """The coarse step of ``orbs_slice``: the original lines of ``program``
    that survive deleting its functions in groups, each candidate built in
    ``scope``.

    A function's span runs from its header to its ``end`` and takes the
    blank and comment lines before the header, back to the previous
    function's ``end``.  The step tries two groups, each in program order:
    first every span with no line in ``baseline.covered``, then the rest.
    Coverage only orders the checks; a check decides every deletion.  A
    rejected group splits into two halves, first half first, down to single
    functions; each accepted deletion is kept.  So a function that a
    failing test reaches only through a call that fails before entering it
    (a wrong-arity call) is uncovered, and kept if deleting it is
    rejected."""
    survivors = list(range(1, len(program) + 1))

    def delete(group: list[range]) -> None:
        nonlocal survivors
        gone = set().union(*group)
        kept = [o for o in survivors if o not in gone]
        cand = SourceProgram(tuple(program.line(o) for o in kept), program.id)
        if candidate_accepts(cand, baseline, LineMapping(tuple(kept)), scope):
            survivors = kept
        elif len(group) > 1:
            half = len(group) // 2
            delete(group[:half])
            delete(group[half:])

    # ``functions`` is keyed in the order their ``end``s close them, which
    # is program order, since functions do not nest
    spans, start = [], 1
    for fn in parser.parse(program, scope.lines).functions.values():
        spans.append(range(start, fn.end_line + 1))
        start = fn.end_line + 1
    uncovered = [s for s in spans if baseline.covered.isdisjoint(s)]
    covered = [s for s in spans if not baseline.covered.isdisjoint(s)]
    for group in (uncovered, covered):
        if group:
            delete(group)
    return survivors


def orbs_slice(program: SourceProgram, baseline: Baseline) -> SliceResult:
    """Delete-observe loop over the whole program, against the criterion
    ``build_criterion`` takes from the suite's run on ``program``.
    ``BundleArtifacts`` checks the slice against it, as it checks every
    slice."""
    scope = interp.Scope()  # one for every deletion
    originals = delete_functions(program, baseline, scope)
    lines = [program.line(o) for o in originals]

    def delete(start: int, stop: int) -> bool:
        """Delete positions ``start`` to ``stop - 1`` of the current slice
        if the candidate without them is accepted."""
        nonlocal lines, originals
        cand_lines = lines[:start] + lines[stop:]
        cand_originals = originals[:start] + originals[stop:]
        cand = SourceProgram(tuple(cand_lines), program.id)
        if not candidate_accepts(cand, baseline, LineMapping(tuple(cand_originals)), scope):
            return False
        lines, originals = cand_lines, cand_originals
        return True

    passes = 0
    while True:
        passes += 1
        deleted_this_pass = 0
        i = 0
        while i < len(lines):
            widths = range(1, min(DELTA, len(lines) - i) + 1)
            width = next((w for w in widths if delete(i, i + w)), 0)
            if width:
                deleted_this_pass += width
                # stay at the same index: following lines shifted up into it
            else:
                i += 1
        if deleted_this_pass == 0:
            break

    return SliceResult.keeping(program, originals, passes)


# ---------------------------------------------------------------------------
# On-disk artifacts

def deletion_log_json(result: SliceResult) -> dict:
    return {
        "deleted": list(result.deleted),
        "mapping": [[s, o] for s, o in enumerate(result.mapping.original_lines(), start=1)],
    }


def slice_result_from_log(program: SourceProgram, log) -> SliceResult:
    """The SliceResult of ``program`` that a deletion log describes.  From
    the log ``deletion_log_json`` writes of an ``orbs_slice`` result, that
    result, but with ``passes`` 0: a log does not record passes.

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
    return SliceResult.keeping(program, survivors, passes=0)
