"""Test-suite reduction driven by the sliced program.

A passing test survives iff it still passes when run against the slice;
failing tests are always retained.  The dynamic check is authoritative,
coverage is recorded as the explanation: a removed test whose original
coverage lies entirely in deleted lines is tagged CoversOnlyDeletedCode,
any other removal is tagged FailsOnSlice.
"""

from __future__ import annotations

from dataclasses import dataclass

from .harness import SuiteResult, TestSuite, run_suite
from .slicer import Baseline, LineMapping, mapped_signature
from .source import SourceProgram

FAILS_ON_SLICE = "FailsOnSlice"
COVERS_ONLY_DELETED = "CoversOnlyDeletedCode"


class InvalidSlice(Exception):
    """The mapping does not describe the given slice of the original."""


@dataclass(frozen=True)
class RemovedTest:
    id: str
    reason: str  # FailsOnSlice | CoversOnlyDeletedCode


@dataclass(frozen=True)
class ReducedSuite:
    kept: TestSuite
    removed: tuple[RemovedTest, ...]
    on_slice: SuiteResult  # the kept tests' run on the slice, in suite order


def _check_mapping(program: SourceProgram, slice_program: SourceProgram, mapping: LineMapping):
    survivors = mapping.original_lines()
    if len(survivors) != len(slice_program):
        raise InvalidSlice("mapping length differs from slice length")
    if list(survivors) != sorted(set(survivors)):
        raise InvalidSlice("mapping is not strictly monotonic")
    for slice_line, orig_line in enumerate(survivors, start=1):
        if not (1 <= orig_line <= len(program)):
            raise InvalidSlice(f"original line {orig_line} out of range")
        if slice_program.line(slice_line) != program.line(orig_line):
            raise InvalidSlice(f"slice line {slice_line} does not match original {orig_line}")


def reduce_suite(
    program: SourceProgram,
    slice_program: SourceProgram,
    mapping: LineMapping,
    suite: TestSuite,
    on_original: SuiteResult,
) -> ReducedSuite:
    """Produce the reduced suite: every original failing test, plus every
    passing test that still passes on the slice.  ``on_original`` is the
    suite run on ``program``; the whole suite runs once on the slice, and
    the kept tests' part of that run is returned too."""
    _check_mapping(program, slice_program, mapping)
    failing = set(on_original.failing)
    survivors = set(mapping.original_lines())
    # an unbuildable slice fails every test, so every passing test is removed
    on_slice = run_suite(slice_program, suite)

    kept_ids = []
    removed = []
    for test in suite:
        if test.id in failing or on_slice.outcomes[test.id].passed:
            kept_ids.append(test.id)
        else:
            coverage = on_original.outcomes[test.id].covered
            if coverage and not (coverage & survivors):
                removed.append(RemovedTest(test.id, COVERS_ONLY_DELETED))
            else:
                removed.append(RemovedTest(test.id, FAILS_ON_SLICE))
    kept = set(kept_ids)
    on_kept = SuiteResult(
        {i: on_slice.outcomes[i] for i in kept_ids},
        tuple(i for i in on_slice.passing if i in kept),
        tuple(i for i in on_slice.failing if i in kept),
    )
    return ReducedSuite(suite.subset(kept_ids), tuple(removed), on_kept)


@dataclass(frozen=True)
class Violation:
    test_id: str
    problem: str


def verify_reduction(
    slice_program: SourceProgram,
    reduced: ReducedSuite,
    baseline: Baseline,
    mapping: LineMapping,
) -> list[Violation]:
    """Check the reduction postcondition on the slice itself.

    Every kept failing test must reproduce its baseline signature (in
    original coordinates), and every other kept test must pass.  Returns
    the violations, empty when the reduction holds.
    """
    violations = []
    on_slice = run_suite(slice_program, reduced.kept).outcomes
    for test in reduced.kept:
        outcome = on_slice[test.id]
        if test.id in baseline.signatures:
            if mapped_signature(test.id, outcome, mapping) != baseline.signatures[test.id]:
                violations.append(
                    Violation(test.id, "failing test does not reproduce its baseline signature")
                )
        elif not outcome.passed:
            violations.append(Violation(test.id, "kept passing test fails on the slice"))
    return violations


def reduction_log_json(reduced: ReducedSuite) -> dict:
    return {
        "kept": reduced.kept.ids(),
        "removed": [{"id": r.id, "reason": r.reason} for r in reduced.removed],
    }
