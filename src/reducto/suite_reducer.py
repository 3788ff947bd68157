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
from .slicer import LineMapping
from .source import SourceProgram

FAILS_ON_SLICE = "FailsOnSlice"
COVERS_ONLY_DELETED = "CoversOnlyDeletedCode"


@dataclass(frozen=True)
class RemovedTest:
    id: str
    reason: str  # FailsOnSlice | CoversOnlyDeletedCode


@dataclass(frozen=True)
class ReducedSuite:
    kept: TestSuite
    removed: tuple[RemovedTest, ...]
    on_slice: SuiteResult  # the kept tests' run on the slice, in suite order


def reduce_suite(
    slice_program: SourceProgram,
    mapping: LineMapping,
    suite: TestSuite,
    on_original: SuiteResult,
) -> ReducedSuite:
    """Produce the reduced suite: every original failing test, plus every
    passing test that still passes on the slice.  ``mapping`` places the
    slice's lines in the original program, as ``orbs_slice`` or
    ``slice_result_from_log`` built them with the slice, and
    ``on_original`` is the suite run on the original; the whole suite runs
    once on the slice, and the kept tests' part of that run is returned
    too."""
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


def reduction_log_json(reduced: ReducedSuite) -> dict:
    return {
        "kept": reduced.kept.ids(),
        "removed": [{"id": r.id, "reason": r.reason} for r in reduced.removed],
    }
