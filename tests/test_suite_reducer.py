from dataclasses import replace

import pytest

from reducto.harness import TestCase, TestSuite, run_suite
from reducto.slicer import LineMapping, build_criterion, orbs_slice
from reducto.suite_reducer import (
    COVERS_ONLY_DELETED,
    FAILS_ON_SLICE,
    InvalidSlice,
    RemovedTest,
    reduce_suite,
    reduction_log_json,
    verify_reduction,
)
from reducto.source import SourceProgram

from conftest import program

TWO_FN = """\
fn target(a)
return a + a
end

fn helper(x)
return x * 10
end
"""


def two_fn_setup():
    p = program(TWO_FN)
    suite = TestSuite((
        TestCase("t_fail", "target", (2,), "value", 5, budget=10_000),  # 4 != 5: the bug witness
        TestCase("t_keep", "target", (3,), "value", 6, budget=10_000),
        TestCase("t_helper", "helper", (2,), "value", 20, budget=10_000),
    ))
    on_original = run_suite(p, suite)
    baseline = build_criterion(suite, on_original)
    return p, suite, on_original, baseline, orbs_slice(p, baseline)


def test_helper_only_test_removed_with_reason():
    p, suite, on_original, baseline, result = two_fn_setup()
    # the helper function is sliced away (its header and body at least; which
    # interchangeable `end` line survives is a scan-order detail)
    assert {5, 6} <= set(result.deleted)
    assert len(result.slice) == 3
    reduced = reduce_suite(p, result.slice, result.mapping, suite, on_original)
    assert reduced.kept.ids() == ["t_fail", "t_keep"]
    removed = {r.id: r.reason for r in reduced.removed}
    # every line the helper test covered was deleted
    assert removed == {"t_helper": COVERS_ONLY_DELETED}
    # and indeed it no longer passes on the slice
    outcome = run_suite(result.slice, suite.subset(["t_helper"]))
    assert outcome.failing == ("t_helper",)


def test_unbuildable_slice_keeps_only_failing_tests():
    p, suite, on_original, _, _ = two_fn_setup()
    # target loses its `end` and helper is gone: the slice does not parse
    survivors = [1, 2, 4]
    broken = p.without_lines([3, 5, 6, 7])
    reduced = reduce_suite(
        p, broken, LineMapping(tuple(survivors)), suite, on_original
    )
    assert reduced.kept.ids() == ["t_fail"]
    removed = {r.id: r.reason for r in reduced.removed}
    assert removed == {"t_keep": FAILS_ON_SLICE, "t_helper": COVERS_ONLY_DELETED}


def test_failing_tests_always_kept_and_passing_survivors_kept():
    p, suite, on_original, baseline, result = two_fn_setup()
    reduced = reduce_suite(p, result.slice, result.mapping, suite, on_original)
    assert "t_fail" in reduced.kept.ids()
    assert "t_keep" in reduced.kept.ids()


def test_fails_on_slice_reason_when_coverage_partially_survives():
    # the passing test loses its branch on the slice but still covers kept code
    text = """\
fn f(a)
if a > 0
return a + 1
end
return 0 - a
end
"""
    p = program(text)
    suite = TestSuite((
        TestCase("t_fail", "f", (2,), "value", 9, budget=10_000),  # 3 != 9
        TestCase("t_neg", "f", (-4,), "value", 4, budget=10_000),  # exercises the else path
    ))
    on_original = run_suite(p, suite)
    result = orbs_slice(p, build_criterion(suite, on_original))
    assert 5 in result.deleted  # the negative branch is irrelevant to the bug
    reduced = reduce_suite(p, result.slice, result.mapping, suite, on_original)
    removed = {r.id: r.reason for r in reduced.removed}
    assert removed == {"t_neg": FAILS_ON_SLICE}


def test_on_slice_is_the_run_of_the_kept_tests_on_the_slice():
    p, suite, on_original, _, result = two_fn_setup()
    reduced = reduce_suite(p, result.slice, result.mapping, suite, on_original)
    assert reduced.on_slice == run_suite(result.slice, reduced.kept)
    assert reduced.on_slice.failing == ("t_fail",)
    assert reduced.on_slice.passing == ("t_keep",)


def test_invalid_mapping_rejected():
    p, suite, on_original, baseline, result = two_fn_setup()
    bad = LineMapping(tuple(o + 1 for o in result.mapping.original_lines()))
    with pytest.raises(InvalidSlice):
        reduce_suite(p, result.slice, bad, suite, on_original)


def test_mapping_that_swaps_identical_lines_rejected():
    """Every line of the slice, here the whole program, matches the line it
    is mapped to, but the two ``end`` lines trade places."""
    p, suite, on_original, _, _ = two_fn_setup()
    swapped = LineMapping((1, 2, 7, 4, 5, 6, 3))
    assert all(p.line(s) == p.line(o) for s, o in enumerate(swapped.originals, start=1))
    with pytest.raises(InvalidSlice, match="monotonic"):
        reduce_suite(p, p, swapped, suite, on_original)


def test_removed_test_that_covered_nothing_fails_on_slice():
    """A call with the wrong arity covers no line; once the slice deletes
    the callee the test errs differently, and having covered nothing is
    not having covered only deleted code."""
    p, _, _, _, result = two_fn_setup()
    suite = TestSuite((
        TestCase("t_fail", "target", (2,), "value", 5),
        TestCase("t_arity", "helper", (1, 2), "error", "ArityMismatch"),
    ))
    on_original = run_suite(p, suite)
    assert on_original.outcomes["t_arity"].passed
    assert on_original.outcomes["t_arity"].covered == frozenset()
    reduced = reduce_suite(p, result.slice, result.mapping, suite, on_original)
    assert reduced.removed == (RemovedTest("t_arity", FAILS_ON_SLICE),)


def test_idempotence_on_identity_slice():
    p, suite, on_original, baseline, result = two_fn_setup()
    reduced = reduce_suite(p, result.slice, result.mapping, suite, on_original)
    identity = LineMapping.identity(len(result.slice))
    again = reduce_suite(
        result.slice, result.slice, identity, reduced.kept,
        run_suite(result.slice, reduced.kept),
    )
    assert again.kept.ids() == reduced.kept.ids()
    assert again.removed == ()


def test_verify_reduction_clean_and_corrupted():
    p, suite, on_original, baseline, result = two_fn_setup()
    reduced = reduce_suite(p, result.slice, result.mapping, suite, on_original)
    assert verify_reduction(result.slice, reduced, baseline, result.mapping) == []

    corrupted = replace(reduced, kept=suite)  # helper test forced back in
    violations = verify_reduction(result.slice, corrupted, baseline, result.mapping)
    assert [v.test_id for v in violations] == ["t_helper"]


def test_budget_blowup_on_slice_removes_test():
    text = """\
fn f(a)
return a - 1
end

fn slow(n)
let i = 0
while i < n
i = i + 1
end
return i
end
"""
    p = program(text)
    suite = TestSuite((
        TestCase("t_fail", "f", (1,), "value", 5, budget=5_000),
        TestCase("t_slow", "slow", (50,), "value", 50, budget=5_000),
    ))
    on_original = run_suite(p, suite)
    result = orbs_slice(p, build_criterion(suite, on_original))
    # slow() is sliced away entirely; its test cannot pass on the slice
    reduced = reduce_suite(p, result.slice, result.mapping, suite, on_original)
    assert reduced.kept.ids() == ["t_fail"]


def test_reduction_log_shape():
    p, suite, on_original, baseline, result = two_fn_setup()
    reduced = reduce_suite(p, result.slice, result.mapping, suite, on_original)
    log = reduction_log_json(reduced)
    assert log["kept"] == ["t_fail", "t_keep"]
    assert log["removed"] == [{"id": "t_helper", "reason": COVERS_ONLY_DELETED}]


def test_corpus_reductions_verify_clean(corpus_artifacts):
    artifacts, _ = corpus_artifacts
    for name, art in artifacts.items():
        assert verify_reduction(
            art.slice_result.slice, art.reduced, art.baseline, art.slice_result.mapping
        ) == [], name
        # failing-test conservation
        kept = set(art.reduced.kept.ids())
        assert set(art.failing_ids) <= kept, name
        assert len(art.reduced.kept) <= len(art.bundle.suite)
        assert kept | {r.id for r in art.reduced.removed} == set(art.bundle.suite.ids())
