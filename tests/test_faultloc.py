import math
import random

import pytest

from reducto.faultloc import (
    CoverageSpectrum,
    PROV_ORIGINAL,
    PROV_PRUNED,
    PROV_REGENERATED,
    RankedLine,
    SuspiciousList,
    collect_spectrum,
    localize,
    ochiai,
    prune_list,
    rank,
    regenerate_list,
    suspicious_json,
)
from reducto.harness import TestCase, TestSuite, run_suite
from reducto.slicer import LineMapping, NoFailingTests

from conftest import MAX3_BUG_LINE, program


def spectrum(failed_total, passed_total, e_f, e_p):
    return CoverageSpectrum(failed_total, passed_total, dict(e_f), dict(e_p))


# ---------------------------------------------------------------------------
# collect_spectrum

def test_spectrum_trivial_tally():
    p = program("fn f(a)\nlet x = a\nif a > 0\nx = x + 1\nend\nreturn x\nend\n")
    suite = TestSuite((
        TestCase("fail", "f", (1,), "value", 99),  # covers the increment
        TestCase("pass", "f", (-1,), "value", -1),  # skips it
    ))
    s = collect_spectrum(run_suite(p, suite))
    assert s.failed_total == 1 and s.passed_total == 1
    assert s.executed_failed[4] == 1 and s.executed_passed.get(4, 0) == 0
    assert s.executed_failed[3] == 1 and s.executed_passed[3] == 1


def test_spectrum_all_unbuildable():
    p = program("fn f(\nend\n")
    suite = TestSuite((
        TestCase("a", "f", (), "value", 1),
        TestCase("b", "f", (), "value", 2),
    ))
    s = collect_spectrum(run_suite(p, suite))
    assert s.failed_total == 2 and s.passed_total == 0
    assert s.executed_failed == {} and s.executed_passed == {}


def test_spectrum_recount_from_per_test_dumps(max3_program, max3_suite):
    result = run_suite(max3_program, max3_suite)
    s = collect_spectrum(result)
    # independent recount from stored per-test coverage
    failing = set(result.failing)
    for line in s.lines():
        ef = sum(
            1 for t in max3_suite if t.id in failing and line in result.outcomes[t.id].covered
        )
        ep = sum(
            1 for t in max3_suite if t.id not in failing and line in result.outcomes[t.id].covered
        )
        assert s.counts(line)[0] == ef and s.counts(line)[1] == ep


def test_binary_per_test_contribution():
    # a loop executes one line many times, but each test counts once
    p = program("fn f(n)\nlet i = 0\nwhile i < n\ni = i + 1\nend\nreturn i\nend\n")
    suite = TestSuite((TestCase("fail", "f", (10,), "value", 0),))
    s = collect_spectrum(run_suite(p, suite))
    assert s.executed_failed[4] == 1


# ---------------------------------------------------------------------------
# ochiai

def test_ochiai_pinned_values():
    s = spectrum(1, 0, {7: 1}, {})
    assert ochiai(s)[7] == 1.0
    s = spectrum(2, 3, {7: 0}, {7: 2})
    assert ochiai(s)[7] == 0.0
    # e_f=1, n_f=0, e_p=1: 1/sqrt(1*2), pinned to 12 decimal places
    s = spectrum(1, 1, {7: 1}, {7: 1})
    assert abs(ochiai(s)[7] - 0.7071067811865475) < 1e-12


def test_ochiai_matches_high_precision_oracle_on_random_spectra():
    import mpmath

    mpmath.mp.dps = 50
    rng = random.Random(13)
    for _ in range(1000):
        failed_total = rng.randint(0, 40)
        passed_total = rng.randint(0, 40)
        lines = rng.sample(range(1, 51), rng.randint(1, 12))
        e_f = {l: rng.randint(0, failed_total) for l in lines}
        e_p = {l: rng.randint(0, passed_total) for l in lines}
        s = spectrum(failed_total, passed_total, e_f, e_p)
        scores = ochiai(s)
        for line in lines:
            ef, ep = e_f[line], e_p[line]
            nf = failed_total - ef
            denominator = mpmath.sqrt(mpmath.mpf(ef + nf) * mpmath.mpf(ef + ep))
            expected = float(mpmath.mpf(ef) / denominator) if denominator > 0 else 0.0
            assert abs(scores[line] - expected) <= 1e-12
            assert 0.0 <= scores[line] <= 1.0


# ---------------------------------------------------------------------------
# rank

def test_rank_tie_break_and_zero_exclusion():
    ranked = rank({5: 0.9, 2: 0.9, 7: 0.1, 9: 0.0})
    assert [(e.line, e.rank) for e in ranked.entries] == [(2, 1), (5, 2), (7, 3)]
    assert rank({3: 0.0, 4: 0.0}).entries == ()


def test_max3_bug_line_ranks_first(max3_program, max3_suite):
    # hand computation over the six-test spectrum: the failing test t4
    # (1,0,5) covers lines 1,2,3,5,6,7,8,9 (b=0>1 is false, so `m = b` on
    # line 4 is failing-uncovered and excluded).  The buggy copy on line 7
    # is covered by no passing test: 1/sqrt(1) = 1.0, rank one.  Every
    # other failing-covered line is covered by all five passing tests:
    # 1/sqrt(6), tie-broken by line number.
    suspicious = localize(run_suite(max3_program, max3_suite))
    assert suspicious.entries[0].line == MAX3_BUG_LINE
    assert suspicious.entries[0].score == 1.0
    assert all(
        abs(e.score - 1 / math.sqrt(6)) < 1e-12 for e in suspicious.entries[1:]
    )
    assert [e.line for e in suspicious.entries] == [7, 1, 2, 3, 5, 6, 8, 9]
    assert [e.rank for e in suspicious.entries] == list(range(1, 9))


# ---------------------------------------------------------------------------
# prune / regenerate

def make_list(lines_scores, provenance=PROV_ORIGINAL):
    entries = tuple(
        RankedLine(line, score, i)
        for i, (line, score) in enumerate(lines_scores, start=1)
    )
    return SuspiciousList(provenance, entries)


def test_prune_drops_deleted_lines_and_redensifies():
    original = make_list([(4, 0.9), (9, 0.8), (2, 0.7)])
    mapping = LineMapping((1, 2, 3, 4, 5))  # line 9 deleted
    pruned = prune_list(original, mapping)
    assert pruned.provenance == PROV_PRUNED
    assert [(e.line, e.rank) for e in pruned.entries] == [(4, 1), (2, 2)]


def test_prune_identity_when_nothing_deleted():
    original = make_list([(4, 0.9), (2, 0.7)])
    mapping = LineMapping.identity(10)
    pruned = prune_list(original, mapping)
    assert [(e.line, e.score, e.rank) for e in pruned.entries] == [
        (e.line, e.score, e.rank) for e in original.entries
    ]


def test_pruned_rank_never_worse_and_subsequence(corpus_artifacts):
    artifacts, _ = corpus_artifacts
    for name, art in artifacts.items():
        original = art.list_original
        pruned = art.list_pruned
        ranks = {e.line: e.rank for e in original.entries}
        pruned_lines = [e.line for e in pruned.entries]
        original_lines = [e.line for e in original.entries]
        # subsequence of the original order
        it = iter(original_lines)
        assert all(line in it for line in pruned_lines), name
        for entry in pruned.entries:
            assert entry.rank <= ranks[entry.line], name


def test_math5_shape_absence_anomaly(corpus_artifacts):
    artifacts, _ = corpus_artifacts
    art = artifacts["b06_scale_ratio"]
    bug_line = art.bundle.ground_truth.bug_line
    assert art.list_original.entries[0].line == bug_line  # rank one originally
    assert art.list_pruned.rank_of(bug_line) is None  # pruned away
    runner_up = art.list_pruned.entries[0]
    assert runner_up.line != bug_line


def test_regenerate_identity_on_degenerate_slice():
    text = "fn f(a)\nlet b = a + 1\nreturn b\nend\n"
    p = program(text)
    suite = TestSuite((
        TestCase("fail", "f", (1,), "value", 0),
        TestCase("pass", "f", (2,), "value", 3),
    ))
    run = run_suite(p, suite)
    original = localize(run)
    regenerated = regenerate_list(run, LineMapping.identity(len(p)))
    assert regenerated.provenance == PROV_REGENERATED
    assert [(e.line, e.score, e.rank) for e in regenerated.entries] == [
        (e.line, e.score, e.rank) for e in original.entries
    ]


def test_regenerate_requires_failing_test():
    p = program("fn f(a)\nreturn a\nend\n")
    passing = TestSuite((TestCase("p", "f", (1,), "value", 1),))
    with pytest.raises(NoFailingTests):
        regenerate_list(run_suite(p, passing), LineMapping.identity(3))


def test_regenerated_rank_improves_when_noise_is_sliced(corpus_artifacts):
    # the rank-gain bundle hides the bug behind dead stores that slicing
    # removes; both derived lists must rank the true bug line strictly better
    artifacts, _ = corpus_artifacts
    art = artifacts["b07_bonus_amount"]
    bug_line = art.bundle.ground_truth.bug_line
    rank_original = art.list_original.rank_of(bug_line)
    rank_pruned = art.list_pruned.rank_of(bug_line)
    rank_regenerated = art.list_regenerated.rank_of(bug_line)
    assert rank_original == 3  # behind the two audit stores
    assert rank_pruned == 1 and rank_regenerated == 1
    assert rank_pruned < rank_original and rank_regenerated < rank_original


def test_regenerated_can_rank_worse_with_same_score_competitor():
    # adversarial shape: passing tests that separate the early lines from
    # the bug line all die with the sliced-away branch, so on the slice
    # everything ties at 1.0 and the dense tie-break by line number pushes
    # the bug line below its original rank
    text = """\
fn f(a, flag)
let t = a * 2
if flag
return t + a
end
return t + 1
end
"""
    p = program(text)
    suite = TestSuite((
        TestCase("fail", "f", (2, False), "value", 3, budget=10_000),   # actual 5
        TestCase("pass1", "f", (3, True), "value", 9, budget=10_000),
        TestCase("pass2", "f", (4, True), "value", 12, budget=10_000),
    ))
    original = localize(run_suite(p, suite))
    ranks = {e.line: e.rank for e in original.entries}
    bug_line = 6
    assert ranks[bug_line] == 2  # behind the if-end join, ahead of lines 1-3

    from reducto.slicer import build_criterion, orbs_slice
    from reducto.suite_reducer import reduce_suite

    on_original = run_suite(p, suite)
    result = orbs_slice(p, build_criterion(suite, on_original))
    assert {3, 4, 5} <= set(result.deleted)
    reduced = reduce_suite(p, result.slice, result.mapping, suite, on_original)
    assert reduced.kept.ids() == ["fail"]
    on_slice = run_suite(result.slice, reduced.kept)
    regenerated = regenerate_list(on_slice, result.mapping)
    assert regenerated.rank_of(bug_line) > ranks[bug_line]
    # while the pruned list, by construction, can only improve the rank
    pruned = prune_list(original, result.mapping)
    assert pruned.rank_of(bug_line) <= ranks[bug_line]


def test_rank_of_basics():
    ranked = make_list([(4, 0.9), (2, 0.8), (9, 0.1)])
    assert ranked.rank_of(2) == 2
    assert ranked.rank_of(5) is None


def test_suspicious_json_shape():
    ranked = make_list([(4, 0.75)])
    assert suspicious_json(ranked) == [{"line": 4, "score": 0.75, "rank": 1}]


def test_ochiai_bounds_fuzz():
    rng = random.Random(99)
    for _ in range(1000):
        ft, pt = rng.randint(0, 30), rng.randint(0, 30)
        line_count = rng.randint(1, 8)
        s = spectrum(
            ft, pt,
            {l: rng.randint(0, ft) for l in range(1, line_count + 1)},
            {l: rng.randint(0, pt) for l in range(1, line_count + 1)},
        )
        for score in ochiai(s).values():
            assert 0.0 <= score <= 1.0


def test_lists_are_deterministic(corpus_bundles):
    bundle = next(b for b in corpus_bundles if b.name == "b03_series_sum")
    a = localize(run_suite(bundle.program, bundle.suite))
    b = localize(run_suite(bundle.program, bundle.suite))
    assert suspicious_json(a) == suspicious_json(b)
