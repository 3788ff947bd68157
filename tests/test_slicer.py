import itertools
import random
from dataclasses import replace

import pytest

from reducto import interp, slicer
from reducto.harness import TestCase, TestSuite, run_suite, signature
from reducto.parser import ParseError, parse
from reducto.slicer import (
    BaselineMismatch,
    LineMapping,
    NoFailingTests,
    build_criterion,
    candidate_accepts,
    deletion_log_json,
    mapped_signature,
    minimality_check,
    orbs_slice,
    slice_result_from_log,
)
from reducto.source import SourceProgram, count_sloc

from conftest import program

BUDGET = 10_000


def value_criterion(p: SourceProgram, fn: str, args: tuple, wrong):
    """Baseline from one failing test at ``BUDGET``: ``fn(args)`` expected
    to return ``wrong``, a value the program does not compute."""
    suite = TestSuite((TestCase("t", fn, args, "value", wrong, budget=BUDGET),))
    return build_criterion(suite, run_suite(p, suite))


# ---------------------------------------------------------------------------
# build_criterion

def test_build_criterion_single_failing(max3_program, max3_suite):
    baseline = build_criterion(max3_suite, run_suite(max3_program, max3_suite))
    assert [t.id for t in baseline.tests] == ["t4"]
    assert list(baseline.signatures) == ["t4"]
    sig = baseline.signatures["t4"]
    assert sig.outcome == "Fail"


def test_build_criterion_no_failing_tests(max3_program):
    all_pass = TestSuite((TestCase("p", "max3", (3, 1, 2), "value", 3),))
    with pytest.raises(NoFailingTests):
        build_criterion(all_pass, run_suite(max3_program, all_pass))


TWO_BUG = """\
fn alpha(xs)
return xs[5]
end

fn beta(a)
return a + true
end
"""


def test_build_criterion_two_distinct_error_kinds():
    p = program(TWO_BUG)
    suite = TestSuite((
        TestCase("tb", "beta", (1,), "value", 1),
        TestCase("ta", "alpha", ((1, 2),), "value", 1),
    ))
    baseline = build_criterion(suite, run_suite(p, suite))
    assert [t.id for t in baseline.tests] == ["tb", "ta"]  # suite order
    assert baseline.signatures["ta"].error_kind == "IndexOutOfBounds"
    assert baseline.signatures["tb"].error_kind == "TypeError"


# ---------------------------------------------------------------------------
# candidate_accepts

GUARDED = """\
fn main(x)
# compute a shifted copy
let r = x + 1
let dead = x * 100
return r
end
"""


def test_comment_deletion_accepted():
    p = program(GUARDED)
    baseline = value_criterion(p, "main", (3,), 5)  # computes 4
    cand = p.without_lines([2])
    verdict = candidate_accepts(cand, baseline, LineMapping((1, 3, 4, 5, 6)), interp.Scope())
    assert verdict.accepted


def test_deleting_watched_assignment_rejected():
    # the returned variable's assignment is what the failing test observes
    p = program(GUARDED)
    baseline = value_criterion(p, "main", (3,), 5)
    cand = p.without_lines([3])
    cand_map = LineMapping((1, 2, 4, 5, 6))
    verdict = candidate_accepts(cand, baseline, cand_map, interp.Scope())
    assert not verdict.accepted
    assert verdict.reason == "BehaviorChanged"
    # direct re-execution shows the difference: r is now undefined
    test = baseline.tests[0]
    outcome = run_suite(cand, TestSuite((test,))).outcomes[test.id]
    observed = mapped_signature(test.id, outcome, cand_map)
    assert (observed.outcome, observed.error_kind, observed.error_line) == (
        "Errored", "UndefinedVariable", 5,
    )


def test_unbalanced_deletion_rejected(max3_program, max3_suite):
    baseline = build_criterion(max3_suite, run_suite(max3_program, max3_suite))
    cand = max3_program.without_lines([6])  # if header without its end
    verdict = candidate_accepts(
        cand, baseline, LineMapping((1, 2, 3, 4, 5, 7, 8, 9, 10)), interp.Scope()
    )
    assert not verdict.accepted
    assert verdict.reason == "Unbuildable"


def test_error_lines_compared_in_original_coordinates():
    text = "fn f(xs)\n# padding comment\nreturn xs[9]\nend\n"
    p = program(text)
    suite = TestSuite((TestCase("t", "f", ((1,),), "value", 1),))
    baseline = build_criterion(suite, run_suite(p, suite))
    assert baseline.signatures["t"].error_line == 3
    cand = p.without_lines([2])  # error now occurs at candidate line 2
    verdict = candidate_accepts(cand, baseline, LineMapping((1, 3, 4)), interp.Scope())
    assert verdict.accepted


def test_budget_exceeded_where_baseline_had_none_rejected():
    text = "fn f(n)\nlet i = 0\nwhile i < n\ni = i + 1\nend\nreturn i\nend\n"
    p = program(text)
    baseline = value_criterion(p, "f", (3,), 4)  # computes 3
    cand = SourceProgram(tuple(
        ln if i != 4 else "i = i + 0" for i, ln in enumerate(p.lines, start=1)
    ))
    # not a deletion, but candidate_accepts takes any program
    verdict = candidate_accepts(cand, baseline, LineMapping.identity(len(cand)), interp.Scope())
    assert not verdict.accepted and verdict.reason == "BehaviorChanged"


# ---------------------------------------------------------------------------
# orbs_slice on hand fixtures

ALL_LIVE = """\
fn main(a)
let b = a + 1
let c = b * 2
return c
end
"""


def test_every_statement_feeding_criterion_keeps_program_intact():
    p = program(ALL_LIVE)
    baseline = value_criterion(p, "main", (2,), 7)  # computes 6
    result = orbs_slice(p, baseline)
    assert result.deleted == ()
    assert result.slice.lines == p.lines
    assert result.passes == 1  # a pass that deletes nothing ends the scan
    assert result.mapping == LineMapping.identity(5)


DEAD_BRANCH = """\
fn main(a)
let r = a * 2
if a < 0
let d1 = a + 1
let d2 = d1 * 3
print d2
end
let r2 = r + 1
return r2
end
"""


def brute_force_accept(base: SourceProgram, drop: set, tests: TestSuite):
    """Oracle acceptance written from scratch: parse, run every test, and
    compare signatures with error lines mapped back to the base program."""
    kept = [i for i in range(1, len(base) + 1) if i not in drop]
    cand = SourceProgram(tuple(base.line(i) for i in kept))
    try:
        parse(cand)
    except ParseError:
        return False
    before = run_suite(base, tests).outcomes
    after = run_suite(cand, tests).outcomes
    for test in tests:
        got = signature(test.id, after[test.id])
        if got.error_line:
            got = replace(got, error_line=kept[got.error_line - 1])
        if got != signature(test.id, before[test.id]):
            return False
    return True


def test_dead_branch_slice_matches_brute_force_maximal_set():
    p = program(DEAD_BRANCH)
    baseline = value_criterion(p, "main", (5,), 12)  # computes 11
    result = orbs_slice(p, baseline)
    tests = TestSuite(baseline.tests)

    # independent enumeration over all 2^10 deletion subsets
    n = len(p)
    accepted_sets = [
        frozenset(drop)
        for size in range(n + 1)
        for drop in itertools.combinations(range(1, n + 1), size)
        if brute_force_accept(p, set(drop), tests)
    ]
    max_size = max(len(s) for s in accepted_sets)
    maximal = [s for s in accepted_sets if len(s) == max_size]
    assert len(maximal) == 1, "fixture must have a unique maximal deletable set"
    assert set(result.deleted) == set(maximal[0])
    # the three dead statements are among the deleted lines
    assert {4, 5, 6} <= set(result.deleted)
    assert result.passes <= len(result.deleted) + 1


GUARD_PAIR = """\
fn main(x)
let r = x + 1
if x > 100
end
return r
end
"""


def test_guard_and_end_need_window_of_two(monkeypatch):
    p = program(GUARD_PAIR)
    baseline = value_criterion(p, "main", (1,), 3)  # computes 2
    monkeypatch.setattr(slicer, "DELTA", 1)
    narrow = orbs_slice(p, baseline)
    assert 3 not in narrow.deleted and 4 not in narrow.deleted
    monkeypatch.setattr(slicer, "DELTA", 2)
    wide = orbs_slice(p, baseline)
    assert {3, 4} <= set(wide.deleted)


def test_budget_exceeded_signature_is_preserved_through_slicing():
    # a failing test that spins forever: candidates must keep spinning
    p = program(
        "fn f(n)\nlet junk = n * 9\nlet i = 0\nwhile i < n\ni = i + 0\nend\n"
        "return i\nend\n"
    )
    suite = TestSuite((
        TestCase("t_spin", "f", (5,), "value", 5, budget=2_000),
        TestCase("t_zero", "f", (0,), "value", 0, budget=2_000),
    ))
    baseline = build_criterion(suite, run_suite(p, suite))
    assert baseline.signatures["t_spin"].outcome == "BudgetExceeded"
    result = orbs_slice(p, baseline)
    # the junk store, the useless increment and the unreachable return all go
    assert {2, 5, 7} <= set(result.deleted)
    assert result.passes <= len(result.deleted) + 1
    report = minimality_check(result.slice, baseline, result.mapping)
    assert report.minimal


def test_each_buildable_candidate_is_compiled_once(max3_program, max3_suite, monkeypatch):
    baseline = build_criterion(max3_suite, run_suite(max3_program, max3_suite))
    compiles = []
    verdicts = []
    compile_ast, accepts = interp.compile_ast, slicer.candidate_accepts

    def counting_compile(ast, scope):
        compiles.append(ast)
        return compile_ast(ast, scope)

    def recording_accepts(*args):
        verdict = accepts(*args)
        verdicts.append(verdict)
        return verdict

    monkeypatch.setattr(interp, "compile_ast", counting_compile)
    monkeypatch.setattr(slicer, "candidate_accepts", recording_accepts)
    orbs_slice(max3_program, baseline)
    buildable = [v for v in verdicts if v.reason != "Unbuildable"]
    assert buildable and len(compiles) == len(buildable)


def test_baseline_mismatch_raises(max3_program, max3_suite):
    baseline = build_criterion(max3_suite, run_suite(max3_program, max3_suite))
    other = program("fn max3(a, b, c)\nreturn a\nend\n")
    with pytest.raises(BaselineMismatch):
        orbs_slice(other, baseline)


def test_slice_result_invariants(corpus_artifacts):
    artifacts, _ = corpus_artifacts
    for name, art in artifacts.items():
        result = art.slice_result
        p = art.bundle.program
        survivors = result.mapping.original_lines()
        # strictly monotonic mapping, partition of the original lines
        assert list(survivors) == sorted(survivors)
        assert set(survivors) | set(result.deleted) == set(range(1, len(p) + 1))
        assert not (set(survivors) & set(result.deleted))
        # pure deletion: slice text equals the original minus deleted lines
        assert result.slice.lines == tuple(p.line(o) for o in survivors)
        # stats consistency
        assert result.original_sloc == count_sloc(p)
        assert result.slice_sloc == count_sloc(result.slice)
        assert result.slice_sloc <= result.original_sloc
        expected_pct = 100.0 * result.slice_sloc / result.original_sloc
        assert abs(result.percent - expected_pct) < 1e-12
        assert result.passes <= len(result.deleted) + 1, name


def test_slice_behavior_preservation_on_corpus(corpus_artifacts):
    artifacts, _ = corpus_artifacts
    for art in artifacts.values():
        outcomes = run_suite(art.slice_result.slice, TestSuite(art.baseline.tests)).outcomes
        for test in art.baseline.tests:
            observed = mapped_signature(test.id, outcomes[test.id], art.slice_result.mapping)
            assert observed == art.baseline.signatures[test.id]


def test_slice_determinism(corpus_bundles):
    bundle = next(b for b in corpus_bundles if b.name == "b01_pick_max3")
    baseline = build_criterion(bundle.suite, run_suite(bundle.program, bundle.suite))
    a = orbs_slice(bundle.program, baseline)
    b = orbs_slice(bundle.program, baseline)
    assert a.slice.to_text() == b.slice.to_text()
    assert a.deleted == b.deleted
    assert a.mapping == b.mapping


def test_fixpoint_rejects_every_window_up_to_delta(corpus_artifacts):
    artifacts, _ = corpus_artifacts
    art = artifacts["b04_rate_of"]
    result = art.slice_result
    slice_program = result.slice
    originals = list(result.mapping.original_lines())
    for start in range(1, len(slice_program) + 1):
        for width in range(1, slicer.DELTA + 1):
            if start + width - 1 > len(slice_program):
                break
            cand = slice_program.without_lines(range(start, start + width))
            cand_map = LineMapping((*originals[:start - 1], *originals[start - 1 + width:]))
            verdict = candidate_accepts(cand, art.baseline, cand_map, interp.Scope())
            assert not verdict.accepted, (start, width)


# ---------------------------------------------------------------------------
# minimality

def test_orbs_output_is_single_line_minimal(max3_program, max3_suite):
    baseline = build_criterion(max3_suite, run_suite(max3_program, max3_suite))
    result = orbs_slice(max3_program, baseline)
    report = minimality_check(result.slice, baseline, result.mapping)
    assert report.minimal


def test_reinserted_comment_breaks_minimality():
    p = program(DEAD_BRANCH)
    baseline = value_criterion(p, "main", (5,), 12)
    result = orbs_slice(p, baseline)
    lines = list(result.slice.lines)
    lines.insert(1, "# a deletable comment")
    padded = SourceProgram(tuple(lines))
    originals = list(result.mapping.original_lines())
    # the inserted line has no original counterpart; give it a fresh number
    padded_map = LineMapping((originals[0], 0, *originals[1:]))
    report = minimality_check(padded, baseline, padded_map)
    assert not report.minimal
    assert report.counterexample == 2


def random_straightline_program(rng: random.Random) -> SourceProgram:
    """Random terminating fixture: lets, prints and if blocks, no loops."""
    lines = ["fn main(a)"]
    vars_in_scope = ["a"]
    open_blocks = 0
    body = rng.randint(4, 16)
    for k in range(body):
        choice = rng.random()
        if choice < 0.2 and open_blocks < 2:
            v = rng.choice(vars_in_scope)
            lines.append(f"if {v} > {rng.randint(-5, 5)}")
            open_blocks += 1
        elif choice < 0.35 and open_blocks:
            lines.append("end")
            open_blocks -= 1
        elif choice < 0.5:
            lines.append(f"print {rng.choice(vars_in_scope)}")
        else:
            name = f"v{k}"
            left = rng.choice(vars_in_scope)
            right = rng.choice(vars_in_scope + [str(rng.randint(1, 9))])
            op = rng.choice(["+", "-", "*"])
            lines.append(f"let {name} = {left} {op} {right}")
            vars_in_scope.append(name)
    while open_blocks:
        lines.append("end")
        open_blocks -= 1
    lines.append(f"return {vars_in_scope[-1]}")
    lines.append("end")
    return SourceProgram(tuple(lines), "random")


def test_minimality_agrees_with_brute_force_on_random_programs():
    rng = random.Random(20260809)
    checked = 0
    while checked < 20:
        p = random_straightline_program(rng)
        assert len(p) <= 25
        args = (rng.randint(-3, 6),)
        run = interp.execute(interp.Scope().build(p), "main", list(args))
        # expect a value the program does not return (an error fails anyway)
        wrong = run.return_value + 1 if run.status == "completed" else 0
        baseline = value_criterion(p, "main", args, wrong)
        report = minimality_check(p, baseline)
        # independent oracle: enumerate single-line deletions from scratch
        tests = TestSuite(baseline.tests)
        oracle_deletable = [
            i for i in range(1, len(p) + 1) if brute_force_accept(p, {i}, tests)
        ]
        if report.minimal:
            assert oracle_deletable == []
        else:
            assert oracle_deletable, "checker found a deletion the oracle denies"
            assert report.counterexample == oracle_deletable[0]
        checked += 1


# ---------------------------------------------------------------------------
# deletion log round trip

def test_deletion_log_round_trip(corpus_artifacts):
    artifacts, _ = corpus_artifacts
    art = artifacts["b06_scale_ratio"]
    log = deletion_log_json(art.slice_result)
    rebuilt, mapping = slice_result_from_log(art.bundle.program, log)
    assert rebuilt.lines == art.slice_result.slice.lines
    assert mapping == art.slice_result.mapping
