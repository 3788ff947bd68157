import itertools
from dataclasses import fields
from types import SimpleNamespace

import pytest

from reducto import repair as repair_mod
from reducto.interp import Scope
from reducto.faultloc import RankedLine, SuspiciousList, localize
from reducto.harness import TestCase, TestSuite, run_suite
from reducto.parser import MAX_BLOCK_DEPTH, ParseError, parse
from reducto.repair import (
    DeleteLine,
    InsertGuard,
    ReplaceLine,
    apply_edit,
    applicable_templates,
    edit_new_text,
    generate_candidates,
    map_patch_to_original,
    repair,
    validate_patch,
    validation_order,
)
from reducto.slicer import LineMapping
from reducto.source import SourceProgram

from conftest import MAX3_BUG_LINE, program
from oracles import identity


def validate(candidate, source, suite, failing_ids):
    """``validate_patch`` of a candidate that edits ``source``, as
    ``repair`` makes it, in a scope of its own."""
    return validate_patch(
        candidate, validation_order(suite, failing_ids), set(failing_ids), Scope(),
        (source, parse(source)),
    )


def make_list(lines):
    return SuspiciousList(
        tuple(RankedLine(line, 1.0 / rank, rank) for rank, line in enumerate(lines, start=1)),
    )


# ---------------------------------------------------------------------------
# applicable_templates

def test_relational_line_gets_t1_variants_and_negation():
    p = program("fn f(a, b)\nif a < b\nreturn 1\nend\nreturn 0\nend\n")
    insts = applicable_templates(p, parse(p), 2)
    t1 = [i.edit.text for i in insts if i.template == "T1"]
    assert t1 == ["if a <= b", "if a > b", "if a >= b", "if a == b", "if a != b"]
    t3 = [i.edit.text for i in insts if i.template == "T3"]
    assert t3 == ["if not (a < b)"]
    # structural line: no deletion, no guard wrap
    assert not any(i.template in ("T6", "T8") for i in insts)


def test_return_substitution_uses_in_scope_variables():
    p = program("fn f(x)\nlet y = x + 1\nlet z = y * 2\nreturn x\nend\n")
    insts = applicable_templates(p, parse(p), 4)
    t7 = [i.edit.text for i in insts if i.template == "T7"]
    assert t7 == ["return y", "return z"]


def test_comment_and_blank_lines_yield_nothing():
    p = program("fn f()\n# note\n\nreturn 1\nend\n")
    assert applicable_templates(p, parse(p), 2) == []
    assert applicable_templates(p, parse(p), 3) == []
    # fn header and end also yield nothing
    assert applicable_templates(p, parse(p), 1) == []
    assert applicable_templates(p, parse(p), 5) == []


def test_constant_mutation_order_and_skips():
    p = program("fn f(a)\nreturn a + 2\nend\n")
    t4 = [i.edit.text for i in applicable_templates(p, parse(p), 2) if i.template == "T4"]
    assert t4 == ["return a + 3", "return a + 1", "return a + 0", "return a + -2"]
    p0 = program("fn f(a)\nreturn a + 0\nend\n")
    t4 = [i.edit.text for i in applicable_templates(p0, parse(p0), 2) if i.template == "T4"]
    assert t4 == ["return a + 1", "return a + -1"]  # 0 and -0 collapse away
    p1 = program("fn f(a)\nreturn a + 1\nend\n")
    t4 = [i.edit.text for i in applicable_templates(p1, parse(p1), 2) if i.template == "T4"]
    assert t4 == ["return a + 2", "return a + 0", "return a + -1"]  # 1 - 1 is the 0


def test_index_offsets_and_guards():
    p = program("fn f(xs, i)\nreturn xs[i]\nend\n")
    insts = applicable_templates(p, parse(p), 2)
    t5 = [i.edit.text for i in insts if i.template == "T5"]
    assert t5 == ["return xs[i + 1]", "return xs[i - 1]"]
    t8 = [i.edit for i in insts if i.template == "T8"]
    assert [g.guard for g in t8] == ["if i >= 0 and i < len(xs)"]
    assert all(g.closer == "end" for g in t8)


def test_division_guard_has_int_and_float_variants():
    p = program("fn f(a, b)\nreturn a / b\nend\n")
    t8 = [i.edit.guard for i in applicable_templates(p, parse(p), 2) if i.template == "T8"]
    assert t8 == ["if b != 0", "if b != 0.0"]


def test_arithmetic_positions_enumerate_left_to_right():
    p = program("fn f(a, b)\nreturn a + b * 2\nend\n")
    t2 = [i.edit.text for i in applicable_templates(p, parse(p), 2) if i.template == "T2"]
    assert t2[:4] == [
        "return a - b * 2", "return a * b * 2", "return a / b * 2", "return a % b * 2",
    ]
    assert t2[4:] == [
        "return a + b + 2", "return a + b - 2", "return a + b / 2", "return a + b % 2",
    ]


def test_variable_use_substitution_skips_targets():
    p = program("fn f(a, b)\nlet c = a + 1\nc = a + b\nreturn c\nend\n")
    t9 = [i.edit.text for i in applicable_templates(p, parse(p), 3) if i.template == "T9"]
    # uses are a then b; the assignment target c is not a use
    assert t9 == ["c = b + b", "c = c + b", "c = a + a", "c = a + c"]


def _pinned(text: str, line: int) -> list:
    p = program(text)
    return [
        (i.template, i.edit.text if isinstance(i.edit, ReplaceLine) else i.edit)
        for i in applicable_templates(p, parse(p), line)
    ]


def test_every_site_inside_an_array_literal():
    assert _pinned("fn f(x, y)\nlet a = [x + 2, y]\nreturn a\nend\n", 2) == [
        ("T2", "let a = [x - 2, y]"), ("T2", "let a = [x * 2, y]"),
        ("T2", "let a = [x / 2, y]"), ("T2", "let a = [x % 2, y]"),
        ("T4", "let a = [x + 3, y]"), ("T4", "let a = [x + 1, y]"),
        ("T4", "let a = [x + 0, y]"), ("T4", "let a = [x + -2, y]"),
        ("T6", DeleteLine()),
        ("T9", "let a = [y + 2, y]"), ("T9", "let a = [x + 2, x]"),
    ]


def test_every_site_under_a_negation():
    assert _pinned("fn f(a, b)\nif not a < b\nreturn 1\nend\nreturn 0\nend\n", 2) == [
        ("T1", "if not a <= b"), ("T1", "if not a > b"), ("T1", "if not a >= b"),
        ("T1", "if not a == b"), ("T1", "if not a != b"),
        ("T3", "if not (not a < b)"),
        ("T9", "if not b < b"), ("T9", "if not a < a"),
    ]


@pytest.mark.parametrize(
    "line,negation",
    [
        ("if not (a < b)", "if not (not (a < b))"),
        ("if (a < b) and c", "if not ((a < b) and c)"),
        ("while (i < n)", "while not ((i < n))"),
    ],
)
def test_t3_candidates_on_parenthesized_conditions_parse(line, negation):
    p = program(f"fn f(a, b, c, i, n)\n{line}\nend\nreturn 0\nend\n")
    t3 = [inst for inst in applicable_templates(p, parse(p), 2) if inst.template == "T3"]
    assert t3[-1].edit.text == negation
    for inst in t3:
        parse(apply_edit(p, 2, inst.edit))


def test_nested_indexes_enumerate_the_outer_index_first():
    # Both Index nodes start at ``a``: the order comes from the pre-order walk.
    assert _pinned("fn f(a, i, j)\nreturn a[i][j]\nend\n", 2) == [
        ("T5", "return a[i][j + 1]"), ("T5", "return a[i][j - 1]"),
        ("T5", "return a[i + 1][j]"), ("T5", "return a[i - 1][j]"),
        ("T6", DeleteLine()),
        ("T7", "return a"), ("T7", "return i"), ("T7", "return j"),
        ("T8", InsertGuard("if j >= 0 and j < len(a[i])", "end")),
        ("T8", InsertGuard("if i >= 0 and i < len(a)", "end")),
        ("T9", "return i[i][j]"), ("T9", "return j[i][j]"),
        ("T9", "return a[a][j]"), ("T9", "return a[j][j]"),
        ("T9", "return a[i][a]"), ("T9", "return a[i][i]"),
    ]


def test_constants_inside_len_and_call_arguments():
    text = "fn g(k, m)\nreturn k\nend\nfn f(x)\nprint len(g(x, 2))\nend\n"
    assert _pinned(text, 5) == [
        ("T4", "print len(g(x, 3))"), ("T4", "print len(g(x, 1))"),
        ("T4", "print len(g(x, 0))"), ("T4", "print len(g(x, -2))"),
        ("T6", DeleteLine()),
    ]


NESTED_BLOCKS = """\
fn f(n)
let i = 0
while i < n
if i > 2
let a = i
else
let b = i
end
i = i + 1
end
return i
end
"""


def test_statements_and_scope_reach_into_while_and_else_bodies():
    assert _pinned(NESTED_BLOCKS, 7) == [
        ("T6", DeleteLine()), ("T9", "let b = n"), ("T9", "let b = a"),
    ]
    # T9's substitutions of ``i`` repeat T7's returns, so they go
    assert _pinned(NESTED_BLOCKS, 11) == [
        ("T6", DeleteLine()),
        ("T7", "return n"), ("T7", "return a"), ("T7", "return b"),
    ]


def test_no_corpus_line_yields_an_edit_twice(corpus_bundles):
    lines = 0
    for bundle in corpus_bundles:
        ast = parse(bundle.program)
        for line in range(1, len(bundle.program) + 1):
            edits = [i.edit for i in applicable_templates(bundle.program, ast, line)]
            assert len(edits) == len(set(edits)), (bundle.name, line)
            lines += bool(edits)
    assert lines > 100


# ---------------------------------------------------------------------------
# edits

def test_apply_edit_shapes():
    p = program("fn f()\nlet a = 1\nreturn a\nend\n")
    replaced = apply_edit(p, 2, ReplaceLine("let a = 2"))
    assert replaced.lines[1] == "let a = 2"
    deleted = apply_edit(p, 2, DeleteLine())
    assert len(deleted) == 3 and "let a = 1" not in deleted.lines
    guarded = apply_edit(p, 3, InsertGuard("if a != 0", "end"))
    assert guarded.lines[2:5] == ("if a != 0", "return a", "end")
    assert edit_new_text(InsertGuard("if a != 0", "end"), "return a") == (
        "if a != 0\nreturn a\nend"
    )
    assert edit_new_text(DeleteLine(), "return a") == ""


# ---------------------------------------------------------------------------
# generate_candidates

def test_generation_order_follows_rank_then_template(max3_program):
    suspicious = make_list([9, 2])
    candidates = list(generate_candidates(max3_program, parse(max3_program), suspicious))
    lines = [c.line for c in candidates]
    assert lines == sorted(lines, key=lambda l: (l != 9, l != 2))
    boundary = lines.index(2)
    assert all(l == 9 for l in lines[:boundary])


def test_generation_cap(max3_program, max3_suite, monkeypatch):
    # the third candidate is the patch (see test_repair_max3_hand_enumerated)
    suspicious = localize(run_suite(max3_program, max3_suite))
    monkeypatch.setattr(repair_mod, "MAX_CANDIDATES", 2)
    capped = repair(max3_program, max3_suite, suspicious, ["t4"])
    assert not capped.patched
    assert capped.candidates_generated == capped.npc == 2
    assert capped.stop_reason == "max_candidates"
    monkeypatch.setattr(repair_mod, "MAX_CANDIDATES", 3)
    reached = repair(max3_program, max3_suite, suspicious, ["t4"])
    assert reached.candidates_generated == 3
    assert reached.stop_reason == "patched"


def test_first_candidate_is_first_instantiation_of_rank_one_line(max3_program, max3_suite):
    suspicious = localize(run_suite(max3_program, max3_suite))
    assert suspicious.entries[0].line == MAX3_BUG_LINE
    first = next(iter(generate_candidates(max3_program, parse(max3_program), suspicious)))
    # hand enumeration at `m = b`: T1-T5 yield nothing, so T6 deletion leads
    insts = applicable_templates(max3_program, parse(max3_program), MAX3_BUG_LINE)
    assert first.line == MAX3_BUG_LINE
    assert first.template == insts[0].template == "T6"


def test_candidate_program_reproducible_from_edit(max3_program, max3_suite):
    suspicious = localize(run_suite(max3_program, max3_suite))
    candidates = itertools.islice(
        generate_candidates(max3_program, parse(max3_program), suspicious), 30
    )
    for candidate in candidates:
        rebuilt = apply_edit(max3_program, candidate.line, candidate.edit)
        assert rebuilt.lines == candidate.program.lines


# ---------------------------------------------------------------------------
# validate_patch

def test_early_exit_on_first_failing_test(max3_program, max3_suite):
    # deleting the buggy copy still fails t4, after exactly one execution
    suspicious = localize(run_suite(max3_program, max3_suite))
    candidate = next(iter(generate_candidates(max3_program, parse(max3_program), suspicious)))
    result = validate(candidate, max3_program, max3_suite, ["t4"])
    assert result.verdict == "FailsFailingTest"
    assert result.tests_executed == 1
    assert result.first_failure == "t4"


def test_plausible_patch_runs_whole_suite(max3_program, max3_suite):
    fixed = apply_edit(max3_program, MAX3_BUG_LINE, ReplaceLine("m = c"))
    from reducto.repair import PatchCandidate

    candidate = PatchCandidate("T9", MAX3_BUG_LINE, ReplaceLine("m = c"), fixed)
    result = validate(candidate, max3_program, max3_suite, ["t4"])
    assert result.verdict == "Plausible"
    assert result.tests_executed == len(max3_suite)


def test_overfitting_candidate_fails_regression(max3_program, max3_suite):
    # `let m = c` on line 2 fixes t4 (returns 5) but breaks t1 (3,1,2) -> 2
    from reducto.repair import PatchCandidate

    patched = apply_edit(max3_program, 2, ReplaceLine("let m = c"))
    candidate = PatchCandidate("T9", 2, ReplaceLine("let m = c"), patched)
    result = validate(candidate, max3_program, max3_suite, ["t4"])
    assert result.verdict == "FailsRegression"
    assert result.first_failure == "t1"
    assert result.tests_executed == 2  # t4 first (passes), then t1


def test_unbuildable_candidate_verdict(max3_program):
    from reducto.repair import PatchCandidate

    broken = apply_edit(max3_program, MAX3_BUG_LINE, ReplaceLine("m = ("))
    candidate = PatchCandidate("T9", MAX3_BUG_LINE, ReplaceLine("m = ("), broken)
    result = validate(candidate, max3_program, TestSuite(()), [])
    assert result.verdict == "Unbuildable"
    assert result.tests_executed == 0


def test_unbuildable_candidates_count_apart_from_npc_and_nte():
    """A guard around a line already nested MAX_BLOCK_DEPTH deep nests one
    block too many, so both T8 guards of its division do not parse.  The
    test expects a value no candidate returns, so every candidate is tried."""
    p = program("fn f(a, b)\n" + "if true\n" * MAX_BLOCK_DEPTH + "let r = a / b\n"
                + "end\n" * MAX_BLOCK_DEPTH + "return 0\nend\n")
    line = MAX_BLOCK_DEPTH + 2
    suite = TestSuite((TestCase("t", "f", (1, 0), "value", 42),))
    guards = [i for i in applicable_templates(p, parse(p), line) if i.template == "T8"]
    assert len(guards) == 2
    result = repair(p, suite, make_list([line]), ["t"])
    assert result.stop_reason == "exhausted"
    assert result.unbuildable == 2
    assert result.npc == result.nte == result.candidates_generated - 2


def test_budget_exceeded_verdict():
    p = program("fn f(n)\nlet i = 0\nwhile i < n\ni = i + 1\nend\nreturn i\nend\n")
    from reducto.repair import PatchCandidate

    looped = apply_edit(p, 4, ReplaceLine("i = i + 0"))
    candidate = PatchCandidate("T4", 4, ReplaceLine("i = i + 0"), looped)
    suite = TestSuite((TestCase("t", "f", (3,), "value", 3, budget=500),))
    result = validate(candidate, p, suite, ["t"])
    assert result.verdict == "BudgetExceeded"


def test_validation_order_failing_first_in_suite_order(max3_suite):
    order = [t.id for t in validation_order(max3_suite, ["t5", "t2"])]
    assert order == ["t2", "t5", "t1", "t3", "t4", "t6"]


def test_early_exit_soundness_sampled(max3_program, max3_suite):
    # Plausible iff a full no-early-exit rerun passes everything
    suspicious = localize(run_suite(max3_program, max3_suite))
    candidates = itertools.islice(
        generate_candidates(max3_program, parse(max3_program), suspicious), 25
    )
    for candidate in candidates:
        verdict = validate(candidate, max3_program, max3_suite, ["t4"]).verdict
        if verdict == "Unbuildable":
            continue
        full = run_suite(candidate.program, max3_suite)
        assert (verdict == "Plausible") == (not full.failing)


# ---------------------------------------------------------------------------
# repair loop

def test_repair_max3_hand_enumerated(max3_program, max3_suite):
    """Candidates at the rank-one line `m = b` enumerate as:
       1. T6 delete            -> t4 still fails     (1 execution)
       2. T9 b->a  `m = a`     -> t4 still fails     (1 execution)
       3. T9 b->c  `m = c`     -> plausible          (6 executions)
    so NPC=3, NTE=8, BR=1, and the patch sits at the bug line."""
    suspicious = localize(run_suite(max3_program, max3_suite))
    result = repair(max3_program, max3_suite, suspicious, ["t4"])
    assert result.patched
    assert result.patch.line == MAX3_BUG_LINE
    assert result.patch.edit == ReplaceLine("m = c")
    assert result.patch.template == "T9"
    assert result.npc == 3
    assert result.nte == 8
    assert result.br == 1
    assert result.unbuildable == 0
    assert result.cost_proxy == result.nte + result.candidates_generated == 8 + 3
    assert result.stop_reason == "patched"


def test_repair_cap_zero(max3_program, max3_suite, monkeypatch):
    suspicious = localize(run_suite(max3_program, max3_suite))
    monkeypatch.setattr(repair_mod, "MAX_CANDIDATES", 0)
    result = repair(max3_program, max3_suite, suspicious, ["t4"])
    assert not result.patched
    assert result.npc == 0 and result.nte == 0
    assert result.stop_reason == "max_candidates"


def test_repair_nte_cap(max3_program, max3_suite, monkeypatch):
    suspicious = localize(run_suite(max3_program, max3_suite))
    monkeypatch.setattr(repair_mod, "MAX_NTE", 1)
    result = repair(max3_program, max3_suite, suspicious, ["t4"])
    assert not result.patched
    assert result.stop_reason == "max_nte"
    assert result.nte >= 1


def test_repair_result_does_not_depend_on_the_clock(max3_program, max3_suite, monkeypatch):
    """A clock that jumps 1,000 s per read changes rt_ms and nothing else."""
    # `return m` (line 9) yields only implausible candidates before the bug line
    suspicious = make_list([9, MAX3_BUG_LINE])
    real = repair(max3_program, max3_suite, suspicious, ["t4"])
    assert real.patched and real.npc > 3
    ticks = itertools.count(0.0, 1000.0)
    monkeypatch.setattr(repair_mod, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
    slow = repair(max3_program, max3_suite, suspicious, ["t4"])
    assert slow.rt_ms >= 1000.0 * 1000.0
    for field in fields(real):
        if field.name != "rt_ms":
            assert getattr(slow, field.name) == getattr(real, field.name), field.name


def test_each_repair_call_starts_a_cold_scope(corpus_bundles, monkeypatch):
    """Two repairs of the same inputs each lower their own units and tier
    up as many of them, so the second is not sped up by the first."""
    from reducto import experiment, interp

    bundle = next(b for b in corpus_bundles if b.name == "b01_pick_max3")
    artifacts = experiment.BundleArtifacts(bundle)
    scopes = []

    class RecordedScope(interp.Scope):
        def __init__(self):
            super().__init__()
            scopes.append(self)

    monkeypatch.setattr(interp, "Scope", RecordedScope)
    results = [
        repair(bundle.program, artifacts.suite("T"), artifacts.suspicious("L"),
               artifacts.failing_ids)
        for _ in range(2)
    ]
    for field in fields(results[0]):
        if field.name != "rt_ms":
            assert getattr(results[0], field.name) == getattr(results[1], field.name), field.name
    assert len(scopes) == 2 and scopes[0] is not scopes[1]
    units = [[unit for unit in scope.units.values() if unit is not None] for scope in scopes]
    tier_ups = [sum(unit.call not in (None, unit.tier0) for unit in group) for group in units]
    assert len(units[0]) == len(units[1]) and not set(map(id, units[0])) & set(map(id, units[1]))
    assert tier_ups[0] == tier_ups[1] > 0


def test_repair_empty_list(max3_program, max3_suite):
    empty = SuspiciousList(())
    result = repair(max3_program, max3_suite, empty, ["t4"])
    assert not result.patched
    assert result.stop_reason == "exhausted"
    assert result.npc == 0


def test_nte_additivity_and_determinism(max3_program, max3_suite):
    suspicious = localize(run_suite(max3_program, max3_suite))
    first = repair(max3_program, max3_suite, suspicious, ["t4"])
    second = repair(max3_program, max3_suite, suspicious, ["t4"])
    for field in ("npc", "nte", "unbuildable", "candidates_generated", "br", "stop_reason"):
        assert getattr(first, field) == getattr(second, field)
    assert first.patch.edit == second.patch.edit
    # recompute NTE by replaying validation over the same prefix
    total = 0
    for candidate in generate_candidates(max3_program, parse(max3_program), suspicious):
        result = validate(candidate, max3_program, max3_suite, ["t4"])
        total += result.tests_executed
        if result.verdict == "Plausible":
            break
    assert total == first.nte


def test_rank_dominance_between_lists(max3_program, max3_suite):
    # both lists contain the winning location; the one ranking it earlier
    # can never need more validations
    early = make_list([MAX3_BUG_LINE, 2])
    late = make_list([2, MAX3_BUG_LINE])
    early_result = repair(max3_program, max3_suite, early, ["t4"])
    late_result = repair(max3_program, max3_suite, late, ["t4"])
    assert early_result.patched and late_result.patched
    assert early_result.npc <= late_result.npc


def test_npc_pruned_list_never_worse_on_corpus(lattice_reports):
    rows = {(r.bundle, r.config): r for r in lattice_reports}
    for name in sorted({r.bundle for r in lattice_reports}):
        base = rows[(name, "P-T-L")]
        pruned = rows[(name, "P-T-LP")]
        if not (base.patched and pruned.patched):
            continue
        if base.patch_line != pruned.patch_line:
            continue
        assert pruned.npc <= base.npc, name


# ---------------------------------------------------------------------------
# mapping patches home

def test_map_patch_simple_lookup():
    original = program("fn f(a)\n# pad\n# pad\nlet x = a\nreturn x\nend\n")
    slice_program = SourceProgram((original.line(1), original.line(4),
                                   original.line(5), original.line(6)))
    mapping = LineMapping((1, 4, 5, 6))
    from reducto.repair import PatchCandidate

    patched_slice = apply_edit(slice_program, 2, ReplaceLine("let x = a + 1"))
    candidate = PatchCandidate("T4", 2, ReplaceLine("let x = a + 1"), patched_slice)
    patched, line = map_patch_to_original(candidate, mapping, original)
    assert line == 4
    assert patched.line(4) == "let x = a + 1"
    assert patched.lines[:3] == original.lines[:3]


def test_map_patch_identity_slice(max3_program):
    from reducto.repair import PatchCandidate

    mapping = identity(len(max3_program))
    edited = apply_edit(max3_program, MAX3_BUG_LINE, ReplaceLine("m = c"))
    candidate = PatchCandidate("T9", MAX3_BUG_LINE, ReplaceLine("m = c"), edited)
    patched, line = map_patch_to_original(candidate, mapping, max3_program)
    assert line == MAX3_BUG_LINE
    assert patched.lines == edited.lines


def test_insert_guard_preserves_indentation_and_parses():
    p = program(
        "fn g(a, b)\nif a > 0\n    let r = a / b\n    return r\nend\nreturn 0\nend\n"
    )
    guards = [i for i in applicable_templates(p, parse(p), 3) if i.template == "T8"]
    assert [g.edit.guard for g in guards] == ["if b != 0", "if b != 0.0"]
    patched = apply_edit(p, 3, guards[0].edit)
    assert patched.lines[2:5] == ("    if b != 0", "    let r = a / b", "    end")
    parse(patched)  # must stay buildable


def test_insert_guard_maps_to_adjacent_lines():
    original = program("fn f(a, b)\n# pad\nreturn a / b\nend\n")
    slice_program = SourceProgram((original.line(1), original.line(3), original.line(4)))
    mapping = LineMapping((1, 3, 4))
    from reducto.repair import PatchCandidate

    edit = InsertGuard("if b != 0", "end")
    candidate = PatchCandidate("T8", 2, edit, apply_edit(slice_program, 2, edit))
    patched, line = map_patch_to_original(candidate, mapping, original)
    assert line == 3
    assert patched.lines[2:5] == ("if b != 0", "return a / b", "end")


# ---------------------------------------------------------------------------
# Candidates built from the repaired program's parse

def _edit_built(scope, candidate, source, ast):
    """(the functions of the candidate built as ``repair`` builds it, or
    None, and the ParseError's line and reason, or None)."""
    try:
        return scope.build(candidate.program, (source, ast), candidate.line).functions, None
    except ParseError as exc:
        return None, (exc.line, exc.reason)


def _whole(candidate):
    """The same from a fresh parse of every line of the candidate."""
    try:
        return parse(candidate.program).functions, None
    except ParseError as exc:
        return None, (exc.line, exc.reason)


def test_every_corpus_candidate_builds_as_a_whole_parse_does(corpus_artifacts):
    """For P with L and for Ps with LR in slice lines, each of the 686
    candidates of the shipped bundles: the build from the repaired program's parse has
    the functions a whole parse of the candidate has, in the same order,
    each with the same name, parameters, lines, texts and body; and it
    raises a ParseError exactly when the whole parse does, at the same line
    for the same reason."""
    from reducto.experiment import _translate_list

    artifacts, _ = corpus_artifacts
    built = unbuildable = 0
    for art in artifacts.values():
        sliced = art.slice_result
        for source, suspicious in (
            (art.bundle.program, art.list_original),
            (sliced.slice, _translate_list(art.list_regenerated, sliced.mapping)),
        ):
            scope = Scope()
            ast = parse(source, scope.lines)
            for candidate in generate_candidates(source, ast, suspicious):
                functions, error = _edit_built(scope, candidate, source, ast)
                whole, whole_error = _whole(candidate)
                assert error == whole_error, (art.bundle.name, candidate)
                if error is None:
                    assert list(functions.items()) == list(whole.items()), (
                        art.bundle.name, candidate)
                    built += 1
                else:
                    unbuildable += 1
    # every one of them parses; the test below makes some that do not
    assert (built, unbuildable) == (686, 0)


def test_a_candidate_that_does_not_parse_raises_where_a_whole_parse_does():
    """A guard around a line already nested MAX_BLOCK_DEPTH deep, and an
    edited line that does not parse, in a function between two others."""
    body = "if true\n" * MAX_BLOCK_DEPTH + "let r = a / b\n" + "end\n" * MAX_BLOCK_DEPTH
    p = program("fn g()\nreturn 1\nend\nfn f(a, b)\n" + body + "return 0\nend\n"
                "fn h(x)\nreturn x\nend\n")
    line = MAX_BLOCK_DEPTH + 5
    ast = parse(p)
    for edit in (InsertGuard("if b != 0", "end"), ReplaceLine("let r = a / (b")):
        candidate = repair_mod.PatchCandidate("T", line, edit, apply_edit(p, line, edit))
        error = _edit_built(Scope(), candidate, p, ast)[1]
        assert error is not None and error == _whole(candidate)[1], edit


# b04_rate_of: sum_to (lines 3-11) is its first function, rate_of (44-46)
# its middle one and echo_pair (68-72) its last.  Each case edits one of
# them, then every call below runs on the candidate built from b04's parse
# and on the candidate parsed whole.
B04_EDITS = {
    "first, replaced": (7, ReplaceLine("total = total - i")),
    "first, deleted": (7, DeleteLine()),
    "first, guarded": (7, InsertGuard("if i != 0", "end")),
    "middle, replaced": (45, ReplaceLine("return total * count")),
    "middle, deleted": (45, DeleteLine()),
    "middle, guarded": (45, InsertGuard("if count != 0", "end")),
    "last, replaced": (71, ReplaceLine("return a - b")),
    "last, deleted": (69, DeleteLine()),
    "last, guarded": (70, InsertGuard("if b != 0", "end")),
}
B04_CALLS = (
    ("sum_to", (4,)), ("gcd_of", (12, 18)), ("count_pos", ((1, -2, 3),)),
    ("sum_arr", ((1, 2, 3),)), ("rate_of", (7, 0)), ("rate_of", (9, 3)),
    ("pow_int", (2, 5)), ("dot_of", ((1, 2), (3,))), ("echo_pair", (2, 0)),
    ("echo_pair", (2, 1)),
)


@pytest.mark.parametrize("case", list(B04_EDITS))
def test_each_edit_kind_runs_as_a_whole_parse_of_b04(corpus_bundles, case):
    from reducto.interp import execute

    source = next(b for b in corpus_bundles if b.name == "b04_rate_of").program
    line, edit = B04_EDITS[case]
    candidate = repair_mod.PatchCandidate("T", line, edit, apply_edit(source, line, edit))
    built = Scope().build(candidate.program, (source, parse(source)), line)
    whole = Scope().build(candidate.program)
    for function, args in B04_CALLS:
        assert execute(built, function, list(args)) == execute(whole, function, list(args)), (
            function, args)


def test_a_runtime_error_after_a_guard_is_at_its_shifted_line(corpus_bundles):
    """A guard in sum_to moves rate_of's division from line 45 to 47, and
    dot_of's out-of-range index from line 62 to 64."""
    from reducto.interp import execute

    source = next(b for b in corpus_bundles if b.name == "b04_rate_of").program
    line, edit = B04_EDITS["first, guarded"]
    guarded = apply_edit(source, line, edit)
    code = Scope().build(guarded, (source, parse(source)), line)
    divided = execute(code, "rate_of", [7, 0])
    indexed = execute(code, "dot_of", [[1, 2], [3]])
    assert (divided.error_kind, divided.error_line) == ("DivByZero", 47)
    assert (indexed.error_kind, indexed.error_line) == ("IndexOutOfBounds", 64)
