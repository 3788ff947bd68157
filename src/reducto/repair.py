"""Template-based patch generation and test-driven validation.

The catalog is nine single-line fix templates, tried in a fixed order so
that candidate counts are reproducible:

  T1 relational-operator replacement      T6 statement deletion
  T2 arithmetic-operator replacement      T7 return-expression substitution
  T3 boolean-operator swap / negation     T8 guard insertion (div or index)
  T4 integer-constant mutation            T9 variable-use substitution
  T5 index off-by-one

Within one template, instantiations enumerate operator/operand positions
left to right and replacements in catalog order.  A line yields each
distinct edit once, under the first template that makes it (T9 repeats
T7's ``return y``, and T4 turns the constant 1 into 0 twice, as 1 - 1
and as 0).  Validation runs the
failing tests first and stops at the first non-passing outcome; the number
of patch candidates validated (NPC) and of individual test executions
(NTE) are the engine's cost metrics, plus a deterministic proxy
(NTE + candidates parsed) that stands in for wall-clock time in tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from . import interp
from . import parser as P
from .faultloc import SuspiciousList
from .harness import BUDGET_EXCEEDED, TestCase, TestSuite, run_test
from .parser import Ast, ParseError
from .source import SourceProgram


@dataclass(frozen=True)
class ReplaceLine:
    text: str


@dataclass(frozen=True)
class DeleteLine:
    pass


@dataclass(frozen=True)
class InsertGuard:
    guard: str
    closer: str


Edit = Union[ReplaceLine, DeleteLine, InsertGuard]


@dataclass(frozen=True)
class Instantiation:
    template: str
    edit: Edit


@dataclass(frozen=True)
class PatchCandidate:
    template: str
    line: int  # coordinates of the program being repaired
    edit: Edit
    program: SourceProgram  # base program with the edit applied


def apply_edit(program: SourceProgram, line: int, edit: Edit) -> SourceProgram:
    lines = list(program.lines)
    idx = line - 1
    if isinstance(edit, ReplaceLine):
        lines[idx] = edit.text
    elif isinstance(edit, DeleteLine):
        del lines[idx]
    else:
        indent = lines[idx][: len(lines[idx]) - len(lines[idx].lstrip())]
        lines[idx:idx + 1] = [indent + edit.guard, lines[idx], indent + edit.closer]
    return SourceProgram(tuple(lines), program.id)


def edit_new_text(edit: Edit, original: str) -> str:
    """The replacement text an edit produces, for reports."""
    if isinstance(edit, ReplaceLine):
        return edit.text
    if isinstance(edit, DeleteLine):
        return ""
    return "\n".join([edit.guard, original, edit.closer])


# ---------------------------------------------------------------------------
# Statement analysis

def _find_statement(ast: Ast, line: int):
    """(function, statement) at a line; None for headers/else/end/no code."""
    for fn in ast.functions.values():
        if fn.line <= line <= fn.end_line:
            return fn, next((s for s in P.statements(fn.body) if s.line == line), None)
    return None, None


def _scope_vars(fn: P.Function, line: int) -> list[str]:
    """Parameters plus every assigned name bound textually before the line,
    in order of first appearance."""
    assigned = (
        stmt.name for stmt in P.statements(fn.body)
        if stmt.line < line and isinstance(stmt, (P.Let, P.Assign, P.IndexAssign))
    )
    return list(dict.fromkeys((*fn.params, *assigned)))


def _replace_span(text: str, start: int, end: int, new: str) -> str:
    return text[:start] + new + text[end:]


def applicable_templates(program: SourceProgram, ast: Ast, line: int) -> list[Instantiation]:
    """All template instantiations for one line of ``program``, whose Ast
    is ``ast``, in catalog order, each distinct edit once.

    Structural lines (fn/if/while headers keep their operator mutations
    but cannot be deleted or wrapped; else/end lines yield nothing).
    """
    raw = program.line(line)
    fn, stmt = _find_statement(ast, line)
    if fn is None or stmt is None:
        return []

    text = raw.strip()
    indent = raw[: len(raw) - len(raw.lstrip())]
    nodes = [node for expr in P.expressions(stmt) for node in P.nodes(expr)]
    structural = isinstance(stmt, (P.If, P.While))
    out: dict[Edit, str] = {}  # each edit under the first template to make it

    def emit(template: str, edit: Edit):
        out.setdefault(edit, template)

    # T1 / T2: operator replacement at each position, left to right
    for template, ops in (("T1", P.RELATIONAL_OPS), ("T2", P.ARITHMETIC_OPS)):
        sites = sorted(
            (n for n in nodes if type(n) is P.Binary and n.op in ops),
            key=lambda n: n.op_start,
        )
        for site in sites:
            for op in ops:
                if op == site.op:
                    continue
                emit(template, ReplaceLine(
                    indent + _replace_span(text, site.op_start, site.op_end, op)
                ))

    # T3: boolean-operator swap, then condition negation
    bool_sites = sorted(
        (n for n in nodes if type(n) is P.Binary and n.op in ("and", "or")),
        key=lambda n: n.op_start,
    )
    for site in bool_sites:
        other = "or" if site.op == "and" else "and"
        emit("T3", ReplaceLine(
            indent + _replace_span(text, site.op_start, site.op_end, other)
        ))
    if isinstance(stmt, (P.If, P.While)):
        keyword = "if" if isinstance(stmt, P.If) else "while"
        cond_text = text[stmt.cond.start:stmt.cond.end]
        emit("T3", ReplaceLine(f"{indent}{keyword} not ({cond_text})"))

    # T4: integer-constant mutation (+1, -1, 0, negate)
    int_sites = sorted(
        (n for n in nodes if type(n) is P.Lit and type(n.value) is int),
        key=lambda n: n.start,
    )
    for site in int_sites:
        for replacement in (site.value + 1, site.value - 1, 0, -site.value):
            if replacement == site.value:
                continue
            emit("T4", ReplaceLine(
                indent + _replace_span(text, site.start, site.end, str(replacement))
            ))

    # T5: index off-by-one
    index_sites = sorted((n for n in nodes if type(n) is P.Index), key=lambda n: n.start)
    for site in index_sites:
        idx_text = text[site.index.start:site.index.end]
        for suffix in (" + 1", " - 1"):
            emit("T5", ReplaceLine(
                indent + _replace_span(text, site.index.start, site.index.end, idx_text + suffix)
            ))

    # T6: statement deletion (non-structural only)
    if not structural:
        emit("T6", DeleteLine())

    # T7: return-expression substitution with another in-scope variable
    scope = _scope_vars(fn, line)
    if isinstance(stmt, P.Return):
        current = stmt.expr.name if type(stmt.expr) is P.Var else None
        for name in scope:
            if name != current:
                emit("T7", ReplaceLine(f"{indent}return {name}"))

    # T8: guard insertion around divisions and indexings
    if not structural:
        div_sites = sorted(
            (n for n in nodes if type(n) is P.Binary and n.op in ("/", "%")),
            key=lambda n: n.op_start,
        )
        for site in div_sites:
            divisor = text[site.right.start:site.right.end]
            for zero in ("0", "0.0"):
                emit("T8", InsertGuard(f"if {divisor} != {zero}", "end"))
        for site in index_sites:
            idx_text = text[site.index.start:site.index.end]
            base_text = text[site.base.start:site.base.end]
            emit("T8", InsertGuard(
                f"if {idx_text} >= 0 and {idx_text} < len({base_text})", "end"
            ))

    # T9: variable-use substitution
    var_sites = sorted((n for n in nodes if type(n) is P.Var), key=lambda n: n.start)
    for site in var_sites:
        for name in scope:
            if name != site.name:
                emit("T9", ReplaceLine(
                    indent + _replace_span(text, site.start, site.end, name)
                ))

    return [Instantiation(template, edit) for edit, template in out.items()]


# ---------------------------------------------------------------------------
# Candidate stream

def generate_candidates(
    program: SourceProgram,
    ast: Ast,
    suspicious: SuspiciousList,
) -> Iterator[PatchCandidate]:
    """Candidates in list-rank order, template order within one location."""
    for entry in suspicious.entries:
        for inst in applicable_templates(program, ast, entry.line):
            yield PatchCandidate(
                inst.template,
                entry.line,
                inst.edit,
                apply_edit(program, entry.line, inst.edit),
            )


# ---------------------------------------------------------------------------
# Validation

PLAUSIBLE = "Plausible"
FAILS_FAILING = "FailsFailingTest"
FAILS_REGRESSION = "FailsRegression"
UNBUILDABLE_PATCH = "Unbuildable"
BUDGET_VERDICT = "BudgetExceeded"


@dataclass(frozen=True)
class ValidationResult:
    verdict: str
    tests_executed: int
    first_failure: Optional[str] = None


def validation_order(suite: TestSuite, failing_ids) -> list[TestCase]:
    failing = set(failing_ids)
    first = [t for t in suite if t.id in failing]
    rest = [t for t in suite if t.id not in failing]
    return first + rest


def validate_patch(
    candidate: PatchCandidate,
    suite: TestSuite,
    failing_ids,
    scope: interp.Scope,
) -> ValidationResult:
    """Build the candidate once in the caller's ``scope`` (see
    ``interp.Scope``), then run failing tests first, early exit at the
    first non-Pass, every execution counted."""
    try:
        code = scope.build(candidate.program)
    except ParseError:
        return ValidationResult(UNBUILDABLE_PATCH, 0)
    failing = set(failing_ids)
    executed = 0
    for test in validation_order(suite, failing_ids):
        outcome = run_test(code, test)
        executed += 1
        if not outcome.passed:
            if outcome.kind == BUDGET_EXCEEDED:
                verdict = BUDGET_VERDICT
            elif test.id in failing:
                verdict = FAILS_FAILING
            else:
                verdict = FAILS_REGRESSION
            return ValidationResult(verdict, executed, test.id)
    return ValidationResult(PLAUSIBLE, executed)


# ---------------------------------------------------------------------------
# The repair loop

STOP_PATCHED = "patched"
STOP_EXHAUSTED = "exhausted"
STOP_MAX_CANDIDATES = "max_candidates"
STOP_MAX_NTE = "max_nte"

MAX_CANDIDATES = 2000  # candidates generated per repair
MAX_NTE = 500_000  # test executions per repair


@dataclass(frozen=True)
class RepairResult:
    patch: Optional[PatchCandidate]
    npc: int  # candidates submitted to validation
    nte: int  # total test executions
    unbuildable: int  # candidates that failed to parse (not counted in NPC)
    candidates_generated: int
    rt_ms: float
    cost_proxy: int  # nte + candidates parsed
    br: Optional[int]  # rank of the patched location in the list used
    stop_reason: str

    @property
    def patched(self) -> bool:
        return self.patch is not None


def repair(
    program: SourceProgram,
    suite: TestSuite,
    suspicious: SuspiciousList,
    failing_ids,
) -> RepairResult:
    """Iterate candidates until one passes the whole suite, the stream runs
    out, or ``MAX_CANDIDATES`` or ``MAX_NTE`` stops the search.
    ``failing_ids`` are the tests that fail on ``program``, which
    validation runs first.  Unbuildable candidates are skipped and tallied
    separately from NPC.  One scope (see ``interp.Scope``), cold on every
    call, parses ``program`` for candidate generation and then builds each
    candidate, so all of them share its line table.  The clock is read
    only for ``rt_ms``: every other field depends on counts alone."""
    started = time.perf_counter()
    scope = interp.Scope()
    ast = P.parse(program, scope.lines)
    npc = 0
    nte = 0
    unbuildable = 0
    generated = 0
    patch = None
    br = None
    stop = STOP_EXHAUSTED

    for candidate in generate_candidates(program, ast, suspicious):
        if generated >= MAX_CANDIDATES:
            stop = STOP_MAX_CANDIDATES
            break
        generated += 1
        result = validate_patch(candidate, suite, failing_ids, scope)
        if result.verdict == UNBUILDABLE_PATCH:
            unbuildable += 1
            continue
        npc += 1
        nte += result.tests_executed
        if result.verdict == PLAUSIBLE:
            patch = candidate
            br = suspicious.rank_of(candidate.line)
            stop = STOP_PATCHED
            break
        if nte >= MAX_NTE:
            stop = STOP_MAX_NTE
            break

    rt_ms = (time.perf_counter() - started) * 1000.0
    return RepairResult(
        patch=patch,
        npc=npc,
        nte=nte,
        unbuildable=unbuildable,
        candidates_generated=generated,
        rt_ms=rt_ms,
        cost_proxy=nte + generated,
        br=br,
        stop_reason=stop,
    )


def map_patch_to_original(
    candidate: PatchCandidate,
    mapping,
    original: SourceProgram,
) -> tuple[SourceProgram, int]:
    """Re-apply a patch found on a slice at the corresponding original line.

    Returns (patched original, original line).  The line always maps: the
    patch sits on a line of the slice, and the mapping gives the original
    line of every line of the slice.
    """
    original_line = mapping.to_original(candidate.line)
    return apply_edit(original, original_line, candidate.edit), original_line
