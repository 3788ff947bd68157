"""Oracles the tests check the pipeline with, and the program edits they
build their inputs from.  The pipeline itself runs none of them.

- ``minimality_check``: the slicer's 1-minimality, no single-line deletion
  of a slice is acceptable;
- ``verify_reduction``: the suite reduction's postcondition, rechecked on
  the slice by a run of its own;
- ``statement_lines``: the parser's line invariant, every line it places
  a header, statement, ``else`` or ``end`` on;
- ``without_lines`` and ``identity``: a program with some lines deleted,
  and the line map of a program onto itself;
- ``delete_functions_in_halves``: the slicer's coarse step without its
  coverage-first order, every function at once and then halves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from reducto import interp
from reducto.harness import run_suite
from reducto.parser import Ast, If, While, parse, statements
from reducto.slicer import Baseline, LineMapping, candidate_accepts, mapped_signature
from reducto.source import SourceProgram
from reducto.suite_reducer import ReducedSuite


def identity(n: int) -> LineMapping:
    """The line map of an ``n``-line program onto itself."""
    return LineMapping(tuple(range(1, n + 1)))


def without_lines(program: SourceProgram, numbers) -> SourceProgram:
    """A copy of ``program`` with the given 1-based lines removed (pure
    deletion)."""
    drop = set(numbers)
    kept = [ln for i, ln in enumerate(program.lines, start=1) if i not in drop]
    return SourceProgram(tuple(kept), program.id)


def delete_functions_in_halves(program: SourceProgram, baseline: Baseline) -> list[int]:
    """The original lines of ``program`` that survive deleting its function
    spans (as ``slicer.delete_functions`` draws them) all at once, and, when
    a group is rejected, its first half and then its second, down to single
    functions."""
    survivors = list(range(1, len(program) + 1))
    scope = interp.Scope()

    def delete(group: list[range]) -> None:
        nonlocal survivors
        kept = [o for o in survivors if not any(o in span for span in group)]
        cand = SourceProgram(tuple(program.line(o) for o in kept), program.id)
        if candidate_accepts(cand, baseline, LineMapping(tuple(kept)), scope):
            survivors = kept
        elif len(group) > 1:
            delete(group[: len(group) // 2])
            delete(group[len(group) // 2:])

    ends = [fn.end_line for fn in parse(program).functions.values()]
    delete([range(start + 1, end + 1) for start, end in zip([0] + ends, ends)])
    return survivors


def statement_lines(ast: Ast) -> set[int]:
    """Every non-blank, non-comment line number: headers, bodies, ``else``
    arms and ``end`` terminators alike."""
    lines: set[int] = set()
    for fn in ast.functions.values():
        lines |= {fn.line, fn.end_line}
        for stmt in statements(fn.body):
            lines.add(stmt.line)
            if isinstance(stmt, (If, While)):
                lines.add(stmt.end_line)
            if isinstance(stmt, If) and stmt.else_line is not None:
                lines.add(stmt.else_line)
    return lines


@dataclass(frozen=True)
class MinimalityReport:
    minimal: bool
    counterexample: Optional[int]  # 1-based line of the checked program


def minimality_check(
    slice_program: SourceProgram,
    baseline: Baseline,
    line_map: LineMapping,
) -> MinimalityReport:
    """1-minimality: no single-line deletion of the slice is acceptable.

    ``line_map`` gives the slice's lines in original coordinates (identity
    when the checked program is the original).
    """
    n = len(slice_program)
    originals = list(line_map.original_lines())
    scope = interp.Scope()
    for i in range(1, n + 1):
        cand = without_lines(slice_program, [i])
        cand_originals = originals[: i - 1] + originals[i:]
        cand_map = LineMapping(tuple(cand_originals))
        if candidate_accepts(cand, baseline, cand_map, scope):
            return MinimalityReport(False, i)
    return MinimalityReport(True, None)


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
