"""Correctness checks on one pass, made apart from the pipeline's own code.

They re-run tests through the harness, but every property below is worked
out here: slice text against the original, failure signatures, Ochiai in
exact arithmetic, patch re-application, list ranks.  Nothing is compared
with a stored copy of an earlier output.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

from reducto import corpus, harness
from reducto.source import SourceProgram
from reducto.values import values_equal

# |score^2 * denominator - e_f^2| may be this share of e_f^2: the score is
# e_f / sqrt(denominator) with two roundings, a relative error near 2**-52.
OCHIAI_TOLERANCE = Fraction(1, 2**48)


def designed_failing(bundle) -> set:
    """Ids of the tests the corpus design says fail on the buggy program."""
    bdef = next((d for d in corpus.BUNDLE_DEFS if d.name == bundle.name), None)
    if bdef is None:
        return set()
    calls = bdef.buggy.failing_calls
    return {
        t.id for t in bundle.suite
        if t.function == bdef.buggy.name
        and any(values_equal(t.args, tuple(c)) for c in calls)
    }


def _ochiai_problems(label, entries, spectra) -> list[str]:
    """Compare a suspicious list with exact Ochiai over (covered, passed) pairs."""
    failed = sum(1 for _, passed in spectra if not passed)
    e_f: dict = {}
    e_p: dict = {}
    for covered, passed in spectra:
        tally = e_p if passed else e_f
        for line in covered:
            tally[line] = tally.get(line, 0) + 1
    # exact squared score e_f^2 / ((e_f + n_f) (e_f + e_p)), with e_f + n_f = failed
    exact = {
        line: Fraction(ef * ef, failed * (ef + e_p.get(line, 0)))
        for line, ef in e_f.items()
    }
    expected = sorted(exact, key=lambda line: (-exact[line], line))
    got = [e.line for e in entries]
    if got != expected:
        return [f"{label}: order {got} != exact Ochiai order {expected}"]
    problems = []
    for position, entry in enumerate(entries, start=1):
        if entry.rank != position:
            problems.append(f"{label}: line {entry.line} has rank {entry.rank}, not {position}")
        ef = e_f[entry.line]
        denominator = failed * (ef + e_p.get(entry.line, 0))
        error = abs(Fraction(entry.score) ** 2 * denominator - ef * ef)
        if error > OCHIAI_TOLERANCE * ef * ef:
            problems.append(f"{label}: line {entry.line} score {entry.score!r} is not Ochiai")
    return problems


def bundle_problems(artifacts) -> list[str]:
    """Checks of one bundle's analysis: slice, reduced suite, lists."""
    bundle = artifacts.bundle
    program = bundle.program
    result = artifacts.slice_result
    sliced = result.slice
    originals = list(result.mapping.original_lines())
    problems = []

    if len(originals) != len(sliced.lines) or any(
        b <= a for a, b in zip(originals, originals[1:])
    ) or any(sliced.lines[i] != program.lines[o - 1] for i, o in enumerate(originals)):
        problems.append("slice lines are not their mapped original lines")
        return problems
    to_original = dict(enumerate(originals, start=1))

    on_original = harness.run_suite(program, bundle.suite).outcomes
    failing = {tid for tid, outcome in on_original.items() if not outcome.passed}
    designed = designed_failing(bundle)
    if failing != designed:
        problems.append(f"failing set {sorted(failing)} != designed {sorted(designed)}")

    kept = artifacts.reduced.kept
    kept_ids = set(kept.ids())
    if not failing <= kept_ids:
        problems.append(f"reduced suite drops failing tests {sorted(failing - kept_ids)}")
    on_slice = harness.run_suite(sliced, bundle.suite.subset(failing | kept_ids)).outcomes
    for test_id in sorted(failing):
        expect = harness.signature(test_id, on_original[test_id])
        got = harness.signature(test_id, on_slice[test_id])
        if got.error_line:
            got = dataclasses.replace(got, error_line=to_original.get(got.error_line))
        if got != expect:
            problems.append(f"{test_id}: slice signature {got} != baseline {expect}")
    for test_id in sorted(kept_ids - failing):
        if not on_slice[test_id].passed:
            problems.append(f"{test_id}: kept passing test fails on the slice")

    spectra = [(on_original[t.id].covered, on_original[t.id].passed) for t in bundle.suite]
    original_list = artifacts.suspicious("L")
    problems += _ochiai_problems("L", original_list.entries, spectra)
    slice_spectra = [
        ({to_original[line] for line in on_slice[t.id].covered}, on_slice[t.id].passed)
        for t in kept
    ]
    problems += _ochiai_problems("LR", artifacts.suspicious("LR").entries, slice_spectra)
    survivors = set(originals)
    pruned = [e.line for e in original_list.entries if e.line in survivors]
    pruned_list = artifacts.suspicious("LP")
    if [e.line for e in pruned_list.entries] != pruned or [
        e.rank for e in pruned_list.entries
    ] != list(range(1, len(pruned) + 1)):
        problems.append("LP is not L restricted to surviving lines and re-ranked")
    return problems


def _apply(program_lines: tuple, line: int, edit) -> tuple:
    """The edit applied at one line, by the edit's own fields."""
    lines = list(program_lines)
    kind = type(edit).__name__
    if kind == "ReplaceLine":
        lines[line - 1] = edit.text
    elif kind == "DeleteLine":
        del lines[line - 1]
    elif kind == "InsertGuard":
        target = lines[line - 1]
        indent = target[: len(target) - len(target.lstrip())]
        lines[line - 1:line] = [indent + edit.guard, target, indent + edit.closer]
    else:
        raise ValueError(f"unknown edit {edit!r}")
    return tuple(lines)


def row_problems(report, result, artifacts, full_suite_passes) -> list[str]:
    """Checks of one (bundle, configuration) repair row.

    ``result`` is the RepairResult behind the row; ``full_suite_passes``
    maps a patched original program to whether its whole suite passes.
    """
    if report.stop_reason.startswith("stage-error"):
        return [f"{report.config}: {report.stop_reason}"]
    problems = []
    if report.cost_proxy < report.nte + report.npc:
        problems.append(f"{report.config}: cost_proxy {report.cost_proxy} < nte + npc")
    if not report.patched:
        if report.br is not None or report.patch_line is not None:
            problems.append(f"{report.config}: unpatched row carries a patch location")
        return problems

    program = artifacts.bundle.program
    sliced = report.config.startswith("Ps-")
    mapping = list(artifacts.slice_result.mapping.original_lines())
    line = mapping[result.patch.line - 1] if sliced else result.patch.line
    if line != report.patch_line:
        problems.append(f"{report.config}: patch line {report.patch_line} != {line}")
    used = artifacts.suspicious(report.config.rsplit("-", 1)[1])
    rank = next((e.rank for e in used.entries if e.line == report.patch_line), None)
    if report.br != rank:
        problems.append(f"{report.config}: br {report.br} != rank {rank} of the patch line")

    patched = SourceProgram(_apply(program.lines, report.patch_line, result.patch.edit), program.id)
    passes = full_suite_passes(patched)
    if sliced and passes != report.transferred:
        problems.append(f"{report.config}: transferred={report.transferred}, full suite {passes}")
    if not sliced and not passes:
        problems.append(f"{report.config}: the patched original fails its full suite")
    return problems


def pass_problems(bundles, reports, rows) -> tuple[int, list[str]]:
    """Failed operations of a pass and what failed.

    ``rows`` maps (bundle name, configuration name) to the (artifacts,
    RepairResult) behind that report row.
    """
    full_suite = {}

    def full_suite_passes(program):
        key = (program.id, program.lines)
        if key not in full_suite:
            bundle = next(b for b in bundles if b.name == program.id)
            full_suite[key] = not harness.run_suite(program, bundle.suite).failing
        return full_suite[key]

    artifacts_of = {artifacts.bundle.name: artifacts for artifacts, _ in rows.values()}
    problems = []
    failed = 0
    for bundle in bundles:
        if bundle.name in artifacts_of:
            found = bundle_problems(artifacts_of[bundle.name])
        else:
            found = ["no repair ran"]
        failed += bool(found)
        problems += [f"{bundle.name}: {p}" for p in found]
    for report in reports:
        if report.stop_reason.startswith("stage-error") or (report.bundle, report.config) not in rows:
            found = [f"{report.config}: {report.stop_reason}"]
        else:
            artifacts, result = rows[(report.bundle, report.config)]
            found = row_problems(report, result, artifacts, full_suite_passes)
        failed += bool(found)
        problems += [f"{report.bundle}: {p}" for p in found]
    return failed, problems
