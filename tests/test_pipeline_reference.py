"""Differential test of the whole pipeline: every bundle loaded, sliced,
reduced, localized and repaired in every configuration, once on the
two-tier interpreter and once on the tree-walking reference kept in
``reference_interp.py``, which takes the place of ``interp.Scope.build``
and ``harness.execute``.  The reference pipeline builds every program from
a fresh parse, where the slicer and repair share a line table per scope.

Both must give the same reports, rt_ms aside, the same budget to every
test, and run the same executions for the same steps.  The caches that
live between runs (the parser's line table, the units a scope keeps,
tier 1) are where a rewrite hides its bugs, and a single execution never
meets them.
"""

import dataclasses
import shutil
import sys
from pathlib import Path

import pytest

import reference_interp as ref
from reducto import experiment, harness, interp, parser

ROOT = Path(__file__).resolve().parent.parent

# The long_tests bundles (seed 1) that run here: the four whose lattices
# take least time, about 2 s on both pipelines; all nine take over 7 s.
LONG_TESTS_SUBSET = ("b02_last_of", "b07_bonus_amount", "b08_any_pos", "b09_rect_area")


def _reference_build(scope, program):
    return ref.compile_ast(parser.parse(program))


def _reference_execute(code, function, args, budget):
    try:
        return ref.execute(code, function, args, budget)
    except ref.CallSetupError as exc:  # where ``interp.execute`` returns this result
        return interp.ExecutionResult(
            "runtime_error", None, exc.kind, 0, exc.message, (), frozenset(), 0
        )


def _pipeline(corpus: Path, monkeypatch, reference: bool) -> tuple:
    """(each test's budget, the reports without rt_ms, executions, steps)."""
    counts = [0, 0]
    with monkeypatch.context() as patch:
        if reference:
            patch.setattr(interp.Scope, "build", _reference_build)
        execute = _reference_execute if reference else harness.execute

        def counted(code, function, args, budget):
            result = execute(code, function, args, budget)
            counts[0] += 1
            counts[1] += result.steps
            return result

        patch.setattr(harness, "execute", counted)
        bundles = experiment.load_corpus(corpus)
        reports = experiment.run_lattice(bundles)
    budgets = {(b.name, t.id): t.budget for b in bundles for t in b.suite}
    return budgets, [dataclasses.replace(r, rt_ms=0.0) for r in reports], *counts


def _agree(corpus: Path, monkeypatch) -> None:
    new = _pipeline(corpus, monkeypatch, reference=False)
    old = _pipeline(corpus, monkeypatch, reference=True)
    assert new[0] == old[0]
    assert new[1] == old[1]
    assert new[2:] == old[2:]


def test_the_lattice_on_the_shipped_corpus(corpus_dir, monkeypatch):
    _agree(Path(corpus_dir), monkeypatch)


@pytest.fixture(scope="module")
def long_tests_corpus(tmp_path_factory):
    """The benchmark's long_tests bundles of seed 1 named in LONG_TESTS_SUBSET."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    out = tmp_path_factory.mktemp("long_tests")
    workloads.write_long_tests_corpus(ROOT, 1, out)
    for bundle in out.iterdir():
        if bundle.name not in LONG_TESTS_SUBSET:
            shutil.rmtree(bundle)
    return out


def test_the_lattice_on_long_tests(long_tests_corpus, monkeypatch):
    _agree(long_tests_corpus, monkeypatch)
