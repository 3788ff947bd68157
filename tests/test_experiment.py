import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from reducto import experiment
from reducto.experiment import (
    FACTOR,
    FLOOR,
    BundleArtifacts,
    CSV_COLUMNS,
    ManifestError,
    NonViableConfig,
    RepairConfig,
    all_configs,
    bundle_reports,
    config_by_name,
    emit_report,
    load_bundle,
    load_corpus,
    run_config,
    run_lattice,
    viable_configs,
)
from reducto.cli import main
from reducto.repair import edit_new_text
from reducto.slicer import NoFailingTests
from reducto.source import SourceProgram

from conftest import fake_report
from test_acceptance import strip_rt_column


# ---------------------------------------------------------------------------
# configurations

def test_exactly_eight_viable_configs():
    configs = viable_configs()
    assert len(configs) == 8
    assert [c.name for c in configs] == [
        "P-T-L", "P-T-LR", "P-T-LP",
        "P-Ts-L", "P-Ts-LR", "P-Ts-LP",
        "Ps-Ts-LR", "Ps-Ts-LP",
    ]
    as_tuples = {(c.program, c.suite, c.suspicious) for c in configs}
    assert as_tuples == {
        ("P", "T", "L"), ("P", "T", "LR"), ("P", "T", "LP"),
        ("P", "Ts", "L"), ("P", "Ts", "LR"), ("P", "Ts", "LP"),
        ("Ps", "Ts", "LR"), ("Ps", "Ts", "LP"),
    }


def test_twelve_combinations_four_non_viable():
    combos = all_configs()
    assert len(combos) == 12
    red = {c.name for c in combos if not c.viable}
    assert red == {"Ps-T-L", "Ps-T-LR", "Ps-T-LP", "Ps-Ts-L"}
    assert not RepairConfig("Ps", "T", "L").viable
    assert RepairConfig("P", "Ts", "LP").viable


def test_config_names_round_trip():
    for config in all_configs():
        assert config_by_name(config.name) == config
    with pytest.raises(ValueError):
        config_by_name("P-T")
    with pytest.raises(ValueError):
        config_by_name("Px-T-L")


# ---------------------------------------------------------------------------
# bundles

def test_load_bundle_happy_path(corpus_dir):
    bundle = load_bundle(corpus_dir / "b01_pick_max3")
    assert bundle.name == "b01_pick_max3"
    assert bundle.ground_truth.bug_line == 22
    assert bundle.baseline_run.failing


def test_load_bundle_errors(tmp_path):
    with pytest.raises(ManifestError):
        load_bundle(tmp_path / "missing")

    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "manifest.json").write_text("{not json")
    with pytest.raises(ManifestError):
        load_bundle(bad)

    (bad / "manifest.json").write_text(json.dumps({"program": "p.sl"}))
    with pytest.raises(ManifestError):
        load_bundle(bad)

    for program, tests in ((None, "t.json"), (["p.sl"], "t.json"), ("p.sl", 7)):
        (bad / "manifest.json").write_text(json.dumps({"program": program, "tests": tests}))
        with pytest.raises(ManifestError, match="manifest needs string 'program' and 'tests'"):
            load_bundle(bad)

    (bad / "manifest.json").write_text(json.dumps({"program": "p.sl", "tests": "t.json"}))
    with pytest.raises(ManifestError):
        load_bundle(bad)  # files missing

    (bad / "p.sl").write_text("fn f(a)\nreturn a\nend\n")
    (bad / "t.json").write_text(json.dumps([
        {"id": "t", "call": {"fn": "f", "args": [{"int": 1}]}, "expect": {"value": {"int": 1}}},
    ]))
    with pytest.raises(NoFailingTests):
        load_bundle(bad)

    (bad / "t.json").write_text(json.dumps([
        {"id": "t", "call": {"fn": "f", "args": [{"int": 1}]},
         "expect": {"value": {"int": 1}, "error": "DivByZero"}},
    ]))
    with pytest.raises(ManifestError) as err:
        load_bundle(bad)
    assert str(err.value).startswith(f"{bad / 't.json'}: test 't' carries multiple")

    (bad / "p.sl").write_text("fn f(a\nreturn a\nend\n")
    (bad / "t.json").write_text(json.dumps([
        {"id": "t", "call": {"fn": "f", "args": [{"int": 1}]}, "expect": {"value": {"int": 2}}},
    ]))
    with pytest.raises(ManifestError, match="program does not parse: line 1"):
        load_bundle(bad)  # unparseable program


def test_load_corpus_parses_each_program_once(corpus_dir, monkeypatch):
    """``parser.parse``, the one ``Scope.build`` calls, is the only parse
    the package makes."""
    from reducto import parser

    parsed, parse = [], parser.parse

    def counting_parse(program, lines=None):
        parsed.append(program.id)
        return parse(program, lines)

    monkeypatch.setattr(parser, "parse", counting_parse)
    bundles = load_corpus(corpus_dir)
    assert len(bundles) == 13
    assert sorted(parsed) == sorted(b.name for b in bundles)


def test_repair_parses_only_its_candidates(corpus_bundles, monkeypatch):
    """A configuration parses its program once, for candidate generation,
    then its candidates, and the patched original of a patch found on the
    slice; every parse goes through ``parser.parse``."""
    from reducto import experiment, parser

    assert not hasattr(experiment, "parse")
    bundle = next(b for b in corpus_bundles if b.name == "b04_rate_of")
    parsed, parse = [], parser.parse

    def counting_parse(program, lines=None):
        parsed.append(program)
        return parse(program, lines)

    monkeypatch.setattr(parser, "parse", counting_parse)
    artifacts = BundleArtifacts(bundle)
    parsed.clear()
    reports = [run_config(artifacts, config)[0] for config in viable_configs()]
    candidates = sum(r.cost_proxy - r.nte for r in reports)  # cost proxy = NTE + candidates
    transfers = sum(r.transferred is not None for r in reports)
    assert len(parsed) == len(reports) + candidates + transfers and candidates > 0


def test_line_tables_are_scoped_to_a_slicer_run_and_a_repair(corpus_bundles, monkeypatch):
    """The slicer run and each configuration's repair parse through a line
    table of their own, so that every configuration starts cold.  The
    first parse of each is its own program, into the empty table."""
    from reducto import experiment, parser, repair, slicer

    bundle = next(b for b in corpus_bundles if b.name == "b03_series_sum")
    scopes = []  # (scope, its program, [(program, table, its size at the parse), ...])
    parse, within = parser.parse, []

    def opening(scope, function):
        def opened(program, *args):
            scopes.append((scope, program, []))
            within.append(scope)
            try:
                return function(program, *args)
            finally:
                within.pop()
        return opened

    def recording_parse(program, lines=None):
        if within:
            scopes[-1][2].append((program, lines, None if lines is None else len(lines)))
        return parse(program, lines)

    monkeypatch.setattr(experiment, "orbs_slice", opening("orbs_slice", slicer.orbs_slice))
    monkeypatch.setattr(experiment, "repair", opening("repair", repair.repair))
    monkeypatch.setattr(parser, "parse", recording_parse)
    artifacts = BundleArtifacts(bundle)
    for config in viable_configs():
        run_config(artifacts, config)

    assert [scope for scope, _, _ in scopes] == ["orbs_slice"] + ["repair"] * 8
    assert {program.lines for _, program, _ in scopes[1:]} == {
        bundle.program.lines, artifacts.slice_result.slice.lines
    }
    tables = []
    for scope, program, parses in scopes:
        first, table, size = parses[0]
        assert first is program, scope
        assert type(table) is dict and size == 0, scope
        assert all(seen is table for _, seen, _ in parses), scope
        assert not any(table is other for other in tables), scope
        tables.append(table)


def test_records_a_scope_shares_stay_unchanged(corpus_bundles, monkeypatch):
    """Parse records are slotted, not frozen, so nothing but this test stops
    a consumer writing to one.  After a bundle's slicer run and its eight
    repairs, each line-table entry equals a fresh form of its line, each
    unit's function equals a fresh parse of its text at the same lines."""
    from reducto import interp, parser

    scopes = []

    class RecordedScope(interp.Scope):
        __slots__ = ()

        def __init__(self):
            super().__init__()
            scopes.append(self)

    monkeypatch.setattr(interp, "Scope", RecordedScope)
    bundle = next(b for b in corpus_bundles if b.name == "b03_series_sum")
    artifacts = BundleArtifacts(bundle)
    for config in viable_configs():
        run_config(artifacts, config)

    forms = units = 0
    for scope in scopes:
        for raw, form in scope.lines.items():
            assert form == parser._line_form(raw), raw
            forms += 1
        for text, unit in scope.units.items():
            if unit is not None:
                fn = unit.fn
                fresh = parser.parse(SourceProgram(("",) * (fn.line - 1) + text))
                assert fn == fresh.functions[fn.name], text
                units += 1
    assert forms > 0 and units > 0


def test_bundle_artifacts_run_the_suite_on_the_slice_once(corpus_bundles, monkeypatch):
    """reduce_suite runs the whole suite on the slice, and LR is localized
    from the kept tests' part of that same run."""
    from reducto import experiment, harness, suite_reducer

    bundle = next(b for b in corpus_bundles if b.name == "b01_pick_max3")
    runs = []

    def counting_run_suite(program, suite):
        runs.append((program.lines, suite.ids()))
        return harness.run_suite(program, suite)

    for module in (experiment, suite_reducer):
        monkeypatch.setattr(module, "run_suite", counting_run_suite)
    art = BundleArtifacts(bundle)
    on_slice = [ids for lines, ids in runs if lines == art.slice_result.slice.lines]
    assert on_slice == [bundle.suite.ids()]
    assert list(art.reduced.on_slice.outcomes) == art.reduced.kept.ids()


def test_load_corpus_requires_bundles(tmp_path):
    with pytest.raises(ManifestError):
        load_corpus(tmp_path)


# ---------------------------------------------------------------------------
# run_config / lattice

def test_non_viable_config_rejected_before_any_work(corpus_artifacts):
    artifacts, _ = corpus_artifacts
    art = artifacts["b01_pick_max3"]
    with pytest.raises(NonViableConfig):
        run_config(art, RepairConfig("Ps", "T", "L"))


def test_lattice_rejects_a_non_viable_config_before_any_bundle_is_sliced(
        corpus_bundles, monkeypatch):
    monkeypatch.setattr(experiment, "BundleArtifacts",
                        lambda bundle: pytest.fail("artifacts were derived"))
    with pytest.raises(NonViableConfig):
        run_lattice(corpus_bundles[:1], [RepairConfig("P", "T", "L"),
                                         RepairConfig("Ps", "T", "L")])


def test_baseline_golden_values_b01(corpus_artifacts):
    """Pinned from the deterministic pipeline; the enumeration itself is
    hand-verified in test_repair on the small max3 fixture."""
    artifacts, _ = corpus_artifacts
    art = artifacts["b01_pick_max3"]
    report, result = run_config(art, RepairConfig("P", "T", "L"))
    assert report.patched
    assert report.patch_line == 22
    assert report.br == 7
    assert report.npc == 35
    assert report.tss_t == 105 and report.tss_ts == 7
    assert report.sloc_p == 65 and report.sloc_ps == 7
    truth = art.bundle.ground_truth
    assert report.patch_line == truth.bug_line
    # T9 lands exactly on `if c > m`
    new_text = edit_new_text(result.patch.edit, art.bundle.program.line(report.patch_line))
    assert new_text.strip() == truth.patched_text.strip()


def test_artifact_sharing_matches_fresh_computation(corpus_bundles):
    bundle = next(b for b in corpus_bundles if b.name == "b09_rect_area")
    art = BundleArtifacts(bundle)
    from reducto.faultloc import localize, prune_list, regenerate_list, suspicious_json
    from reducto.harness import run_suite
    from reducto.slicer import build_criterion, orbs_slice
    from reducto.suite_reducer import reduce_suite

    on_original = run_suite(bundle.program, bundle.suite)
    fresh_slice = orbs_slice(bundle.program, build_criterion(bundle.suite, on_original))
    assert fresh_slice.slice.lines == art.slice_result.slice.lines
    fresh_reduced = reduce_suite(
        fresh_slice.slice, fresh_slice.mapping, bundle.suite, on_original
    )
    assert fresh_reduced.kept.ids() == art.reduced.kept.ids()
    assert suspicious_json(localize(on_original)) == suspicious_json(art.list_original)
    assert suspicious_json(prune_list(art.list_original, fresh_slice.mapping)) == (
        suspicious_json(art.list_pruned)
    )
    on_slice = run_suite(fresh_slice.slice, fresh_reduced.kept)
    assert suspicious_json(regenerate_list(on_slice, fresh_slice.mapping)) == (
        suspicious_json(art.list_regenerated)
    )


def test_cross_config_consistency(lattice_reports):
    for bundle in {r.bundle for r in lattice_reports}:
        reports = [r for r in lattice_reports if r.bundle == bundle]
        assert len(reports) == 8
        assert len({r.tss_ts for r in reports}) == 1
        assert len({r.sloc_ps for r in reports}) == 1
        assert len({r.slice_pct for r in reports}) == 1


def test_lattice_row_counts(corpus_bundles, lattice_reports):
    twelve = {b.name for b in corpus_bundles[:12]}
    subset = [r for r in lattice_reports if r.bundle in twelve]
    assert len(subset) == 96
    by_bundle = {}
    for r in lattice_reports:
        by_bundle.setdefault(r.bundle, []).append(r.config)
    assert all(len(configs) == 8 for configs in by_bundle.values())


def test_baseline_dominance_bookkeeping(lattice_reports):
    # whenever the baseline and the pruned-list run patch the same location,
    # the pruned list reports an equal or better rank for it
    rows = {(r.bundle, r.config): r for r in lattice_reports}
    bundles = sorted({r.bundle for r in lattice_reports})
    compared = 0
    for bundle in bundles:
        base = rows[(bundle, "P-T-L")]
        pruned = rows[(bundle, "P-T-LP")]
        if base.patched and pruned.patched and base.patch_line == pruned.patch_line:
            compared += 1
            assert pruned.br <= base.br, bundle
    assert compared >= 1


def test_every_stage_runs_at_the_budget_the_bundle_was_loaded_with(corpus_dir):
    # At 60 steps four of b04's tests run out of budget and join the failing
    # ones.  Every stage runs each test at the budget the load gave it, never
    # above 60, so the slicer's self-check holds and each configuration runs
    # to the end.
    bundle = load_bundle(Path(corpus_dir) / "b04_rate_of", budget=60)
    reports = bundle_reports(BundleArtifacts(bundle), viable_configs())
    assert [r.config for r in reports] == [c.name for c in viable_configs()]
    assert {r.stop_reason for r in reports} == {"exhausted"}


COUNTING = """\
fn f(n)
let i = 0
while i != n
i = i + 1
end
return i
end
"""


def test_each_test_runs_at_factor_times_its_steps_on_the_original(tmp_path):
    """Between FLOOR and the budget the bundle was loaded with.  ``f(-1)``
    exhausts that budget on the original program and keeps it."""
    (tmp_path / "program.sl").write_text(COUNTING)
    (tmp_path / "tests.json").write_text(json.dumps([
        {"id": t, "call": {"fn": "f", "args": [{"int": n}]}, "expect": {"value": {"int": v}}}
        for t, n, v in (("t_spin", -1, 0), ("t_short", 1, 1), ("t_long", 50, 50),
                        ("t_longer", 200, 200))
    ]))
    (tmp_path / "manifest.json").write_text('{"program": "program.sl", "tests": "tests.json"}')
    bundle = load_bundle(tmp_path, budget=5_000)
    steps = {t: o.steps for t, o in bundle.baseline_run.outcomes.items()}
    assert steps["t_spin"] == 5_000 and steps["t_short"] * FACTOR < FLOOR
    assert FACTOR * steps["t_long"] < 5_000 < FACTOR * steps["t_longer"]
    assert {t.id: t.budget for t in bundle.suite} == {
        "t_spin": 5_000, "t_short": FLOOR, "t_long": FACTOR * steps["t_long"],
        "t_longer": 5_000,
    }


def test_a_tests_budget_depends_on_the_bundle_alone(corpus_dir):
    """Loading a bundle again, after a lattice has run on it, gives each of
    its tests the same budget."""
    path = Path(corpus_dir) / "b03_series_sum"
    first = load_bundle(path)
    bundle_reports(BundleArtifacts(first), viable_configs())
    assert [t.budget for t in load_bundle(path).suite] == [t.budget for t in first.suite]


def test_lattice_lets_unexpected_errors_escape(corpus_bundles, corpus_artifacts, monkeypatch):
    from reducto import experiment

    def broken(*args, **kwargs):
        raise RuntimeError("fault inside a configuration")

    monkeypatch.setattr(experiment, "run_config", broken)
    artifacts, _ = corpus_artifacts
    with pytest.raises(RuntimeError, match="fault inside a configuration"):
        bundle_reports(artifacts[corpus_bundles[0].name], viable_configs())


# ---------------------------------------------------------------------------
# emission

def test_csv_columns_and_percent_formatting():
    document = emit_report([fake_report()], "csv")
    rows = list(csv.reader(io.StringIO(document)))
    assert rows[0] == list(CSV_COLUMNS)
    row = dict(zip(rows[0], rows[1]))
    assert row["slice_pct"] == "4.1"  # one decimal place
    assert row["patched"] == "true"
    assert row["transferred"] == ""
    assert row["br"] == "82"


def test_csv_empty_report_set_is_header_only():
    document = emit_report([], "csv")
    assert document == ",".join(CSV_COLUMNS) + "\n"


def test_json_and_csv_carry_identical_values(lattice_reports):
    reports = [r for r in lattice_reports if r.bundle == "b02_last_of"]
    csv_rows = list(csv.DictReader(io.StringIO(emit_report(reports, "csv"))))
    json_rows = json.loads(emit_report(reports, "json"))
    assert len(csv_rows) == len(json_rows) == 8
    for c_row, j_row in zip(csv_rows, json_rows):
        for column in CSV_COLUMNS:
            j_val = j_row[column]
            if j_val is None:
                assert c_row[column] == ""
            elif isinstance(j_val, bool):
                assert c_row[column] == ("true" if j_val else "false")
            else:
                assert c_row[column] == str(j_val)


def test_report_rows_sorted_by_bundle_then_config_order(lattice_reports):
    reports = []
    for name in ("b03_series_sum", "b02_last_of"):
        rows = {r.config: r for r in lattice_reports if r.bundle == name}
        for config in reversed(viable_configs()):
            reports.append(rows[config.name])
    rows = list(csv.DictReader(io.StringIO(emit_report(reports, "csv"))))
    assert [r["bundle"] for r in rows[:8]] == ["b02_last_of"] * 8
    assert [r["config"] for r in rows[:8]] == [c.name for c in viable_configs()]


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        emit_report([], "xml")


# ---------------------------------------------------------------------------
# golden report

def test_lattice_report_matches_golden_csv(lattice_reports):
    """tests/data/corpus_report.csv is `reducto experiment corpus` without
    its rt_ms column; only a change meant to alter the report rewrites it."""
    golden = Path(__file__).parent / "data" / "corpus_report.csv"
    assert strip_rt_column(emit_report(lattice_reports)) == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("hash_seed", ["0", "987654"])
def test_lattice_report_is_the_golden_one_under_any_hash_seed(corpus_dir, tmp_path, hash_seed):
    """`reducto experiment` in a fresh process, whose string hashes and so
    set and dict orders of strings follow PYTHONHASHSEED, writes the golden
    report minus rt_ms; exit 1 because a few sliced configurations cannot
    patch."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    out = tmp_path / "report.csv"
    done = subprocess.run([sys.executable, "-m", "reducto.cli", "experiment", str(corpus_dir),
                           "--out", str(out)], env=env, stdout=subprocess.DEVNULL)
    assert done.returncode == 1
    golden = Path(__file__).parent / "data" / "corpus_report.csv"
    assert strip_rt_column(out.read_text(encoding="utf-8")) == golden.read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# compare, through `reducto compare` on two report CSVs

def compare_cells(tmp_path, capsys, base, other, code=0) -> list[str]:
    """The row `reducto compare` prints for base's bundle: dRT%, dNTE%,
    dNPC%, dBR and same_loc."""
    return compare_documents(
        tmp_path, capsys, emit_report([base]), emit_report([other]),
        base.config, other.config, base.bundle, code,
    )


def compare_documents(tmp_path, capsys, base, other, base_config, other_config,
                      bundle, code=0) -> list[str]:
    """``compare_cells`` over two report CSV documents."""
    paths = []
    for name, document in (("base", base), ("other", other)):
        path = tmp_path / f"{name}.csv"
        path.write_text(document, encoding="utf-8")
        paths.append(str(path))
    capsys.readouterr()
    assert main([
        "compare", *paths, "--base-config", base_config, "--other-config", other_config,
    ]) == code
    out = capsys.readouterr().out.splitlines()
    return next((line.split()[1:] for line in out if line.startswith(bundle + " ")), [])


def test_compare_reproduces_published_reduction_shapes(tmp_path, capsys):
    # a 10946s -> 990s repair time is a 91% reduction
    base = fake_report(rt_ms=10946.0, nte=687946, npc=573)
    other = fake_report(config="Ps-Ts-LP", rt_ms=990.0, nte=48492, npc=502)
    rt, nte, npc, _, same = compare_cells(tmp_path, capsys, base, other)
    assert round(float(rt)) == 91
    # 687946 -> 48492 test executions is a 93% reduction
    assert round(float(nte)) == 93
    assert float(npc) == pytest.approx((573 - 502) / 573 * 100, abs=0.05)
    assert same == "yes"


def test_compare_identical_reports_zero_everywhere(tmp_path, capsys):
    report = fake_report()
    assert compare_cells(tmp_path, capsys, report, report) == [
        "0.0", "0.0", "0.0", "0", "yes",
    ]


def test_compare_negative_when_other_is_worse(tmp_path, capsys):
    base = fake_report(rt_ms=492.0)
    other = fake_report(config="P-T-LR", rt_ms=1348.08)
    rt = compare_cells(tmp_path, capsys, base, other)[0]
    assert round(float(rt)) == -174


def test_compare_requires_same_bundle(tmp_path, capsys):
    assert compare_cells(tmp_path, capsys, fake_report(), fake_report(bundle="by"), code=2) == []


def test_compare_handles_missing_metrics(tmp_path, capsys):
    # `compare` also reads report CSVs written elsewhere, which may leave
    # metric cells empty
    other = (
        ",".join(CSV_COLUMNS) + "\n"
        + "bx,P-T-LP,20442,836,4.1,2196,73,,,,,,false,,,,exhausted\n"
    )
    assert compare_documents(
        tmp_path, capsys, emit_report([fake_report()]), other, "P-T-L", "P-T-LP", "bx",
    ) == ["-", "-", "-", "-", "-"]
