import argparse
import csv
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from reducto.cli import build_arg_parser, main
from reducto.experiment import CSV_COLUMNS, emit_report
from reducto.harness import load_suite

from conftest import fake_report
from test_acceptance import strip_rt_column


@pytest.fixture(scope="module")
def bundle_path(corpus_dir):
    return str(Path(corpus_dir) / "b04_rate_of")


def test_slice_writes_artifacts(bundle_path, tmp_path):
    out = tmp_path / "out"
    assert main(["slice", bundle_path, "--out", str(out)]) == 0
    slice_text = (out / "slice.sl").read_text()
    assert "fn rate_of(total, count)" in slice_text
    log = json.loads((out / "deletion_log.json").read_text())
    assert set(log) == {"deleted", "mapping"}
    assert all(len(pair) == 2 for pair in log["mapping"])
    stats = json.loads((out / "slice_stats.json").read_text())
    assert set(stats) == {"orig_sloc", "slice_sloc", "percent"}
    assert stats["slice_sloc"] == 3


def test_reduce_tests_writes_loadable_suite(bundle_path, tmp_path):
    out = tmp_path / "out"
    assert main(["reduce-tests", bundle_path, "--out", str(out)]) == 0
    reduced = load_suite(out / "tests_reduced.json")  # same schema as tests.json
    assert len(reduced) == 5
    log = json.loads((out / "reduction_log.json").read_text())
    assert set(log) == {"kept", "removed"}
    assert len(log["kept"]) == 5
    assert all(set(entry) == {"id", "reason"} for entry in log["removed"])


def test_localize_writes_all_three_lists(bundle_path, tmp_path):
    out = tmp_path / "out"
    assert main(["localize", bundle_path, "--out", str(out)]) == 0
    for variant in ("L", "LP", "LR"):
        entries = json.loads((out / f"suspicious_{variant}.json").read_text())
        assert entries, variant
        assert set(entries[0]) == {"line", "score", "rank"}
        ranks = [e["rank"] for e in entries]
        assert ranks == list(range(1, len(entries) + 1))


def test_localize_single_list(bundle_path, tmp_path):
    out = tmp_path / "out"
    assert main(["localize", bundle_path, "--list", "LP", "--out", str(out)]) == 0
    assert (out / "suspicious_LP.json").exists()
    assert not (out / "suspicious_L.json").exists()


def test_stage_commands_accept_a_precomputed_slice(bundle_path, tmp_path):
    slice_dir = tmp_path / "sliced"
    assert main(["slice", bundle_path, "--out", str(slice_dir)]) == 0

    reduced_out = tmp_path / "reduced"
    assert main(["reduce-tests", bundle_path, "--slice", str(slice_dir),
                 "--out", str(reduced_out)]) == 0
    from_slice = json.loads((reduced_out / "reduction_log.json").read_text())

    fresh_out = tmp_path / "fresh"
    assert main(["reduce-tests", bundle_path, "--out", str(fresh_out)]) == 0
    fresh = json.loads((fresh_out / "reduction_log.json").read_text())
    assert from_slice == fresh

    loc_out = tmp_path / "loc"
    assert main(["localize", bundle_path, "--slice", str(slice_dir),
                 "--out", str(loc_out)]) == 0
    fresh_loc = tmp_path / "fresh_loc"
    assert main(["localize", bundle_path, "--out", str(fresh_loc)]) == 0
    for variant in ("L", "LP", "LR"):
        name = f"suspicious_{variant}.json"
        assert (loc_out / name).read_bytes() == (fresh_loc / name).read_bytes(), variant


def _log(mapping=((1, 44), (2, 45), (3, 72)), undeclared=()) -> str:
    """A deletion log for b04_rate_of's 72 lines, by default its real one:
    lines 44, 45 and 72 survive, and every other line is deleted except
    the ``undeclared`` ones."""
    survivors = {o for _, o in mapping}
    deleted = [n for n in range(1, 73) if n not in survivors and n not in undeclared]
    return json.dumps({"deleted": deleted, "mapping": [list(pair) for pair in mapping]})


# Each log with the start of the reason its error gives
MALFORMED_LOGS = {
    "invalid_json": ("{not json", "Expecting property name"),
    "top_level_list": (json.dumps([[1, 44], [2, 45], [3, 72]]), "deletion log must be"),
    "non_int_entry": (_log(mapping=((1, 44), (2, "x"), (3, 72))),
                      "original line numbers must be integers"),
    "lines_not_covered": (_log(undeclared=(1,)), "surviving and deleted lines do not split"),
    "swapped_slice_lines": (_log(mapping=((2, 44), (1, 45), (3, 72))),
                            "slice lines must run 1, 2, ... in order"),
    "unordered_survivors": (_log(mapping=((1, 45), (2, 44), (3, 72))),
                            "surviving original lines must strictly increase"),
}


@pytest.mark.parametrize("shape", sorted(MALFORMED_LOGS))
def test_malformed_deletion_log_is_exit_two(bundle_path, tmp_path, capsys, shape):
    slice_dir = tmp_path / "sliced"
    slice_dir.mkdir()
    log_path = slice_dir / "deletion_log.json"
    document, reason = MALFORMED_LOGS[shape]
    log_path.write_text(document)
    for command in ("reduce-tests", "localize"):
        capsys.readouterr()
        code = main([command, bundle_path, "--slice", str(slice_dir),
                     "--out", str(tmp_path / "out")])
        assert code == 2, command
        assert capsys.readouterr().err.startswith(f"error: {log_path}: {reason}"), command


def test_a_slice_on_which_the_failing_tests_pass_is_exit_two_for_every_stage(
        bundle_path, tmp_path, capsys):
    """Keeping only rate_of's header and ``end``, both failing tests pass;
    keeping its header alone, the slice does not parse; keeping dot_of's
    ``return total`` as its body, it returns 10.  No slice reproduces the
    baseline, so every stage that reads it rejects its deletion log,
    whichever output it writes, with a message that says what the slice
    gave."""
    slice_dir = tmp_path / "sliced"
    slice_dir.mkdir()
    log_path = slice_dir / "deletion_log.json"
    gives = {((1, 44), (2, 72)): "Pass", ((1, 44),): "Unbuildable",
             ((1, 44), (2, 65), (3, 72)): 'Fail {"value":{"int":10}}'}
    for mapping, given in gives.items():
        log_path.write_text(_log(mapping=mapping))
        for command in (["reduce-tests"], ["localize", "--list", "L"], ["localize"]):
            capsys.readouterr()
            code = main([*command, bundle_path, "--slice", str(slice_dir),
                         "--out", str(tmp_path / "out")])
            assert code == 2, (mapping, command)
            err = capsys.readouterr().err
            assert err == (
                f"error: {log_path}: the slice does not reproduce the baseline failure "
                f"of test r000_rate_of: it gives {given}, not Errored DivByZero at line 45\n"
            ), (mapping, command)


def _bundle_copy(bundle_path, tmp_path) -> Path:
    copy = tmp_path / "bundle"
    shutil.copytree(bundle_path, copy)
    return copy


def _rejected_by_every_loading_command(bundle, capsys) -> None:
    for command in ("slice", "localize"):
        capsys.readouterr()
        assert main([command, str(bundle), "--out", str(bundle.parent / "out")]) == 2, command
        assert capsys.readouterr().err.startswith("error: "), command


# b04_rate_of has 72 lines, and its bug is on line 45.
MALFORMED_GROUND_TRUTHS = {
    "string_bug_line": {"bug_line": "x", "patched_text": "return 0"},
    "bool_bug_line": {"bug_line": True, "patched_text": "return 0"},
    "float_bug_line": {"bug_line": 45.0, "patched_text": "return 0"},
    "bug_line_zero": {"bug_line": 0, "patched_text": "return 0"},
    "bug_line_past_the_end": {"bug_line": 999, "patched_text": "return 0"},
    "int_patched_text": {"bug_line": 45, "patched_text": 7},
    "missing_patched_text": {"bug_line": 45},
    "not_an_object": [45, "return 0"],
}


@pytest.mark.parametrize("shape", sorted(MALFORMED_GROUND_TRUTHS))
def test_malformed_ground_truth_is_exit_two(bundle_path, tmp_path, capsys, shape):
    bundle = _bundle_copy(bundle_path, tmp_path)
    manifest = json.loads((bundle / "manifest.json").read_text())
    manifest["ground_truth"] = MALFORMED_GROUND_TRUTHS[shape]
    (bundle / "manifest.json").write_text(json.dumps(manifest))
    _rejected_by_every_loading_command(bundle, capsys)


def test_a_program_with_crlf_line_ends_slices_as_with_lf(bundle_path, tmp_path, capsys):
    bundle = _bundle_copy(bundle_path, tmp_path)
    program = bundle / "program.sl"
    outputs = []
    for ends in (b"\n", b"\r\n"):
        program.write_bytes(program.read_bytes().replace(b"\r\n", b"\n").replace(b"\n", ends))
        out = tmp_path / f"out{len(outputs)}"
        capsys.readouterr()
        assert main(["slice", str(bundle), "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith("bundle: 63 -> 3 SLoC")
        outputs.append([(out / name).read_bytes() for name in ("slice.sl", "deletion_log.json")])
    assert outputs[0] == outputs[1]


def test_ground_truth_on_the_last_line_is_accepted(bundle_path, tmp_path):
    bundle = _bundle_copy(bundle_path, tmp_path)
    manifest = json.loads((bundle / "manifest.json").read_text())
    manifest["ground_truth"]["bug_line"] = 72
    (bundle / "manifest.json").write_text(json.dumps(manifest))
    assert main(["slice", str(bundle), "--out", str(tmp_path / "out")]) == 0


NESTED_5000 = "[" * 5000 + "]" * 5000


def test_deeply_nested_manifest_is_exit_two(bundle_path, tmp_path, capsys):
    bundle = _bundle_copy(bundle_path, tmp_path)
    (bundle / "manifest.json").write_text(NESTED_5000)
    _rejected_by_every_loading_command(bundle, capsys)


def test_deeply_nested_test_argument_is_exit_two(bundle_path, tmp_path, capsys):
    bundle = _bundle_copy(bundle_path, tmp_path)
    (bundle / "tests.json").write_text(
        '[{"id": "t", "call": {"fn": "rate_of", "args": [' + NESTED_5000 + ']}, '
        '"expect": {"value": {"int": 0}}}]'
    )
    _rejected_by_every_loading_command(bundle, capsys)


def test_float_beyond_a_double_in_the_tests_is_exit_two(bundle_path, tmp_path, capsys):
    bundle = _bundle_copy(bundle_path, tmp_path)
    (bundle / "tests.json").write_text(
        '[{"id": "t", "call": {"fn": "rate_of", "args": []}, '
        '"expect": {"value": {"float": 1' + "0" * 400 + '}}}]'
    )
    for command in ("slice", "localize"):
        capsys.readouterr()
        assert main([command, str(bundle), "--out", str(tmp_path / "out")]) == 2, command
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bundle / 'tests.json'}: bad float literal"), command
        assert err.count("\n") == 1, command


def test_integer_literal_beyond_cpython_digits_names_the_line(bundle_path, tmp_path, capsys):
    bundle = _bundle_copy(bundle_path, tmp_path)
    program = bundle / "program.sl"
    program.write_text(program.read_text() + "fn big()\nreturn " + "9" * 4301 + "\nend\n")
    for command in ("slice", "localize"):
        capsys.readouterr()
        assert main([command, str(bundle), "--out", str(tmp_path / "out")]) == 2, command
        err = capsys.readouterr().err
        assert err.startswith(f"error: {program}: program does not parse: line 74: "
                              "integer literal too long"), command


def _set(keys, value):
    """A change of a JSON file's bytes that sets the node at ``keys`` to ``value``."""
    def change(data: bytes) -> bytes:
        document = json.loads(data)
        node = document
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        return json.dumps(document).encode()
    return change


# Faults that once escaped as a TypeError or printed no file name, each as
# (the file at fault, how its bytes change)
NAMED_FILE_FAULTS = {
    "program_null": ("manifest.json", _set(["program"], None)),
    "args_null": ("tests.json", _set([0, "call", "args"], None)),
    "fn_a_list": ("tests.json", _set([0, "call", "fn"], [])),
    "two_expectations": ("tests.json", _set([0, "expect", "error"], "DivByZero")),
    "output_not_a_list": ("tests.json", _set([0, "expect"], {"output": 5})),
    "program_not_utf8": ("program.sl", lambda data: data + b"\xff"),
}


@pytest.mark.parametrize("fault", sorted(NAMED_FILE_FAULTS))
def test_experiment_names_the_file_at_fault(bundle_path, tmp_path, capsys, fault):
    name, change = NAMED_FILE_FAULTS[fault]
    corpus = tmp_path / "corpus"
    bundle = _bundle_copy(bundle_path, corpus)
    path = bundle / name
    path.write_bytes(change(path.read_bytes()))
    assert main(["experiment", str(corpus), "--configs", "P-T-L"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err


_RUN_EACH_COMMAND = """\
import contextlib, io, json, sys
from reducto.cli import main
outcomes = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        outcomes.append([main(argv), err.getvalue()])
print(json.dumps(outcomes))
"""


def _digits_bundle(path: Path, returned="x", arg="0", bug_line="2") -> Path:
    """A three-line bundle whose program returns ``returned``, whose one
    test passes ``arg`` and whose manifest names ``bug_line``."""
    path.mkdir()
    (path / "program.sl").write_text(f"fn f(x)\nreturn {returned}\nend\n")
    (path / "tests.json").write_text(
        '[{"id": "t", "call": {"fn": "f", "args": [{"int": %s}]}, '
        '"expect": {"value": {"int": 1}}}]' % arg
    )
    (path / "manifest.json").write_text(
        '{"program": "program.sl", "tests": "tests.json", '
        '"ground_truth": {"bug_line": %s, "patched_text": "return 1"}}' % bug_line
    )
    return path


def test_long_integer_literals_do_not_depend_on_the_process_digit_limit(tmp_path):
    """A 1,000-digit literal is read and a 5,000-digit one rejected, in the
    program, the tests file, the manifest and a deletion log, whatever
    PYTHONINTMAXSTRDIGITS says."""
    commands = []
    for digits in (1_000, 5_000):
        literal = "9" * digits
        for where in ("returned", "arg", "bug_line"):
            bundle = _digits_bundle(tmp_path / f"{where}_{digits}", **{where: literal})
            commands.append(["slice", str(bundle)])
    slice_dir = tmp_path / "slice_5000"
    slice_dir.mkdir()
    (slice_dir / "deletion_log.json").write_text(
        '{"deleted": [], "mapping": [[1, 1], [2, 2], [3, %s]]}' % ("9" * 5_000)
    )
    commands.append(["reduce-tests", str(tmp_path / "returned_1000"), "--slice", str(slice_dir)])
    outcomes = []
    for limit in (None, "0", "640"):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        if limit is not None:
            env["PYTHONINTMAXSTRDIGITS"] = limit
        argv = [command + ["--out", f"{tmp_path}/out-{limit}-{i}"]
                for i, command in enumerate(commands)]
        done = subprocess.run([sys.executable, "-c", _RUN_EACH_COMMAND, json.dumps(argv)],
                              env=env, check=True, stdout=subprocess.PIPE, text=True)
        written = [
            sorted((p.name, p.read_text()) for p in Path(command[-1]).glob("*"))
            for command in argv
        ]
        outcomes.append(list(zip(json.loads(done.stdout), written)))
    assert outcomes[0] == outcomes[1] == outcomes[2]
    assert [status for (status, _), _ in outcomes[0]] == [0, 0, 2, 2, 2, 2, 2]
    assert "more than 4300 digits" in outcomes[0][-1][0][1]


def test_repair_writes_result(bundle_path, tmp_path):
    out = tmp_path / "out"
    assert main(["repair", bundle_path, "--config", "Ps-Ts-LP", "--out", str(out)]) == 0
    result = json.loads((out / "repair_result.json").read_text())
    assert set(result) == {
        "patched", "patch", "npc", "nte", "rt_ms", "cost_proxy", "br",
        "stop_reason", "transferred",
    }
    assert result["patched"] is True
    assert result["transferred"] is True
    assert result["patch"]["template"] == "T8"
    assert result["patch"]["new_text"].splitlines()[0] == "if count != 0"


def test_repair_rejects_non_viable_config(bundle_path, tmp_path):
    assert main(["repair", bundle_path, "--config", "Ps-T-L",
                 "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("command", [
    ["repair", "--config", "X-T-L"],
    ["slice", "--budget", "-5"],
    ["localize", "--budget", "-1"],
], ids=["bad_config_name", "negative_budget", "negative_budget_localize"])
def test_unusable_arguments_are_exit_two(bundle_path, tmp_path, capsys, command):
    name, *flags = command
    assert main([name, bundle_path, *flags, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", [
    ["slice"], ["reduce-tests"], ["localize"], ["repair", "--config", "P-T-L"],
], ids=["slice", "reduce-tests", "localize", "repair"])
def test_stage_command_unusable_out_is_exit_two_before_the_stage_runs(
    bundle_path, tmp_path, capsys, monkeypatch, command
):
    """An ``--out`` that is a file, or lies under one, is a usage error
    before the bundle's stages run."""
    from reducto import cli

    def stages(*args, **kwargs):
        raise AssertionError("the stages ran")

    monkeypatch.setattr(cli, "BundleArtifacts", stages)
    name, *flags = command
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    for out in (taken, taken / "out"):
        assert main([name, bundle_path, *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")
    assert taken.read_text() == "kept\n"


def test_repair_takes_no_wall_clock_cap(bundle_path, tmp_path, capsys):
    """A repair stops only on counts, so there is no time cap to set."""
    with pytest.raises(SystemExit) as exited:
        main(["repair", bundle_path, "--config", "P-T-L", "--wall-clock", "5",
              "--out", str(tmp_path)])
    assert exited.value.code == 2
    assert "unrecognized arguments: --wall-clock" in capsys.readouterr().err
    assert not (tmp_path / "repair_result.json").exists()


def test_experiment_csv_and_exit_codes(corpus_dir, tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = main([
        "experiment", str(corpus_dir), "--configs", "P-T-L,P-Ts-L",
        "--out", str(out),
    ])
    assert code == 0  # both configurations patch every bundle
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 26  # 13 bundles x 2 configs
    assert {r["config"] for r in rows} == {"P-T-L", "P-Ts-L"}


def test_experiment_rejects_bad_config_names(corpus_dir, tmp_path):
    assert main(["experiment", str(corpus_dir), "--configs", "Ps-T-L"]) == 2
    assert main(["experiment", str(corpus_dir), "--configs", "nonsense"]) == 2


def test_experiment_missing_corpus_is_exit_two(tmp_path):
    assert main(["experiment", str(tmp_path / "nowhere")]) == 2


def test_experiment_unwritable_out_is_exit_two_before_the_corpus_loads(
    corpus_dir, tmp_path, capsys, monkeypatch
):
    from reducto import cli

    def load_corpus(*args, **kwargs):
        raise AssertionError("the corpus loaded")

    monkeypatch.setattr(cli, "load_corpus", load_corpus)
    for out in (tmp_path / "nowhere" / "r.csv", tmp_path):
        assert main(["experiment", str(corpus_dir), "--configs", "P-T-L",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")
    assert not (tmp_path / "nowhere").exists()


def test_corpus_commands_reject_a_negative_budget(corpus_dir, tmp_path, capsys):
    assert main(["experiment", str(corpus_dir), "--budget", "-1"]) == 2
    assert capsys.readouterr().err.count("error: budget must be >= 0") == 1
    # make-corpus runs at the default budget and takes no --budget at all
    with pytest.raises(SystemExit) as exited:
        main(["make-corpus", str(tmp_path / "out"), "--budget", "-1"])
    assert exited.value.code == 2
    assert "unrecognized arguments: --budget" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [
    ["slice"], ["reduce-tests"], ["localize"], ["repair", "--config", "P-T-L"], ["experiment"],
], ids=["slice", "reduce_tests", "localize", "repair", "experiment"])
def test_slicer_takes_no_pass_cap(bundle_path, capsys, command):
    """The slicer always runs to its fixpoint, so no command has --max-passes."""
    name, *flags = command
    with pytest.raises(SystemExit) as exited:
        main([name, bundle_path, *flags, "--max-passes", "1"])
    assert exited.value.code == 2
    assert "unrecognized arguments: --max-passes" in capsys.readouterr().err


def test_readme_names_only_existing_flags():
    """Every --flag README gives for `reducto` is an option of some subcommand."""
    sub = next(a for a in build_arg_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    known = {flag for p in sub.choices.values() for a in p._actions
             for flag in a.option_strings}
    readme = Path(__file__).resolve().parent.parent / "README.md"
    named = {
        flag
        for line in readme.read_text(encoding="utf-8").splitlines()
        if not line.lstrip().startswith(("pip ", "pytest"))
        for flag in re.findall(r"(?<![\w-])--[a-z][a-z-]*", line)
    }
    assert named, "README names no flags"
    assert named <= known, sorted(named - known)


def test_experiment_json_format(corpus_dir, tmp_path):
    out = tmp_path / "report.json"
    code = main([
        "experiment", str(corpus_dir), "--configs", "P-T-L",
        "--out", str(out), "--format", "json",
    ])
    assert code == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 13
    assert rows[0]["config"] == "P-T-L"


@pytest.fixture(scope="module")
def subset_report(corpus_dir, tmp_path_factory):
    """`reducto experiment --configs P-Ts-LP,Ps-Ts-LP`: its CSV and exit code."""
    out = tmp_path_factory.mktemp("subset") / "report.csv"
    code = main(["experiment", str(corpus_dir), "--configs", "P-Ts-LP,Ps-Ts-LP",
                 "--out", str(out)])
    return out, code


def test_config_subset_gives_the_full_lattice_rows(subset_report, lattice_reports):
    """P-T-L runs too, outside the report, so same_location is still filled in."""
    out, _ = subset_report
    wanted = [r for r in lattice_reports if r.config in ("P-Ts-LP", "Ps-Ts-LP")]
    assert any(r.same_location for r in wanted)
    assert strip_rt_column(out.read_text()) == strip_rt_column(emit_report(wanted))


def test_a_configuration_named_twice_is_a_usage_error(corpus_dir, tmp_path, capsys):
    """Each configuration runs once, so naming one twice would report it
    twice; it is exit 2 before the corpus loads."""
    out = tmp_path / "report.csv"
    code = main(["experiment", str(corpus_dir), "--configs", "P-T-L,Ps-Ts-LP,P-T-L",
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and not out.exists()
    assert err == "error: --configs names P-T-L more than once\n"


def test_compare_names_the_report_without_the_configuration(tmp_path, capsys):
    """A report with no rows for ``--base-config`` or ``--other-config`` is
    exit 2, naming the file and the configuration, not the bundles."""
    base, other = tmp_path / "base.csv", tmp_path / "other.csv"
    base.write_text(REPORT, encoding="utf-8")
    other.write_text(REPORT.replace(",P-T-L,", ",P-T-LR,"), encoding="utf-8")
    for flags, missing in (([], f"{other} has no rows for configuration Ps-Ts-LP"),
                           (["--base-config", "P-T-LR", "--other-config", "P-T-LR"],
                            f"{base} has no rows for configuration P-T-LR")):
        capsys.readouterr()
        assert main(["compare", str(base), str(other), *flags]) == 2
        assert capsys.readouterr().err == f"error: {missing}\n"


def test_compare_over_two_reports(corpus_dir, tmp_path, capsys, subset_report):
    base = tmp_path / "base.csv"
    other, code = subset_report
    assert main(["experiment", str(corpus_dir), "--configs", "P-T-L",
                 "--out", str(base)]) == 0
    assert code == 1  # some bundles legitimately cannot be patched on the slice
    capsys.readouterr()
    assert main(["compare", str(base), str(other)]) == 0
    printed = capsys.readouterr().out
    assert "mean" in printed
    assert "b04_rate_of" in printed


def test_compare_prints_a_delta_per_bundle_and_their_mean(tmp_path, capsys):
    """A delta against a base of 0 prints ``-`` and stays out of the mean."""
    base, other = tmp_path / "base.csv", tmp_path / "other.csv"
    base.write_text(emit_report([
        fake_report(bundle="ba", rt_ms=200.0, nte=40, npc=0, br=3, patch_line=9),
        fake_report(bundle="bb", rt_ms=100.0, nte=10, npc=4, br=2, patch_line=5),
    ]), encoding="utf-8")
    other.write_text(emit_report([
        fake_report(bundle="ba", config="Ps-Ts-LP", rt_ms=50.0, nte=30, npc=2, br=1,
                    patch_line=9),
        fake_report(bundle="bb", config="Ps-Ts-LP", rt_ms=100.0, nte=5, npc=3, br=2,
                    patch_line=7),
    ]), encoding="utf-8")
    assert main(["compare", str(base), str(other)]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        f"{'ba':24s}     75.0     25.0        -     2 yes",
        f"{'bb':24s}      0.0     50.0     25.0     0 no",
        f"{'mean':24s}     37.5     37.5     25.0",
    ]


def test_compare_without_a_shared_bundle_is_exit_two(tmp_path, capsys):
    base, other = tmp_path / "base.csv", tmp_path / "other.csv"
    base.write_text(REPORT, encoding="utf-8")
    other.write_text(emit_report([fake_report(bundle="by", config="Ps-Ts-LP")]),
                     encoding="utf-8")
    assert main(["compare", str(base), str(other)]) == 2
    assert capsys.readouterr().err == "error: no shared bundles between the two reports\n"


def _drop_column(document: str, column: str) -> str:
    rows = list(csv.reader(document.splitlines()))
    at = rows[0].index(column)
    return "".join(",".join(row[:at] + row[at + 1:]) + "\n" for row in rows)


REPORT = emit_report([fake_report()])


MALFORMED_REPORTS = {
    "latin_1": REPORT.replace("bx", "b\xe9").encode("latin-1"),
    "oversized_field": (REPORT + "x" * (csv.field_size_limit() + 1) + "\n").encode(),
    "short_row": (REPORT + "bx,P-T-L,1\n").encode(),
    "long_row": (REPORT + "bx,P-T-L" + ",1" * len(CSV_COLUMNS) + "\n").encode(),
    **{f"no_{column}": _drop_column(REPORT, column).encode()
       for column in ("bundle", "config", "br", "patch_line", "rt_ms", "nte", "npc")},
}


@pytest.mark.parametrize("name", sorted(MALFORMED_REPORTS))
def test_compare_rejects_a_malformed_report(tmp_path, capsys, name):
    """Exit 1 would mean "no patch": a report compare cannot read is exit 2
    with one error line, whichever side it is on."""
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text(REPORT, encoding="utf-8")
    bad.write_bytes(MALFORMED_REPORTS[name])
    for pair in ((good, bad), (bad, good)):
        capsys.readouterr()
        assert main(["compare", *map(str, pair)]) == 2, name
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad) in err and err.count("\n") == 1, err


def test_make_corpus_round_trip(tmp_path):
    out = tmp_path / "corpus"
    assert main(["make-corpus", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir())[:2] == ["b01_pick_max3", "b02_last_of"]
    assert (out / "b01_pick_max3" / "manifest.json").exists()


def test_unreadable_bundle_is_exit_two(tmp_path):
    assert main(["slice", str(tmp_path / "missing")]) == 2
