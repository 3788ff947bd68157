"""Command-line interface.

Subcommands mirror the pipeline stages: ``slice``, ``reduce-tests``,
``localize``, ``repair``, the full ``experiment`` lattice runner, a
``compare`` helper over two report CSVs, and ``make-corpus`` to write the
seeded bundle corpus.  Exit codes: 0 success, 1 per-configuration failures
present, 2 corpus, manifest, report or argument errors.  ``--budget`` is
fixed when a bundle loads: every stage of that bundle runs at it.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

from . import corpus as corpus_mod
from . import interp
from .experiment import (
    BundleArtifacts,
    ManifestError,
    NonViableConfig,
    config_by_name,
    emit_report,
    load_bundle,
    load_corpus,
    run_config,
    run_lattice,
    viable_configs,
)
from .faultloc import localize, prune_list, regenerate_list, suspicious_json
from .repair import edit_new_text
from .slicer import NoFailingTests, deletion_log_json, slice_result_from_log
from .suite_reducer import reduce_suite, reduction_log_json
from .harness import MultiAssertTest, save_suite


class UsageError(Exception):
    """A command-line value the pipeline cannot take."""


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _writable(path: str) -> None:
    """A UsageError unless ``path`` can be opened for writing; a missing
    file is created, an existing one keeps what it holds."""
    try:
        open(path, "a", encoding="utf-8").close()
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _usable(make, *args, **kwargs):
    """``make(*args, **kwargs)``; the ValueError it raises for a value it
    cannot take becomes a UsageError."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(exc) from exc


def _bundle(args):
    return _usable(load_bundle, args.bundle, budget=args.budget)


def _artifacts(args) -> BundleArtifacts:
    return BundleArtifacts(_bundle(args))


def _load_slice_dir(bundle, slice_dir: str):
    """(slice program, mapping) from a directory written by `reducto slice`."""
    root = Path(slice_dir)
    log_path = root / "deletion_log.json"
    if not log_path.is_file():
        raise ManifestError(f"{root}: no deletion_log.json")
    try:
        log = json.loads(log_path.read_text(encoding="utf-8"))
        return slice_result_from_log(bundle.program, log)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise ManifestError(f"{log_path}: {exc}") from exc


def cmd_slice(args) -> int:
    art = _artifacts(args)
    out = Path(args.out or args.bundle)
    out.mkdir(parents=True, exist_ok=True)
    result = art.slice_result
    (out / "slice.sl").write_text(result.slice.to_text(), encoding="utf-8")
    _write_json(out / "deletion_log.json", deletion_log_json(result))
    _write_json(out / "slice_stats.json", result.stats())
    print(
        f"{art.bundle.name}: {result.original_sloc} -> {result.slice_sloc} SLoC "
        f"({result.percent:.1f}%), {len(result.deleted)} lines deleted, "
        f"{result.passes} passes [{art.timings.slice_s:.2f}s]"
    )
    return 0


def cmd_reduce_tests(args) -> int:
    if args.slice:
        bundle = _bundle(args)
        slice_program, mapping = _load_slice_dir(bundle, args.slice)
        reduced = reduce_suite(
            bundle.program, slice_program, mapping, bundle.suite, bundle.baseline_run
        )
        name, t_len = bundle.name, len(bundle.suite)
    else:
        art = _artifacts(args)
        reduced, name, t_len = art.reduced, art.bundle.name, len(art.bundle.suite)
    out = Path(args.out or args.bundle)
    out.mkdir(parents=True, exist_ok=True)
    save_suite(reduced.kept, out / "tests_reduced.json")
    _write_json(out / "reduction_log.json", reduction_log_json(reduced))
    print(
        f"{name}: {t_len} -> {len(reduced.kept)} tests "
        f"({len(reduced.removed)} removed)"
    )
    return 0


def cmd_localize(args) -> int:
    wanted = ("L", "LP", "LR") if args.list == "all" else (args.list,)
    if args.slice:
        bundle = _bundle(args)
        slice_program, mapping = _load_slice_dir(bundle, args.slice)
        original = localize(bundle.baseline_run)
        lists = {"L": original, "LP": prune_list(original, mapping)}
        if "LR" in wanted:
            reduced = reduce_suite(
                bundle.program, slice_program, mapping, bundle.suite, bundle.baseline_run
            )
            lists["LR"] = regenerate_list(reduced.on_slice, mapping)
        name = bundle.name
    else:
        art = _artifacts(args)
        lists = {v: art.suspicious(v) for v in wanted}
        name = art.bundle.name
    out = Path(args.out or args.bundle)
    out.mkdir(parents=True, exist_ok=True)
    for variant in wanted:
        suspicious = lists[variant]
        _write_json(out / f"suspicious_{variant}.json", suspicious_json(suspicious))
        print(f"{name}: {variant} has {len(suspicious)} entries")
    return 0


def cmd_repair(args) -> int:
    config = _usable(config_by_name, args.config)
    art = _artifacts(args)
    report, result = run_config(art, config)
    out = Path(args.out or args.bundle)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "patched": report.patched,
        "patch": None,
        "npc": report.npc,
        "nte": report.nte,
        "rt_ms": report.rt_ms,
        "cost_proxy": report.cost_proxy,
        "br": report.br,
        "stop_reason": report.stop_reason,
        "transferred": report.transferred,
    }
    if result.patched:
        original_text = art.bundle.program.line(report.patch_line)
        payload["patch"] = {
            "line": report.patch_line,
            "template": result.patch.template,
            "new_text": edit_new_text(result.patch.edit, original_text),
        }
    _write_json(out / "repair_result.json", payload)
    status = "patched" if report.patched else f"no patch ({report.stop_reason})"
    print(
        f"{art.bundle.name} [{config.name}]: {status}, npc={report.npc}, "
        f"nte={report.nte}, cost={report.cost_proxy}"
    )
    return 0 if report.patched else 1


def cmd_experiment(args) -> int:
    if args.configs == "all":
        configs = list(viable_configs())
    else:
        names = args.configs.split(",")
        repeated = sorted({n for n in names if names.count(n) > 1})
        if repeated:
            raise UsageError(f"--configs names {', '.join(repeated)} more than once")
        configs = [_usable(config_by_name, n) for n in names]
    if args.out:
        _writable(args.out)
    bundles = _usable(load_corpus, args.corpus, budget=args.budget)
    started = time.perf_counter()
    reports = run_lattice(bundles, configs)
    document = emit_report(reports, args.format)
    if args.out:
        Path(args.out).write_text(document, encoding="utf-8")
        print(f"wrote {len(reports)} reports to {args.out} "
              f"[{time.perf_counter() - started:.1f}s]")
    else:
        sys.stdout.write(document)
    failures = [r for r in reports if not r.patched]
    return 1 if failures else 0


# The report columns ``compare`` reads
_COMPARE_COLUMNS = ("bundle", "config", "rt_ms", "nte", "npc", "br", "patch_line")


def _read_report_csv(path: str) -> list[dict]:
    """The rows of a report CSV; a UsageError when it is not UTF-8 CSV, lacks
    a column ``compare`` reads, or has a row of another width."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            missing = [c for c in _COMPARE_COLUMNS if c not in (reader.fieldnames or ())]
            if missing:
                raise UsageError(f"{path} has no column {', '.join(missing)}")
            rows = []
            for row in reader:
                if None in row or None in row.values():
                    raise UsageError(f"{path} line {reader.line_num}: not one cell per column")
                rows.append(row)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    return rows


def cmd_compare(args) -> int:
    base_rows = _read_report_csv(args.base)
    other_rows = _read_report_csv(args.other)
    base_by_bundle = {r["bundle"]: r for r in base_rows if r["config"] == args.base_config}
    other_by_bundle = {r["bundle"]: r for r in other_rows if r["config"] == args.other_config}
    for path, config, rows in ((args.base, args.base_config, base_by_bundle),
                               (args.other, args.other_config, other_by_bundle)):
        if not rows:
            raise UsageError(f"{path} has no rows for configuration {config}")
    shared = sorted(set(base_by_bundle) & set(other_by_bundle))
    if not shared:
        print("error: no shared bundles between the two reports", file=sys.stderr)
        return 2

    def pct(base_row, other_row, column):
        try:
            base_val = float(base_row[column])
            other_val = float(other_row[column])
        except ValueError:
            return None
        if base_val == 0:
            return None
        return (base_val - other_val) / base_val * 100.0

    print(f"{'bundle':24s} {'dRT%':>8s} {'dNTE%':>8s} {'dNPC%':>8s} {'dBR':>5s} same_loc")
    sums = {"rt_ms": [], "nte": [], "npc": []}
    for name in shared:
        b, o = base_by_bundle[name], other_by_bundle[name]
        cells = {}
        for col in ("rt_ms", "nte", "npc"):
            value = pct(b, o, col)
            cells[col] = f"{value:8.1f}" if value is not None else "       -"
            if value is not None:
                sums[col].append(value)
        try:
            br_delta = f"{int(b['br']) - int(o['br']):5d}"
        except ValueError:
            br_delta = "    -"
        same = "-"
        if b["patch_line"] and o["patch_line"]:
            same = "yes" if b["patch_line"] == o["patch_line"] else "no"
        print(f"{name:24s} {cells['rt_ms']} {cells['nte']} {cells['npc']} {br_delta} {same}")
    means = {
        col: (sum(vals) / len(vals) if vals else None) for col, vals in sums.items()
    }
    mean_cells = [
        f"{means[col]:8.1f}" if means[col] is not None else "       -"
        for col in ("rt_ms", "nte", "npc")
    ]
    print(f"{'mean':24s} {mean_cells[0]} {mean_cells[1]} {mean_cells[2]}")
    return 0


def cmd_make_corpus(args) -> int:
    names = corpus_mod.build_corpus(args.out)
    print(f"wrote {len(names)} bundles to {args.out}")
    return 0


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reducto",
        description="Slice-accelerated program-repair workbench for SLANG programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--budget", type=int, default=interp.DEFAULT_BUDGET,
                       help="interpreter step budget per execution")

    p = sub.add_parser("slice", help="slice a bundle's program against its failing tests")
    p.add_argument("bundle")
    p.add_argument("--out", help="output directory (defaults to the bundle)")
    common(p)
    p.set_defaults(func=cmd_slice)

    p = sub.add_parser("reduce-tests", help="reduce a bundle's suite against its slice")
    p.add_argument("bundle")
    p.add_argument("--slice", help="directory holding a previously written slice")
    p.add_argument("--out")
    common(p)
    p.set_defaults(func=cmd_reduce_tests)

    p = sub.add_parser("localize", help="emit suspicious-line rankings")
    p.add_argument("bundle")
    p.add_argument("--slice", help="directory holding a previously written slice")
    p.add_argument("--list", choices=["L", "LP", "LR", "all"], default="all")
    p.add_argument("--out")
    common(p)
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("repair", help="run one repair configuration on a bundle")
    p.add_argument("bundle")
    p.add_argument("--config", required=True,
                   help="configuration name, e.g. P-T-L or Ps-Ts-LP")
    p.add_argument("--out")
    common(p)
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser("experiment", help="run the configuration lattice over a corpus")
    p.add_argument("corpus")
    p.add_argument("--configs", default="all",
                   help="'all' or comma-separated configuration names")
    p.add_argument("--out", help="report file (stdout when omitted)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    common(p)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("compare", help="compare two lattice report CSVs")
    p.add_argument("base")
    p.add_argument("other")
    p.add_argument("--base-config", default="P-T-L")
    p.add_argument("--other-config", default="Ps-Ts-LP")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("make-corpus", help="write the seeded bug corpus")
    p.add_argument("out")
    p.set_defaults(func=cmd_make_corpus)

    return parser


def main(argv=None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        ManifestError, MultiAssertTest, NoFailingTests, NonViableConfig, UsageError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
