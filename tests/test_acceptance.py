"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they execute.
"""

import csv
import io
import random
import statistics

import pytest

from reducto.experiment import (
    NonViableConfig,
    RepairConfig,
    all_configs,
    emit_report,
    load_corpus,
    run_config,
    run_lattice,
    viable_configs,
)
from reducto.faultloc import ochiai, CoverageSpectrum
from reducto.harness import TestSuite, run_suite, run_test, signature
from reducto.parser import ParseError, parse
from reducto.slicer import LineMapping, mapped_signature
from reducto.source import SourceProgram


def report(number: int, title: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:2d} [{status}] {title}{suffix}")


def by_config(reports):
    table = {}
    for r in reports:
        table[(r.bundle, r.config)] = r
    return table


def test_criterion_01_slice_behavior_preservation(corpus_artifacts):
    artifacts, elapsed = corpus_artifacts
    mismatches = []
    for name, art in artifacts.items():
        for test in art.baseline.tests:
            observed = mapped_signature(
                test.id,
                run_suite(art.slice_result.slice, TestSuite((test,))).outcomes[test.id],
                art.slice_result.mapping,
            )
            if observed != art.baseline.signatures[test.id]:
                mismatches.append((name, test.id))
    ok = not mismatches and len(artifacts) >= 12 and elapsed < 300.0
    report(
        1, "slice preserves every failing signature", ok,
        f"{len(artifacts)} bundles, artifacts built in {elapsed:.1f}s",
    )
    assert not mismatches
    assert len(artifacts) >= 12
    assert elapsed < 300.0


def test_criterion_02_slice_one_minimality_vs_brute_force(corpus_artifacts):
    from reducto.slicer import minimality_check

    artifacts, _ = corpus_artifacts
    disagreements = []
    checked = 0
    for name, art in artifacts.items():
        slice_program = art.slice_result.slice
        if len(slice_program) > 40:
            continue
        checked += 1
        verdict = minimality_check(
            slice_program, art.baseline, line_map=art.slice_result.mapping,
        )
        # independent oracle: rebuild each single-deletion candidate from raw
        # text and recheck every criterion signature from scratch
        survivors = list(art.slice_result.mapping.original_lines())
        brute_deletable = []
        for drop in range(1, len(slice_program) + 1):
            cand = SourceProgram(tuple(
                line for i, line in enumerate(slice_program.lines, start=1) if i != drop
            ))
            try:
                parse(cand)
            except ParseError:
                continue
            cand_map = LineMapping((*survivors[:drop - 1], *survivors[drop:]))
            if all(
                mapped_signature(
                    test.id,
                    run_suite(cand, TestSuite((test,))).outcomes[test.id],
                    cand_map,
                )
                == art.baseline.signatures[test.id]
                for test in art.baseline.tests
            ):
                brute_deletable.append(drop)
        if verdict.minimal != (not brute_deletable):
            disagreements.append(name)
        elif not verdict.minimal and verdict.counterexample != brute_deletable[0]:
            disagreements.append(name)
    ok = not disagreements and checked >= 12
    report(2, "slice 1-minimality matches brute-force enumeration", ok,
           f"{checked} slices checked")
    assert not disagreements
    assert checked >= 12


def test_criterion_03_ochiai_oracle_equivalence():
    import mpmath

    mpmath.mp.dps = 50
    rng = random.Random(424242)
    worst = 0.0
    for _ in range(1000):
        failed_total = rng.randint(0, 40)
        passed_total = rng.randint(0, 40)
        lines = rng.sample(range(1, 51), rng.randint(1, 50))
        spectrum = CoverageSpectrum(
            failed_total, passed_total,
            {l: rng.randint(0, failed_total) for l in lines},
            {l: rng.randint(0, passed_total) for l in lines},
        )
        scores = ochiai(spectrum)
        for line in lines:
            ef, ep, nf, _ = spectrum.counts(line)
            denom = mpmath.sqrt(mpmath.mpf(ef + nf) * mpmath.mpf(ef + ep))
            expected = float(mpmath.mpf(ef) / denom) if denom > 0 else 0.0
            worst = max(worst, abs(scores[line] - expected))
    ok = worst <= 1e-12
    report(3, "Ochiai matches arbitrary-precision evaluation", ok,
           f"worst deviation {worst:.2e} over 1000 spectra")
    assert ok


def test_criterion_04_pruning_rank_property_and_absence_anomaly(
    corpus_artifacts, lattice_reports
):
    artifacts, _ = corpus_artifacts
    table = by_config(lattice_reports)
    violations = []
    for name, art in artifacts.items():
        original_ranks = {e.line: e.rank for e in art.list_original.entries}
        for entry in art.list_pruned.entries:
            if entry.rank > original_ranks[entry.line]:
                violations.append((name, entry.line))
    anomalies = []
    for name, art in artifacts.items():
        baseline_row = table[(name, "P-T-L")]
        if baseline_row.patched and art.list_pruned.rank_of(baseline_row.patch_line) is None:
            anomalies.append(name)
    ok = not violations and len(anomalies) >= 1
    report(4, "pruning never worsens ranks; absence anomaly exhibited", ok,
           f"anomalous bundles: {', '.join(anomalies) or 'none'}")
    assert not violations
    assert len(anomalies) >= 1


def test_criterion_05_patch_transfer(lattice_reports):
    rows = [
        r for r in lattice_reports
        if r.config in ("Ps-Ts-LR", "Ps-Ts-LP") and r.patched
    ]
    not_transferred = [(r.bundle, r.config) for r in rows if r.transferred is not True]
    ok = bool(rows) and not not_transferred
    report(5, "every sliced-config patch transfers to the original", ok,
           f"{len(rows)} patched sliced-config runs")
    assert rows, "no sliced-configuration patches at all"
    assert not not_transferred


def test_criterion_06_desk_scale_nte_reduction(lattice_reports):
    table = by_config(lattice_reports)
    bundles = sorted({r.bundle for r in lattice_reports})
    full = [table[(b, "P-T-L")].nte for b in bundles]
    reduced = [table[(b, "P-Ts-L")].nte for b in bundles]
    assert all(v is not None for v in full + reduced)
    ratio = statistics.mean(reduced) / statistics.mean(full)
    ok = ratio <= 0.35
    report(6, "mean NTE under the reduced suite is at most 35% of the full suite",
           ok, f"ratio {ratio:.1%}")
    assert ok


def test_criterion_07_pruned_list_npc_never_worse(lattice_reports, corpus_artifacts):
    artifacts, _ = corpus_artifacts
    table = by_config(lattice_reports)
    qualifying = 0
    violations = []
    for name, art in artifacts.items():
        base = table[(name, "P-T-L")]
        pruned = table[(name, "P-T-LP")]
        if not base.patched or not pruned.patched:
            continue
        if art.list_pruned.rank_of(base.patch_line) is None:
            continue  # location did not survive pruning
        if base.patch_line != pruned.patch_line:
            continue  # patched at a different location
        qualifying += 1
        if pruned.npc > base.npc:
            violations.append(name)
    ok = qualifying >= 1 and not violations
    report(7, "pruned list never needs more candidates at the same location",
           ok, f"{qualifying} qualifying bundles")
    assert qualifying >= 1
    assert not violations


def test_criterion_08_lattice_integrity(lattice_reports, corpus_bundles):
    per_bundle = {}
    for r in lattice_reports:
        per_bundle.setdefault(r.bundle, set()).add(r.config)
    eight_each = all(len(cfgs) == 8 for cfgs in per_bundle.values())
    viable_names = {c.name for c in viable_configs()}
    names_ok = all(cfgs == viable_names for cfgs in per_bundle.values())
    non_viable = [c for c in all_configs() if not c.viable]
    from reducto.experiment import BundleArtifacts

    first_art = BundleArtifacts(corpus_bundles[0])
    rejected = 0
    for config in non_viable:
        try:
            run_config(first_art, config)
        except NonViableConfig:
            rejected += 1
    twelve = {b.name for b in corpus_bundles[:12]}
    rows_12 = sum(1 for r in lattice_reports if r.bundle in twelve)
    ok = eight_each and names_ok and rejected == 4 and rows_12 == 96
    report(8, "eight configs run, four rejected, twelve bundles give 96 rows",
           ok, f"{len(per_bundle)} bundles total")
    assert eight_each and names_ok
    assert rejected == 4
    assert rows_12 == 96


def strip_rt_column(document: str) -> str:
    rows = list(csv.reader(io.StringIO(document)))
    drop = rows[0].index("rt_ms")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for row in rows:
        writer.writerow(row[:drop] + row[drop + 1:])
    return out.getvalue()


def test_criterion_09_two_full_runs_byte_identical(corpus_dir):
    first = emit_report(run_lattice(load_corpus(corpus_dir)), "csv")
    second = emit_report(run_lattice(load_corpus(corpus_dir)), "csv")
    stripped_first = strip_rt_column(first)
    stripped_second = strip_rt_column(second)
    ok = stripped_first == stripped_second
    report(9, "two corpus runs emit byte-identical CSV (minus rt_ms)", ok,
           f"{len(stripped_first)} bytes")
    assert ok


def test_criterion_10_cost_proxy_reduction(lattice_reports):
    table = by_config(lattice_reports)
    bundles = sorted({r.bundle for r in lattice_reports})
    base = statistics.median(table[(b, "P-T-L")].cost_proxy for b in bundles)
    sliced = statistics.median(table[(b, "Ps-Ts-LP")].cost_proxy for b in bundles)
    ok = sliced < base
    report(10, "median cost proxy drops end to end", ok,
           f"median {base} -> {sliced}")
    assert ok
