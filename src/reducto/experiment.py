"""Bundle I/O, the eight-point configuration lattice, and report emission.

A configuration picks a program variant (P or Ps), a suite variant (T or
Ts) and a suspicious-list variant (L, LR or LP).  Of the twelve
combinations, four are not viable: the original suite and the original
list refer to lines that a slice no longer contains, so Ps pairs only
with Ts and with a reduced list.  Per-bundle artifacts (slice, reduced
suite, the three lists) are derived here alone, once per bundle, and shared
by every configuration.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional

from . import interp
from .faultloc import (
    SuspiciousList,
    RankedLine,
    localize,
    prune_list,
    regenerate_list,
)
from .harness import (
    ERRORED,
    FAIL,
    UNBUILDABLE,
    FailureSignature,
    ManifestError,
    SuiteResult,
    TestSuite,
    load_suite,
    read_json,
    reading,
    run_suite,
)
from .parser import ParseError
from .repair import RepairResult, map_patch_to_original, repair
from .slicer import (
    Baseline,
    BaselineMismatch,
    LineMapping,
    NoFailingTests,
    SliceResult,
    build_criterion,
    mapped_signature,
    orbs_slice,
)
from .source import SourceProgram
from .suite_reducer import ReducedSuite, reduce_suite


class NonViableConfig(Exception):
    """Requested a red-node configuration (Ps with T or with L)."""


# ---------------------------------------------------------------------------
# Configurations

PROGRAM_VARIANTS = ("P", "Ps")
SUITE_VARIANTS = ("T", "Ts")
LIST_VARIANTS = ("L", "LR", "LP")


@dataclass(frozen=True)
class RepairConfig:
    program: str
    suite: str
    suspicious: str

    def __post_init__(self):
        if (
            self.program not in PROGRAM_VARIANTS
            or self.suite not in SUITE_VARIANTS
            or self.suspicious not in LIST_VARIANTS
        ):
            raise ValueError(f"bad configuration {self}")

    @property
    def name(self) -> str:
        return f"{self.program}-{self.suite}-{self.suspicious}"

    @property
    def viable(self) -> bool:
        return not (self.program == "Ps" and (self.suite == "T" or self.suspicious == "L"))


def all_configs() -> tuple[RepairConfig, ...]:
    return tuple(
        RepairConfig(p, t, l)
        for p in PROGRAM_VARIANTS
        for t in SUITE_VARIANTS
        for l in LIST_VARIANTS
    )


def viable_configs() -> tuple[RepairConfig, ...]:
    """The eight viable configurations, in report order."""
    return tuple(config for config in all_configs() if config.viable)


def config_by_name(name: str) -> RepairConfig:
    parts = name.split("-")
    if len(parts) != 3:
        raise ValueError(f"bad configuration name {name!r}")
    return RepairConfig(*parts)


# ---------------------------------------------------------------------------
# Bundles

@dataclass(frozen=True)
class GroundTruth:
    bug_line: int
    patched_text: str


# A test's budget for every run after the one on the original program:
# FACTOR times the steps it took there, at least FLOOR, at most the budget
# the bundle was loaded with.  On the shipped corpus no run that ends takes
# more than twice the steps of its test on the original program, and a
# candidate that never ends stops within 1,610 steps, not 100,000.
FLOOR = 100
FACTOR = 10


@dataclass
class BugBundle:
    name: str
    program: SourceProgram
    suite: TestSuite  # each test at its budget (see FACTOR)
    ground_truth: Optional[GroundTruth]
    baseline_run: SuiteResult  # the one run of the suite on the original program


def load_bundle(path, budget: int = interp.DEFAULT_BUDGET) -> BugBundle:
    """Load and validate one bundle directory, running its suite on the
    original program at ``budget``.  Each test then takes its budget for
    every later stage from its steps in that run (see FACTOR), so the
    budgets depend on the bundle's files and ``budget`` alone.

    Enforces the manifest schema, the one-expectation-per-test rule, and
    the presence of at least one failing test on the original program.  A
    fault in any of the bundle's files is a ManifestError naming the file.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    root = Path(path)
    manifest_path = root / "manifest.json"
    manifest = read_json(manifest_path)
    if not isinstance(manifest, dict) or not all(
        isinstance(manifest.get(key), str) for key in ("program", "tests")
    ):
        raise ManifestError(f"{manifest_path}: manifest needs string 'program' and 'tests'")

    program_path = root / manifest["program"]
    with reading(program_path):
        program = SourceProgram.from_text(
            program_path.read_text(encoding="utf-8"), id=root.name
        )
    suite = load_suite(root / manifest["tests"], budget)

    ground_truth = None
    if manifest.get("ground_truth") is not None:
        gt = manifest["ground_truth"]
        if (
            not isinstance(gt, dict)
            or type(gt.get("bug_line")) is not int
            or not 1 <= gt["bug_line"] <= len(program)
            or not isinstance(gt.get("patched_text"), str)
        ):
            raise ManifestError(
                f"{manifest_path}: ground_truth needs an integer bug_line in "
                f"1..{len(program)} and a string patched_text"
            )
        ground_truth = GroundTruth(gt["bug_line"], gt["patched_text"])

    baseline_run = run_suite(program, suite)
    if all(o.kind == UNBUILDABLE for o in baseline_run.outcomes.values()):
        try:  # the program does not parse; build it again only for the reason
            interp.Scope().build(program)
        except ParseError as exc:
            raise ManifestError(f"{program_path}: program does not parse: {exc}") from exc
    if not baseline_run.failing:
        raise NoFailingTests(f"{root.name}: every test passes on the original program")
    on_original = baseline_run.outcomes
    suite = TestSuite(tuple(
        replace(t, budget=min(budget, max(FLOOR, FACTOR * on_original[t.id].steps)))
        for t in suite
    ))
    return BugBundle(root.name, program, suite, ground_truth, baseline_run)


def load_corpus(path, budget: int = interp.DEFAULT_BUDGET) -> list[BugBundle]:
    root = Path(path)
    with reading(root):
        bundle_dirs = sorted(p for p in root.iterdir() if (p / "manifest.json").is_file())
    if not bundle_dirs:
        raise ManifestError(f"{root}: no bundles found")
    return [load_bundle(p, budget) for p in bundle_dirs]


# ---------------------------------------------------------------------------
# Shared per-bundle artifacts

def _outcome_text(sig: FailureSignature) -> str:
    """A signature's outcome for a message: the kind, with the error and its
    line for an error, and the observed value for a wrong one."""
    if sig.outcome == ERRORED:
        return f"Errored {sig.error_kind} at line {sig.error_line}"
    if sig.outcome == FAIL:
        return f"Fail {sig.actual}"
    return sig.outcome


class BundleArtifacts:
    """Everything derivable from a bundle, computed once and shared: the
    one place its slice, reduced suite and three suspicious lists are derived.

    The slice is ``slice_result`` when given, as read from a deletion log,
    and ``orbs_slice``'s otherwise.  Either way it must reproduce the
    baseline failure signature of every failing test, with error lines
    mapped to the original program; the suite's run on the slice, which
    the reduction makes, shows whether it does, and a slice that does not
    is a BaselineMismatch.  All three suspicious lists are derived
    regardless of which configurations run, so rank comparisons across
    L, LR and LP come for free from a single build.  The bundle's baseline
    run is the one observation of the unmodified program; every stage runs
    each test at its budget.
    """

    def __init__(self, bundle: BugBundle, slice_result: Optional[SliceResult] = None):
        self.bundle = bundle
        self.baseline: Baseline = build_criterion(bundle.suite, bundle.baseline_run)
        if slice_result is None:
            slice_result = orbs_slice(bundle.program, self.baseline)
        self.slice_result: SliceResult = slice_result
        self.reduced: ReducedSuite = reduce_suite(
            slice_result.slice, slice_result.mapping, bundle.suite, bundle.baseline_run
        )
        on_slice = self.reduced.on_slice.outcomes  # every failing test is kept
        for test in self.baseline.tests:
            observed = mapped_signature(test.id, on_slice[test.id], slice_result.mapping)
            expected = self.baseline.signatures[test.id]
            if observed != expected:
                raise BaselineMismatch(
                    f"the slice does not reproduce the baseline failure of test {test.id}: "
                    f"it gives {_outcome_text(observed)}, not {_outcome_text(expected)}"
                )
        self.list_original: SuspiciousList = localize(bundle.baseline_run)
        self.list_pruned: SuspiciousList = prune_list(self.list_original, slice_result.mapping)
        self.list_regenerated: SuspiciousList = regenerate_list(
            self.reduced.on_slice, slice_result.mapping
        )
        self.failing_ids = tuple(bundle.baseline_run.failing)

    def suspicious(self, variant: str) -> SuspiciousList:
        return {
            "L": self.list_original,
            "LR": self.list_regenerated,
            "LP": self.list_pruned,
        }[variant]

    def suite(self, variant: str) -> TestSuite:
        return self.bundle.suite if variant == "T" else self.reduced.kept


# ---------------------------------------------------------------------------
# Reports

@dataclass(frozen=True)
class RepairReport:
    bundle: str
    config: str
    sloc_p: int
    sloc_ps: int
    slice_pct: float
    tss_t: int
    tss_ts: int
    br: Optional[int]
    npc: int
    nte: int
    rt_ms: float
    cost_proxy: int
    patched: bool
    patch_line: Optional[int]  # original-program coordinates
    same_location: Optional[bool]
    transferred: Optional[bool]
    stop_reason: str


CSV_COLUMNS = tuple(field.name for field in fields(RepairReport))


def _translate_list(suspicious: SuspiciousList, mapping: LineMapping) -> SuspiciousList:
    """An LP or LR list, in original coordinates, re-expressed in slice
    coordinates.  Every line maps: LP keeps only the lines that survive the
    slice, and each LR line is a line of the slice mapped to the original."""
    return SuspiciousList(tuple(
        RankedLine(mapping.to_slice(e.line), e.score, e.rank) for e in suspicious.entries
    ))


def run_config(
    artifacts: BundleArtifacts, config: RepairConfig
) -> tuple[RepairReport, RepairResult]:
    """Run one viable configuration against prebuilt artifacts.  The
    report leaves ``same_location`` unset: it compares with the P-T-L run,
    which ``bundle_reports`` makes."""
    if not config.viable:
        raise NonViableConfig(f"{config.name} is not viable")

    bundle = artifacts.bundle
    slice_result = artifacts.slice_result
    suite = artifacts.suite(config.suite)
    suspicious = artifacts.suspicious(config.suspicious)
    if config.program == "Ps":
        program = slice_result.slice
        suspicious = _translate_list(suspicious, slice_result.mapping)
    else:
        program = bundle.program
    result = repair(program, suite, suspicious, artifacts.failing_ids)
    patch_line_orig = None
    transferred = None
    if result.patched:
        if config.program == "Ps":
            patched_original, patch_line_orig = map_patch_to_original(
                result.patch, slice_result.mapping, bundle.program
            )
            full = run_suite(patched_original, bundle.suite)
            transferred = not full.failing
        else:
            patch_line_orig = result.patch.line

    report = RepairReport(
        bundle=bundle.name,
        config=config.name,
        sloc_p=slice_result.original_sloc,
        sloc_ps=slice_result.slice_sloc,
        slice_pct=slice_result.percent,
        tss_t=len(bundle.suite),
        tss_ts=len(artifacts.reduced.kept),
        br=result.br,
        npc=result.npc,
        nte=result.nte,
        rt_ms=result.rt_ms,
        cost_proxy=result.cost_proxy,
        patched=result.patched,
        patch_line=patch_line_orig,
        same_location=None,
        transferred=transferred,
        stop_reason=result.stop_reason,
    )
    return report, result


_BASELINE = RepairConfig("P", "T", "L")


def bundle_reports(artifacts: BundleArtifacts, configs) -> list[RepairReport]:
    """One report per configuration, in ``configs`` order, each run once.

    P-T-L runs first, also when ``configs`` leaves it out of the report,
    because every other patched row says whether it patched the same
    line."""
    reports = {
        config: run_config(artifacts, config)[0]
        for config in dict.fromkeys((_BASELINE, *configs))
    }
    baseline_line = reports[_BASELINE].patch_line
    return [
        replace(report, same_location=report.patch_line == baseline_line)
        if report.patched and baseline_line is not None else report
        for report in (reports[config] for config in configs)
    ]


def run_lattice(bundles, configs=viable_configs()) -> list[RepairReport]:
    """The reports of ``configs`` for every bundle, in bundle-name order,
    each test at the budget its bundle gave it."""
    for config in configs:
        if not config.viable:
            raise NonViableConfig(f"{config.name} is not viable")
    reports = []
    for bundle in sorted(bundles, key=lambda b: b.name):
        reports += bundle_reports(BundleArtifacts(bundle), configs)
    return reports


# ---------------------------------------------------------------------------
# Emission

def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def report_row(report: RepairReport) -> dict:
    """Typed row used by both emitters; rt_ms is the only run-varying column."""
    row = {column: getattr(report, column) for column in CSV_COLUMNS}
    row["slice_pct"] = round(report.slice_pct, 1)
    row["rt_ms"] = round(report.rt_ms, 3)
    return row


def _sorted_reports(reports) -> list[RepairReport]:
    order = {combo: i for i, combo in enumerate(c.name for c in viable_configs())}
    return sorted(reports, key=lambda r: (r.bundle, order.get(r.config, 99)))


def emit_report(reports, fmt: str = "csv") -> str:
    """CSV or JSON document, one row per report, stable ordering."""
    rows = [report_row(r) for r in _sorted_reports(reports)]
    if fmt == "json":
        return json.dumps(rows, indent=2, sort_keys=True) + "\n"
    if fmt != "csv":
        raise ValueError(f"unknown report format {fmt!r}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_cell(row[col]) for col in CSV_COLUMNS])
    return buf.getvalue()
