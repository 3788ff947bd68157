"""Spans around calls into reducto's layers, recorded from outside the package.

A ``Tracer`` replaces public functions of ``reducto`` with timing wrappers
in every module that looks them up by name (``run_test`` and ``parse``,
for example, are imported by name into ``slicer``, ``repair``,
``suite_reducer`` and ``experiment``).  Each call becomes a span
``(name, start, end, parent, payload)`` kept in memory; ``payload`` holds
what the benchmark counts from the returned value.  Nothing is inserted
into ``src/reducto/``.

Untraced passes wrap only ``STAGE_TARGETS`` (about 150 calls a pass), which
the end-to-end stage times and the correctness checks need.  Traced passes
wrap ``LAYER_TARGETS`` as well, tens of thousands of calls a pass.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

# Payload extractors: (args, result) -> what the span keeps.  ``result``
# is None when the call raised (a ParseError, say).
def _lines(args, result):
    return len(args[0])


def _execution(args, result):
    return None if result is None else (result.steps, result.status)


def _acceptance(args, result):
    if result is None:
        return None
    return "accepted" if result.accepted else result.reason


def _verdict(args, result):
    return None if result is None else result.verdict


def _kept(args, result):
    return None if result is None else len(result.kept)


def _keep_result(args, result):
    return result


def _config_row(args, result):
    return None if result is None else (args[0], args[1], result)  # artifacts, config, report


STAGE_TARGETS = (
    ("experiment", "BundleArtifacts", None),
    ("slicer", "orbs_slice", None),
    ("experiment", "run_config", _config_row),
    ("repair", "repair", _keep_result),
)

LAYER_TARGETS = STAGE_TARGETS + (
    ("parser", "parse", _lines),
    ("interp", "compile_ast", None),
    ("interp", "execute", _execution),
    ("harness", "run_test", None),
    ("harness", "run_suite", None),
    ("slicer", "candidate_accepts", _acceptance),
    ("suite_reducer", "reduce_suite", _kept),
    ("faultloc", "localize", None),
    ("faultloc", "regenerate_list", None),
    ("repair", "applicable_templates", None),
    ("repair", "validate_patch", _verdict),
    ("experiment", "emit_report", None),
)

NAME, START, END, PARENT, PAYLOAD = range(5)


class Tracer:
    def __init__(self, package, targets):
        self.spans: list = []
        self._stack: list = []
        self._patched: list = []  # (module, attribute, original)
        modules = [
            getattr(package, name)
            for name in ("parser", "interp", "harness", "slicer", "suite_reducer",
                         "faultloc", "repair", "experiment")
        ]
        for home, function, observe in targets:
            original = getattr(getattr(package, home), function)
            wrapper = self._wrap(f"{home}.{function}", original, observe)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def _wrap(self, name, original, observe):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            result = None
            span[START] = clock()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                span[END] = clock()
                stack.pop()
                if observe is not None:
                    span[PAYLOAD] = observe(args, result)

        return traced

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        """Spans as JSON lines: name, start, end, parent index, self time."""
        own = self_times(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps([span[NAME], span[START], span[END], span[PARENT], own[i]]))
                fh.write("\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def self_time_by_name(spans) -> dict:
    totals = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[span[NAME]] += own
    return dict(totals)


def stage_seconds(spans) -> dict:
    """``slice_s`` and ``repair_s`` of one pass: the summed durations of its
    top-level ``orbs_slice`` calls (one per bundle, inside
    ``BundleArtifacts``) and of its ``run_config`` calls."""
    totals = {"slice_s": 0.0, "repair_s": 0.0}
    for s in spans:
        if s[NAME] == "slicer.orbs_slice" and s[PARENT] >= 0:
            totals["slice_s"] += s[END] - s[START]
        elif s[NAME] == "experiment.run_config":
            totals["repair_s"] += s[END] - s[START]
    return totals


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[NAME]].append(s)

    def dur(s):
        return s[END] - s[START]

    def total(name):
        return sum(dur(s) for s in by_name[name])

    def p50(name, scale):
        spans_of = by_name[name]
        return statistics.median(dur(s) for s in spans_of) * scale if spans_of else 0.0

    executions = [s for s in by_name["interp.execute"] if s[PAYLOAD] is not None]
    exec_s = total("interp.execute")
    steps = sum(s[PAYLOAD][0] for s in executions)
    blown = [s for s in executions if s[PAYLOAD][1] == "budget_exceeded"]
    parse_s = total("parser.parse")
    parsed_lines = sum(s[PAYLOAD] or 0 for s in by_name["parser.parse"])
    checks = by_name["slicer.candidate_accepts"]
    accepted = sum(1 for s in checks if s[PAYLOAD] == "accepted")
    validations = by_name["repair.validate_patch"]
    budget_verdicts = [s for s in validations if s[PAYLOAD] == "BudgetExceeded"]
    repairs = [s[PAYLOAD] for s in by_name["repair.repair"] if s[PAYLOAD] is not None]
    run_config = {i for i, s in enumerate(spans) if s[NAME] == "experiment.run_config"}
    transfer_s = sum(dur(s) for s in by_name["harness.run_suite"] if s[PARENT] in run_config)

    return {
        "interp.budget_exceeded_runs": len(blown),
        "interp.budget_exceeded_steps": sum(s[PAYLOAD][0] for s in blown),
        "interp.budget_exceeded_s": sum((dur(s) for s in blown), 0.0),
        "interp.steps_per_s": steps / exec_s if exec_s else 0.0,
        "interp.exec_s": exec_s,
        "interp.steps": steps,
        "interp.exec_calls": len(by_name["interp.execute"]),
        "interp.compile_calls": len(by_name["interp.compile_ast"]),
        "interp.compile_s": total("interp.compile_ast"),
        "parser.parse_calls": len(by_name["parser.parse"]),
        "parser.parse_s": parse_s,
        "parser.lines_per_s": parsed_lines / parse_s if parse_s else 0.0,
        "harness.run_test_calls": len(by_name["harness.run_test"]),
        "harness.run_test_s": total("harness.run_test"),
        "harness.run_test_us_p50": p50("harness.run_test", 1e6),
        "harness.run_suite_s": total("harness.run_suite"),
        "slicer.candidate_checks": len(checks),
        "slicer.unbuildable": sum(1 for s in checks if s[PAYLOAD] == "Unbuildable"),
        "slicer.accept_ratio": accepted / len(checks) if checks else 0.0,
        "slicer.check_s": total("slicer.candidate_accepts"),
        "slicer.check_ms_p50": p50("slicer.candidate_accepts", 1e3),
        "suite_reducer.reduce_s": total("suite_reducer.reduce_suite"),
        "suite_reducer.tests_kept": sum(s[PAYLOAD] or 0 for s in by_name["suite_reducer.reduce_suite"]),
        "faultloc.localize_s": total("faultloc.localize"),
        "faultloc.regenerate_s": total("faultloc.regenerate_list"),
        "repair.templates_s": total("repair.applicable_templates"),
        "repair.validate_s": total("repair.validate_patch"),
        "repair.validate_ms_p50": p50("repair.validate_patch", 1e3),
        "repair.budget_verdicts": len(budget_verdicts),
        "repair.budget_verdict_s": sum((dur(s) for s in budget_verdicts), 0.0),
        "repair.candidates": sum(r.candidates_generated for r in repairs),
        "repair.npc": sum(r.npc for r in repairs),
        "repair.nte": sum(r.nte for r in repairs),
        "repair.unbuildable": sum(r.unbuildable for r in repairs),
        "experiment.artifacts_s": total("experiment.BundleArtifacts"),
        "experiment.report_s": total("experiment.emit_report"),
        "experiment.transfer_s": transfer_s,
    }
