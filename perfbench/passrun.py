"""One pass of a workload in a fresh process: set-up, pipeline, checks.

    python3 perfbench/passrun.py --workload W --seed N --trace 0|1 [--check]
        [--setup-only] [--spans FILE]

Set-up is everything before the first pipeline call: interpreter start,
import, generating the ``long_tests`` bundles, and ``load_bundle`` with its
baseline suite runs.  The pipeline is ``run_lattice`` and ``emit_report``,
the calls ``reducto experiment`` makes.  The last line of standard output
is one JSON object; ``t_ready`` is the ``time.monotonic()`` reading at the
end of set-up, which the parent compares with its own reading taken just
before it started this process.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_reducto():
    sys.path.insert(0, str(ROOT / "src"))
    import reducto

    if Path(reducto.__file__).resolve().parent != ROOT / "src" / "reducto":
        raise SystemExit(f"imported reducto from {reducto.__file__}, not from {ROOT / 'src'}")
    return reducto


def _load(workload: str, seed: int, workdir: Path):
    from reducto import experiment

    if workload == "lattice":
        return experiment.load_corpus(ROOT / "corpus")
    if workload == "terminating":
        return [experiment.load_bundle(ROOT / "corpus" / name) for name in workloads.TERMINATING]
    workloads.write_long_tests_corpus(ROOT, seed, workdir)
    return experiment.load_corpus(workdir)


def _inputs_digest(bundles) -> str:
    from reducto.harness import suite_to_json

    h = hashlib.sha256()
    for b in bundles:
        h.update(b.program.to_text().encode())
        h.update(json.dumps(suite_to_json(b.suite), sort_keys=True).encode())
    return h.hexdigest()


def _without_rt_ms(document: str) -> str:
    rows = list(csv.reader(io.StringIO(document)))
    drop = rows[0].index("rt_ms")
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(
        [cell for i, cell in enumerate(row) if i != drop] for row in rows
    )
    return out.getvalue()


def run_pass(reducto, bundles, traced: bool, check: bool, spans_path):
    from reducto import experiment

    tracer = tracing.Tracer(
        reducto, tracing.LAYER_TARGETS if traced else tracing.STAGE_TARGETS
    )
    started = time.perf_counter()
    reports = experiment.run_lattice(bundles)
    document = experiment.emit_report(reports)
    wall_s = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer.uninstall()
    spans = tracer.spans

    out = {
        "wall_s": wall_s,
        **tracing.stage_seconds(spans),
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(bundles) + len(reports),
        "csv": _without_rt_ms(document),
        "counters": {
            "rows": len(reports),
            "patched": sum(r.patched for r in reports),
            "npc": sum(r.npc or 0 for r in reports),
            "nte": sum(r.nte or 0 for r in reports),
            "cost_proxy": sum(r.cost_proxy or 0 for r in reports),
        },
    }
    if check:
        import checks

        out["failed"], out["problems"] = checks.pass_problems(
            bundles, reports, _repair_rows(spans)
        )
    if traced:
        out["layers"] = tracing.layer_metrics(spans)
        out["self_s"] = tracing.self_time_by_name(spans)
        if spans_path:
            tracer.write(spans_path)
    return out


def _repair_rows(spans) -> dict:
    """(bundle, configuration) -> (artifacts, RepairResult) behind each row."""
    rows = {}
    for span in spans:
        if span[tracing.NAME] == "repair.repair" and span[tracing.PAYLOAD] is not None:
            row = spans[span[tracing.PARENT]][tracing.PAYLOAD]
            if row is not None:
                artifacts, config, _ = row
                rows[(artifacts.bundle.name, config.name)] = (artifacts, span[tracing.PAYLOAD])
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--check", action="store_true", help="run the correctness checks")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    reducto = _import_reducto()
    workdir = HERE / "out" / "work" / str(os.getpid())
    try:
        bundles = _load(args.workload, args.seed, workdir)
        t_ready = time.monotonic()
        result = {"t_ready": t_ready}
        if not args.setup_only:
            result["inputs"] = _inputs_digest(bundles)
            result.update(run_pass(reducto, bundles, bool(args.trace), args.check, args.spans))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
