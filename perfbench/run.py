"""Benchmark of the reducto pipeline: slice, reduce suite, localize, repair.

    python3 perfbench/run.py --workload lattice|terminating|long_tests \\
        --seed N --seconds S --trace 0|1

Runs a fixed number of whole passes of the workload, each in a fresh
single-threaded process started after the previous one ended: about
``--seconds`` over the nominal length of one pass (``PASS_S``), at least
one of each kind.  The count depends on the workload and ``--seconds`` only, never on
the speed measured, so every commit is measured over the same passes.
With ``--trace 1`` the passes alternate untraced and traced.  A pass runs
all 8 viable configurations on every bundle of the workload.  The first
pass's outputs are checked (see ``checks.py``); every later pass must
reproduce its report and counters exactly.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones.  ``wall_s``, ``slice_s`` and ``repair_s`` are
medians over the run's untraced passes of each pass's own figure: its
pipeline time, and its summed time in ``orbs_slice`` and in
``run_config``.  ``setup_s`` is the median of at least ``MIN_SETUPS`` set-ups,
``peak_rss_mb`` the largest of the passes.  With ``--trace 1`` the metrics
are the per-layer ones, medians over the traced passes, plus
``bench.trace_overhead_s``.  A record of the run, with the report CSV
minus ``rt_ms`` and the deterministic counters, is written under
``perfbench/out/runs/``.

A run ends within ``RUN_LIMIT_S``.  Once it has one pass of each kind, it
starts no further pass or set-up that could overrun that limit, judged by
the longest one so far; so a change that makes a pass several times slower
is measured over fewer passes instead of failing the run.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Counters that must repeat exactly between passes on the same inputs.
DETERMINISTIC = (
    "interp.steps", "interp.exec_calls", "interp.budget_exceeded_runs",
    "parser.parse_calls", "interp.compile_calls", "slicer.candidate_checks",
    "repair.candidates", "repair.npc", "repair.nte", "repair.unbuildable",
)
# Nominal seconds of one pass with its set-up, a constant of the benchmark
# that sets the pass count; not a measurement.
PASS_S = {"lattice": 25.0, "terminating": 1.5, "long_tests": 9.0}
MIN_SETUPS = 7
RUN_LIMIT_S = 170.0  # every child is stopped before the run reaches this
HEADROOM = 1.5  # a pass or set-up is assumed to take up to 1.5x the longest so far


class PassFailed(Exception):
    pass


def spawn(args, run_started: float, traced: bool = False, check: bool = False,
          setup_only: bool = False, spans: Path | None = None) -> dict:
    """Run one pass (or one set-up) in a fresh process and return its result."""
    command = [
        sys.executable, str(HERE / "passrun.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", "1" if traced else "0",
    ]
    if check:
        command.append("--check")
    if setup_only:
        command.append("--setup-only")
    if spans is not None:
        command += ["--spans", str(spans)]
    timeout = RUN_LIMIT_S - (time.monotonic() - run_started)
    if timeout <= 0:
        raise PassFailed("no time left for another pass")
    started = time.monotonic()
    try:
        proc = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"pass still running after {timeout:.0f}s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassFailed(f"pass exited with {proc.returncode}:\n{proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["t_ready"] - started
    result["process_s"] = time.monotonic() - started
    result["traced"] = traced
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds through subprocess.run, which kills and reaps the pass
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (ROOT / "src" / "reducto" / "__init__.py").is_file() or not (ROOT / "corpus").is_dir():
        print(f"error: {ROOT} holds no reducto sources and corpus", file=sys.stderr)
        return 2
    out = HERE / "out"
    (out / "runs").mkdir(parents=True, exist_ok=True)
    (out / "spans").mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"

    modes = (False, True) if args.trace else (False,)
    count = max(len(modes), round(args.seconds / PASS_S[args.workload]))
    run_started = time.monotonic()
    passes: list[dict] = []
    setups: list[float] = []

    def time_for(longest: float) -> bool:
        return time.monotonic() - run_started + HEADROOM * longest < RUN_LIMIT_S

    try:
        while len(passes) < count:
            if len(passes) >= len(modes) and not time_for(max(p["process_s"] for p in passes)):
                break
            traced = modes[len(passes) % len(modes)]
            spans = out / "spans" / f"{tag}-p{len(passes)}.jsonl" if traced else None
            result = spawn(args, run_started, traced=traced, check=not passes, spans=spans)
            passes.append(result)
            setups.append(result["setup_s"])
        while not args.trace and len(setups) < MIN_SETUPS and time_for(max(setups)):
            setups.append(spawn(args, run_started, setup_only=True)["setup_s"])
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    untraced = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    first = passes[0]
    problems = list(first["problems"])
    failed = 0
    for i, p in enumerate(passes):
        # later passes are checked against the first: same inputs, same report
        if all(p[k] == first[k] for k in ("inputs", "csv", "counters")):
            failed += first["failed"]
        else:
            failed += p["attempted"]
            problems.append(f"pass {i} differs from pass 0 in its report or counters")
    for i, p in enumerate(traced_passes[1:], start=1):
        if any(p["layers"][k] != traced_passes[0]["layers"][k] for k in DETERMINISTIC):
            problems.append(f"traced pass {i} differs from traced pass 0 in {DETERMINISTIC}")
    counters = dict(first["counters"])
    if traced_passes:
        counters.update({k: traced_passes[0]["layers"][k] for k in DETERMINISTIC})
    for msg in problems[:20]:
        print(f"check failed: {msg}", file=sys.stderr)

    if args.trace:
        metrics = {
            name: median(p["layers"][name] for p in traced_passes)
            for name in traced_passes[0]["layers"]
        }
        metrics["bench.trace_overhead_s"] = median(
            p["wall_s"] for p in traced_passes
        ) - median(p["wall_s"] for p in untraced)
    else:
        metrics = {
            "setup_s": median(setups),
            **{k: median(p[k] for p in untraced) for k in ("wall_s", "slice_s", "repair_s")},
            "peak_rss_mb": max(p["peak_rss_mb"] for p in untraced),
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {
        m["name"]: m["unit"]
        for m in declared["per_layer" if args.trace else "end_to_end"]
    }
    if set(units) != set(metrics):
        print(f"error: measured {sorted(metrics)}, declared {sorted(units)}", file=sys.stderr)
        return 1
    shown = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}

    summary = {
        "correct": not problems,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": failed,
        "metrics": shown,
    }
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(passes), "setups": setups, "inputs": first["inputs"],
        "counters": counters, "csv": first["csv"], "problems": problems,
        "traced_self_s": {
            name: median(p["self_s"].get(name, 0.0) for p in traced_passes)
            for name in (traced_passes[0]["self_s"] if traced_passes else ())
        },
        "pass_metrics": [
            {k: p[k] for k in ("wall_s", "slice_s", "repair_s", "peak_rss_mb", "setup_s",
                               "process_s", "traced")}
            for p in passes
        ],
        **summary,
    }
    (out / "runs" / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
