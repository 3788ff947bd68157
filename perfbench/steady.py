"""Steadiness check: run one workload k times and compare the runs.

    python3 perfbench/steady.py --workload W [--runs 10]

Runs ``run.py`` for ``run_seconds`` from BENCHMARK.json, untraced with
seeds 1 .. k, then once more with seed 1, then twice traced with seed 1.
Prints
each end-to-end metric's median, quartiles and spread (interquartile range
over the median, as ``statistics.quantiles(values, n=4)`` gives them) next
to its bound from BENCHMARK.json.  Runs on the same inputs must agree
exactly in the report CSV without ``rt_ms`` and in the deterministic
counters (``interp.steps``, ``interp.exec_calls``, ``repair.npc``/``nte``/
``candidates`` and the report sums); every run must fail the same share of
its operations.  Exits 1 when a spread exceeds its bound or a run differs.

It also prints the counters of the first traced run and the shares of its
traced ``wall_s`` spent in execution, in budget-exceeded execution and in
parse+compile.
"""

from __future__ import annotations

import argparse
import difflib
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIRST_SEED = 1
TRACED_RUNS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {proc.returncode}:\n{proc.stderr}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (HERE / "out" / "runs" / f"{workload}-s{seed}-t{trace}.json").read_text(encoding="utf-8")
    )
    return {**record, **summary}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return mid, q1, q3, (q3 - q1) / mid


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    seconds = declared["run_seconds"]

    runs = []
    for seed in range(FIRST_SEED, FIRST_SEED + args.runs):
        runs.append(run_once(args.workload, seed, seconds, 0))
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items()
        ), flush=True)
    repeat = run_once(args.workload, FIRST_SEED, seconds, 0)
    traced = [run_once(args.workload, FIRST_SEED, seconds, 1) for _ in range(TRACED_RUNS)]

    ok = True
    print(f"\n{args.workload}: {args.runs} runs of {seconds}s")
    print(f"{'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}")
    for metric in declared["end_to_end"]:
        name = metric["name"]
        mid, q1, q3, rel = spread([r["metrics"][name]["value"] for r in runs])
        flag = "" if rel <= metric["bound"] / 3 else (
            "  over a third of the bound" if rel <= metric["bound"] else "  OVER BOUND")
        ok &= rel <= metric["bound"]
        print(f"{name:<14}{mid:>12.5g}{q1:>12.5g}{q3:>12.5g}{rel:>9.3f}{metric['bound']:>8}{flag}")

    shares = {(r["failed"], r["attempted"]) for r in runs + [repeat] + traced}
    if len({f / a for f, a in shares}) != 1:
        ok = False
        print(f"failed/attempted differs between runs: {sorted(shares)}")

    groups: dict = {}
    for r in runs + [repeat]:
        groups.setdefault(r["inputs"], []).append(r)
    for group in [*groups.values(), traced]:
        if not group:
            continue
        base = group[0]
        for other in group[1:]:
            if other["csv"] != base["csv"]:
                ok = False
                print(f"report CSV without rt_ms differs, seed {base['seed']} vs {other['seed']}:")
                sys.stdout.writelines(difflib.unified_diff(
                    base["csv"].splitlines(True), other["csv"].splitlines(True)))
            differing = {
                k: (base["counters"].get(k), other["counters"].get(k))
                for k in set(base["counters"]) | set(other["counters"])
                if base["counters"].get(k) != other["counters"].get(k)
            }
            if differing:
                ok = False
                print(f"counters differ, seed {base['seed']} vs {other['seed']}: {differing}")
    if traced:
        print(f"\ncounters (seed {FIRST_SEED}, traced): {json.dumps(traced[0]['counters'])}")
        m = {k: v["value"] for k, v in traced[0]["metrics"].items()}
        wall = statistics.median(p["wall_s"] for p in traced[0]["pass_metrics"] if p["traced"])
        print(
            f"shares of the traced wall_s ({wall:.3g} s): execution {m['interp.exec_s'] / wall:.0%}, "
            f"budget-exceeded execution {m['interp.budget_exceeded_s'] / wall:.0%}, "
            f"parse+compile {(m['parser.parse_s'] + m['interp.compile_s']) / wall:.0%}"
        )
    print("deterministic counters and reports agree" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
