"""Run the benchmark briefly, checked and traced, and compare its counters.

    python3 .github/check_counters.py WORKLOAD NAME=VALUE ...

Runs ``perfbench/run.py --workload WORKLOAD --seed 1 --seconds 1 --trace 1``
and exits 1 unless its verdict line reports a correct run with no failed
operation and each named deterministic counter has exactly its value.
``run.py`` exits 0 even when a check fails, so the verdict line decides.
Values may group digits with underscores, as in ``interp.steps=160_661``.
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def main(argv: list) -> int:
    workload, pins = argv[0], argv[1:]
    expected = {name: int(value) for name, value in (pin.split("=", 1) for pin in pins)}
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", "1"],
        check=True, stdout=subprocess.PIPE, text=True,
    )
    verdict = json.loads(done.stdout.splitlines()[-1])
    found = {name: verdict["metrics"][name]["value"] for name in expected}
    print(workload, verdict["correct"], verdict["failed"], found)
    return 0 if verdict["correct"] is True and verdict["failed"] == 0 and found == expected else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
