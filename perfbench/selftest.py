"""Tracing self-test.  Run from the root of a checkout:

    python3 perfbench/selftest.py --workload reference --seed 1

Makes two traced runs with the same seed, each in a fresh process, and fails
unless

* both runs are correct;
* the deterministic counters (RHS evaluations, step counts, integrate,
  generator, U, dU and x_tau_integral calls, and the battery pass vector) are
  identical between them;
* neither run's counter reconciliation found anything: on lab items the U
  calls minus those made while constructing the protocols equal the RHS
  evaluations, on the rotating item U and dU calls match, spans nest, every
  self time is non-negative and the self times sum to each root's duration.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 600


def traced_run(workload: str, seed: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--trace", "1"],
        capture_output=True, text=True, timeout=TIMEOUT_S, cwd=ROOT, check=True,
    )
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace1.json").read_text())
    return summary, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="two traced runs must agree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    problems = []
    runs = [traced_run(args.workload, args.seed) for _ in range(2)]
    for n, (summary, record) in enumerate(runs, 1):
        if not summary["correct"]:
            problems.append(f"run {n}: {summary['failed']} of {summary['attempted']} items failed")
        problems += [f"run {n}: {f}" for f in record["reconciliation_failures"]]
    first, second = (record["deterministic"] for _, record in runs)
    for name in sorted(set(first) | set(second)):
        if first.get(name) != second.get(name):
            problems.append(f"{name}: {first.get(name)} then {second.get(name)}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "counters": first}))
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
