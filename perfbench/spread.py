"""Run-to-run spread of the end-to-end metrics.  Run from the root of a checkout:

    python3 perfbench/spread.py --runs 10 --first-seed 100

For each workload in ``BENCHMARK.json`` (or those given with ``--workload``)
it makes ``--runs`` untraced runs with consecutive seeds, one process at a
time, then prints per metric the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them and the spread
(Q3 - Q1) / median beside the metric's bound.  The values go to
``perfbench/out/spread-<first seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 600


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="quartile spread of the end-to-end metrics")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    report = {}
    failed = False
    for workload in names:
        values: dict = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, timeout=TIMEOUT_S, cwd=ROOT, check=True,
            )
            summary = json.loads(proc.stdout.strip().splitlines()[-1])
            failed = failed or not summary["correct"]
            for name in bounds:
                values[name].append(summary["metrics"][name]["value"])
        report[workload] = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            report[workload][name] = {"values": vals, "median": median, "q1": q1, "q3": q3,
                                      "spread": spread, "bound": bounds[name]}
            print(f"{workload:10s} {name:16s} median {median:.6g}  Q1 {q1:.6g}  Q3 {q3:.6g}  "
                  f"spread {spread:.4f}  bound {bounds[name]}", flush=True)
    out = HERE / "out" / f"spread-{args.first_seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    if failed:
        print("some runs reported incorrect outputs")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
