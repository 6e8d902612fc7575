#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance check
computes it.

    python3 perfbench/spread.py --workload NAME --seeds 1 2 3 4 5 [--seconds S]

Runs run.py once per seed (untraced), then prints per metric the median of
the runs, the quartile spread (Q3 - Q1) / median from
statistics.quantiles(values, n=4), and that spread against the metric's
bound in BENCHMARK.json. Exits non-zero when a run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    values = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stdout.write(proc.stdout)
            print(f"seed {seed}: run failed ({proc.returncode})")
            return 1
        result = json.loads(lines[-1])
        row = []
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            row.append(f"{name}={metric['value']:.4g}")
        print(f"seed {seed}: " + " ".join(row), flush=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"\n{'metric':<16} {'median':>12} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        bound = bounds.get(name, float("nan"))
        flag = "" if spread < bound / 3 else "  <-- above a third of the bound"
        print(f"{name:<16} {median:>12.4f} {spread:>8.4f} {bound:>6}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
