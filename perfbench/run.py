#!/usr/bin/env python3
"""The repo benchmark's entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds libsetm and the measuring binary
from the checkout's sources into the build directory (CARGO_TARGET_DIR if
set, else .bench_build, relative to the checkout root), runs one workload in
its own process, and passes the binary's report through: the last stdout
line is the JSON result. Exits non-zero, without a result, when the
checkout holds no engine sources or the build fails.

    python3 perfbench/run.py --workload all --seed N --seconds S

runs every workload untraced and traced, one after the other, and prints
every metric by name and unit plus the tracing overhead.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("mine_heap", "mine_mem_par", "serve_append")
# Seed kept out of all tuning; later gain claims re-check on it.
HOLDOUT_SEED = 90210
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build() -> Path:
    """Configures once, then builds the binary (a no-op when up to date)."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (
        ROOT / "src" / "CMakeLists.txt"
    ).is_file():
        fail(f"no engine sources under {ROOT}; run from a full checkout")
    out = build_dir() / "cmake"
    out.mkdir(parents=True, exist_ok=True)
    log_path = build_dir() / "build.log"
    with open(log_path, "w") as log:
        steps = []
        if not (out / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(
                ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator
            )
        steps.append(
            ["cmake", "--build", str(out), "--target", "setm_perfbench",
             "-j", str(min(4, os.cpu_count() or 1))]
        )
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                sys.stderr.write(log_path.read_text()[-4000:])
                fail("build failed; see " + str(log_path))
    return out / "setm_perfbench"


def run_one(binary: Path, workload: str, seed: int, seconds: int,
            trace: int) -> int:
    """Runs one workload in its own process; returns its exit code."""
    base = build_dir()
    # Run-to-run count records are only comparable for one binary.
    state_root = base / "state"
    state = state_root / str(binary.stat().st_mtime_ns)
    if state_root.is_dir():
        for old in state_root.iterdir():
            if old != state:
                shutil.rmtree(old, ignore_errors=True)
    workdir = base / "work" / workload
    (base / "traces").mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(workdir), "--state-dir", str(state),
           "--trace-out", str(base / "traces" / f"{workload}-seed{seed}.json")]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(binary: Path, seed: int, seconds: int) -> int:
    """Every workload, untraced then traced; prints all metrics."""
    status = 0
    summary = []
    for workload in WORKLOADS:
        medians = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(proc.stdout)
            status = status or proc.returncode
            lines = proc.stdout.strip().splitlines()
            if not lines:
                continue
            result = json.loads(lines[-1])
            for name, metric in result["metrics"].items():
                summary.append((workload, trace, name, metric["value"],
                                metric["unit"]))
            medians[trace] = result["metrics"].get(
                "op_p50_ms" if trace == 0 else "trace.op_p50_ms",
                {}).get("value")
        if medians.get(0) is not None and medians.get(1) is not None:
            summary.append((workload, 1, "tracing_overhead_ms",
                            medians[1] - medians[0], "ms"))
    print("\n%-14s %-5s %-38s %16s %s" % ("workload", "trace", "metric",
                                          "value", "unit"))
    for workload, trace, name, value, unit in summary:
        print("%-14s %-5d %-38s %16.4f %s" % (workload, trace, name, value,
                                              unit))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    binary = build()
    if args.workload == "all":
        return run_all(binary, args.seed, args.seconds)
    return run_one(binary, args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
