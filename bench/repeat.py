#!/usr/bin/env python3
"""Run bench/run.py once per seed and summarize each metric's spread.

Run from the repository root:

    python3 bench/repeat.py --workload toy-cli --seeds 1-10 --seconds 32

Prints, per metric, the median, the quartiles (statistics.quantiles, n=4) and
the spread: the distance between the quartiles as a share of the median.
With --json, also writes that summary, the machine and versions, and every
run's result to a file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def machine() -> dict:
    """Core count, caches as lscpu reports them, versions, and the git rev if any."""
    import numpy
    import scipy

    def run(cmd: list[str]) -> str:
        try:
            return subprocess.run(cmd, capture_output=True, text=True).stdout
        except OSError:
            return ""

    caches = {}
    for line in run(["lscpu"]).splitlines():
        key, _, value = line.partition(":")
        if "cache" in key:
            caches[key.strip()] = value.strip()
    return {
        "nproc": os.cpu_count(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_rev": run(["git", "rev-parse", "HEAD"]).strip() or None,
    }


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "n": len(values),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--json", type=Path, help="write the summary and raw runs here")
    args = parser.parse_args()

    runs = []
    for seed in seed_list(args.seeds):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True,
        )
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"], result["run_wall_s"] = seed, wall
        runs.append(result)
        print(f"seed {seed}: {wall:.1f} s, correct={result['correct']}, "
              f"failed {result['failed']}/{result['attempted']}", flush=True)

    summary = {
        name: {"unit": runs[0]["metrics"][name]["unit"],
               **summarize([r["metrics"][name]["value"] for r in runs])}
        for name in runs[0]["metrics"]
    }
    summary["run_wall_s"] = {"unit": "s", **summarize([r["run_wall_s"] for r in runs])}
    for name, s in summary.items():
        print(f"{name:40s} median {s['median']:12.5g} {s['unit']:6s} "
              f"q1 {s['q1']:12.5g} q3 {s['q3']:12.5g} spread {s['spread']:.4f}")
    if args.json:
        doc = {"workload": args.workload, "seconds": args.seconds, "machine": machine(),
               "summary": summary, "runs": runs}
        args.json.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
