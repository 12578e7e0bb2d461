"""Run one workload on several seeds and print each metric's spread.

    python3 perfbench/spread.py WORKLOAD [--seeds 1 2 3 ...]

Each run is untraced and lasts BENCHMARK.json's ``run_seconds``. For
every end-to-end metric: the median, the quartiles and the spread
(IQR / median, as ``statistics.quantiles(values, n=4)`` gives them),
beside each run's host context (reference loop before/after and load
average) so machine drift can be read off next to the figures.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    args = parser.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=HERE.parent, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            return 1
        result = json.loads(lines[-1])
        host = next((line.strip() for line in lines if "host before" in line), "")
        print(f"seed {seed}: {time.monotonic() - start:.0f}s correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} | {host}",
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("    " + " ".join(f"{name}={metric['value']:.4g}"
                                for name, metric in result["metrics"].items()))
    print(f"{'metric':<40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, series in values.items():
        med = statistics.median(series)
        q1, _q2, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:<40} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
