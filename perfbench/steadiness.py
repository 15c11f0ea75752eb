"""Repeat the benchmark over several seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/steadiness.py --workload maxwell-driven --seeds 1-10

Runs ``perfbench/run.py`` once per seed, one after another, for the
``run_seconds`` of BENCHMARK.json with tracing off, and prints each
run's result, then per metric the median of the runs and the distance between
the first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of that median. The share of failed operations is printed too; it must
be the same in every run.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = parser.parse_args()
    seconds = str(json.loads(Path("BENCHMARK.json").read_text())["run_seconds"])

    values: dict[str, list[float]] = {}
    failed_shares = set()
    for seed in args.seeds:
        began = time.time()
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", seconds, "--trace", "0"],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(f"seed {seed}: exit code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed_shares.add(result["failed"] / result["attempted"])
        figures = {name: m["value"] for name, m in result["metrics"].items()}
        print(f"seed {seed}: {time.time() - began:.1f} s, attempted {result['attempted']}, "
              f"failed {result['failed']}, correct {result['correct']}, "
              + ", ".join(f"{k} {v:.6g}" for k, v in figures.items()), flush=True)
        for name, value in figures.items():
            values.setdefault(name, []).append(value)
    print(f"failed share per run: {sorted(failed_shares)}")
    for name, vals in values.items():
        median = statistics.median(vals)
        if len(vals) < 2 or median == 0:
            print(f"{name}: median {median:.6g}")
            continue
        q1, _, q3 = statistics.quantiles(vals, n=4)
        print(f"{name}: median {median:.6g}, quartile spread {(q3 - q1) / median:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
