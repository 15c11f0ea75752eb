"""wavepot benchmark: time scenario chains end to end, or per layer with --trace 1.

Usage (from the repository root):

    python3 perfbench/run.py --workload quantum-forward --seed 1 --seconds 20 --trace 0

Each round runs the workload's chain of scenario runs in a fresh
single-threaded worker process, and rounds repeat until ``--seconds`` have
passed. The first round's outputs are checked against independent oracles;
every later round must reproduce them byte for byte (same sha256), or it is
checked in full again. The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``, with medians over rounds.
The line before it holds versions, thread settings, output digests and the
per-round figures. A failed scenario run or check makes the exit code 1.
"""

import os

# Pin BLAS/FFT pools before numpy loads here or in any worker (inherited env).
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
WORKER_TIMEOUT_S = 150


def run_round(work: Path, traced: bool) -> dict:
    """Start one worker, wait for it, and return its round record."""
    record = work / "round.json"
    record.unlink(missing_ok=True)
    spawn = time.time()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(work), repr(spawn), "1" if traced else "0"],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if record.exists():
        result = json.loads(record.read_text())
    else:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        result = {"ops": [], "error": f"worker died: {tail[0]}", "exit_code": proc.returncode}
    result["returncode"] = proc.returncode
    return result


def figures(result: dict) -> dict:
    """End-to-end figures of one complete round, in seconds since the worker was spawned."""
    ops = result["ops"]
    stepping = [op for op in ops if op["first_step"] is not None]
    step_time = sum(op["end"] - op["first_step"] for op in stepping)
    return {
        "wall_s": ops[-1]["end"],
        "setup_s": ops[0]["start"] + sum(op["first_step"] - op["start"] for op in stepping),
        "steps_per_s": sum(op["steps"] for op in stepping) / step_time,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def digests(work: Path, chain: list[dict]) -> dict:
    out = {}
    for op in chain:
        files = sorted(p for p in (work / op["out"]).iterdir() if p.is_file())
        out[op["out"]] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
    return out


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "machine": platform.machine(),
    }


END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "steps_per_s": "1/s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "wavepot" / "__init__.py").is_file():
        print(f"error: no wavepot source tree under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    work = root / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for name, text in workload.scenarios().items():
        (work / name).write_text(text)
    (work / "chain.json").write_text(json.dumps(workload.chain))
    workload.prepare()

    # compile the package and fault its files into the page cache before timing
    subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); import wavepot.scenario, wavepot.cli"],
        check=True, timeout=WORKER_TIMEOUT_S,
    )

    chain_len = len(workload.chain)
    attempted = failed = 0
    correct = True
    reference, reference_failures = None, 0
    checks = {}
    rounds = []
    began = time.perf_counter()
    while len(rounds) < 1 + args.trace or time.perf_counter() - began < args.seconds:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        result = run_round(work, traced)
        attempted += chain_len
        result["traced"] = traced
        rounds.append(result)
        if result["error"] or result["returncode"] != 0:
            failed += chain_len - len(result["ops"])
            print(f"round {len(rounds)}: exit code {result['exit_code']}: {result['error']}",
                  file=sys.stderr)
            break
        digest = digests(work, workload.chain)
        if digest == reference:
            failed += reference_failures
            continue
        outcome = workload.check(work)
        round_failures = 0
        for op, check in zip(workload.chain, outcome):
            checks[op["out"]] = check.values
            if check.errors:
                round_failures += 1
                print(f"round {len(rounds)}: {op['out']} check failed: {'; '.join(check.errors)}",
                      file=sys.stderr)
        failed += round_failures
        correct = correct and round_failures == 0
        if reference is None:
            reference, reference_failures = digest, round_failures
        else:
            print(f"round {len(rounds)}: outputs differ from round 1", file=sys.stderr)
    elapsed = time.perf_counter() - began

    complete = [r for r in rounds if not r["error"] and r["returncode"] == 0]
    plain = [figures(r) for r in complete if not r["traced"]]
    traced = [r for r in complete if r["traced"]]
    metrics = {}
    if args.trace and plain and traced:
        units = per_layer_units()
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in units if name != "trace.overhead_s"}
        values["trace.overhead_s"] = statistics.median(
            figures(r)["wall_s"] for r in traced
        ) - statistics.median(p["wall_s"] for p in plain)
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    elif plain:
        metrics = {
            name: {"value": statistics.median(p[name] for p in plain), "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(rounds),
        "measured_s": elapsed,
        "environment": environment(),
        "digests": reference,
        "checks": checks,
        "per_round": [figures(r) | {"traced": r["traced"]} for r in complete],
    }
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 and correct and metrics else 1


if __name__ == "__main__":
    sys.exit(main())
