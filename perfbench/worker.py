"""One round of a workload: its chain of scenario runs in a fresh process.

Usage: python3 perfbench/worker.py <work dir> <spawn epoch seconds> <trace 0|1>

Reads ``chain.json`` from the work directory, runs each scenario through
``wavepot.scenario.load_scenario``/``run`` (the path the ``wavepot`` CLI
takes) from the ``src/`` tree of the current directory, and writes
``round.json`` with the timings, the peak resident memory, the per-layer
figures when traced, and the first error with its CLI exit code. The
benchmark pins BLAS and FFT threads in the environment before starting this
process, so numpy is single-threaded from its first import.
"""

import time

STARTED = time.time()
STARTED_PERF = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    work, spawn, traced = Path(sys.argv[1]), float(sys.argv[2]), sys.argv[3] == "1"
    sys.path.insert(0, str(Path.cwd() / "src"))
    from tracing import Marks, Tracer

    from wavepot import scenario
    from wavepot.cli import NUMERICAL_ERRORS, USAGE_ERRORS
    from wavepot.errors import MonitorError

    imported = time.perf_counter()
    marks = Marks()
    marks.install()
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()

    def since_spawn(t: float) -> float:
        return (STARTED - spawn) + (t - STARTED_PERF)

    ops, error, code = [], None, 0
    for op in json.loads((work / "chain.json").read_text()):
        marks.first_step = None
        start = time.perf_counter()
        try:
            loaded = scenario.load_scenario(work / op["scenario"])
            scenario.run(loaded, work / op["out"])
        except MonitorError as exc:
            error, code = f"{op['out']}: invariant ceiling exceeded: {exc}", 3
        except NUMERICAL_ERRORS as exc:
            error, code = f"{op['out']}: numerical failure: {exc}", 2
        except USAGE_ERRORS as exc:
            error, code = f"{op['out']}: error: {exc}", 1
        end = time.perf_counter()
        if error:
            break
        ops.append({
            "out": op["out"],
            "start": since_spawn(start),
            "first_step": None if marks.first_step is None else since_spawn(marks.first_step),
            "end": since_spawn(end),
            "steps": loaded.steps if marks.first_step is not None else 0,
        })

    result = {
        "interpreter_s": STARTED - spawn,
        "imports_s": imported - STARTED_PERF,
        "ops": ops,
        "error": error,
        "exit_code": code,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if tracer:
        result["layers"] = tracer.metrics()
        tracer.write(work / "spans.json")
    (work / "round.json").write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
