"""Command-line interface.

One subcommand per scenario kind plus ``dump``. Exit codes: 0 ok, 1 usage or
configuration error, 2 numerical failure (stability refusal, solver
non-convergence, non-finite samples), 3 invariant ceiling exceeded.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import MonitorError, NonFiniteSampleError, SolverError, StabilityError
from . import scenario as scn
from .snapshots import dump_csv, read_snapshot

# Checked in this order: NonFiniteSampleError is a ValueError, yet a numerical failure.
NUMERICAL_ERRORS = (StabilityError, SolverError, NonFiniteSampleError)
USAGE_ERRORS = (ValueError,)

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavepot",
        description="Potential-formulation simulator: Schrodinger/wave-potential and "
        "Maxwell/vector-potential runs, reconstructions, and comparisons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in scn.KINDS:
        p = sub.add_parser(name, help=f"run a kind={name} scenario")
        p.add_argument("--scenario", required=True, help="path to the scenario file")
        p.add_argument("--out", required=True, help="output directory for this run")
        p.add_argument(
            "--override",
            action="append",
            default=[],
            metavar="SECTION.KEY=VALUE",
            help="override a scenario entry (repeatable)",
        )
    d = sub.add_parser("dump", help="convert a snapshot file to CSV")
    d.add_argument("--snapshot", required=True, help="snapshot file or run directory")
    d.add_argument("--out", required=True, help="CSV output path")
    d.add_argument("--frame", type=int, default=None, help="dump only this frame index")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0

    try:
        if args.command == "dump":
            path = Path(args.snapshot)
            if path.is_dir():
                path = path / scn.SNAPSHOT_FILE
            dump_csv(read_snapshot(path), args.out, frame=args.frame)
            return 0
        loaded = scn.load_scenario(args.scenario, overrides=args.override)
        if loaded.kind != args.command:
            print(
                f"error: scenario kind is {loaded.kind!r} but the subcommand is "
                f"{args.command!r}",
                file=sys.stderr,
            )
            return 1
        report = scn.run(loaded, args.out)
        _print_report(report)
        return 0
    except MonitorError as exc:
        print(f"invariant ceiling exceeded: {exc}", file=sys.stderr)
        return 3
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _print_report(report) -> None:
    print(f"{report.kind}: wrote {report.out_dir}")
    for key in sorted(report.monitor_peaks):
        print(f"  {key:32s} {report.monitor_peaks[key]:.6e}")
    for key in sorted(report.summary):
        value = report.summary[key]
        if isinstance(value, float):
            print(f"  {key:32s} {value:.6e}")
        else:
            print(f"  {key:32s} {value}")
    if report.kind == "compare":
        _print_compare_table(report.out_dir / "report.csv")


def _print_compare_table(report_path: Path, limit: int = 10) -> None:
    lines = report_path.read_text().splitlines()
    header, rows = lines[0].split(","), [ln.split(",") for ln in lines[1:]]
    shown = rows if len(rows) <= limit else rows[: limit // 2] + [None] + rows[-limit // 2 :]
    print(f"  {header[0]:>6} {header[1]:>14} {header[2]:>14} {header[3]:>14}")
    for row in shown:
        if row is None:
            print("     ...")
            continue
        print(
            f"  {row[0]:>6} {float(row[1]):14.6g} {float(row[2]):14.6e} "
            f"{float(row[3]):14.6e}"
        )


if __name__ == "__main__":
    sys.exit(main())
