"""The demo scripts still run against the package's current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_script(script: str, *args: str) -> str:
    """The script's standard output, after checking that it exits 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("script, args", [
    ("equivalence_demo.py", ["--points", "64", "--periods", "0.2"]),
    ("maxwell_demo.py", ["--points", "8"]),
])
def test_demo_exits_zero(script, args):
    assert "round-trip" in _run_script(script, *args)


def test_convergence_orders_match_the_integrators():
    lines = [line for line in _run_script("convergence_orders.py").splitlines() if "order:" in line]
    names = [line.split(" order:")[0] for line in lines]
    assert names == ["Crank-Nicolson", "velocity-Verlet", "RK4"]
    for line in lines:
        # "<integrator> order: 2.000 (expected 2)"
        measured, expected = line.split("order:")[1].replace(")", "").split("(expected")
        assert abs(float(measured) - float(expected)) <= 0.1, line
