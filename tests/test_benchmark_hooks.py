"""The benchmark's hooks must still find and wrap the integrators they time.

``perfbench/tracing.py`` replaces module functions by name: ``Marks`` notes
each run's first integrator step, and ``Tracer`` counts steps per integrator.
Both patch modules process-wide, so they run here in a fresh interpreter.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

GRID_1D = "[grid]\npoints = 64\nlengths = 20.0\n"
GRID_3D = "[grid]\npoints = 8 8 8\nlengths = " + " ".join(["6.283185307179586"] * 3) + "\n"

SCENARIOS = {
    "schrodinger": GRID_1D + """
[scenario]
kind = schrodinger
[potential]
v = 0.5*(x-10)^2
[initial]
psi_re = exp(-(x-12)^2/2)
psi_im = 0
[integrator]
dt = 0.002
steps = 6
snapshot_stride = 1
""",
    "phi": GRID_1D + """
[scenario]
kind = phi
[potential]
v = 0.5*(x-10)^2
[initial]
phi = cos(2*pi*x/20)
phi_dot = 0
[integrator]
dt = auto
steps = 6
snapshot_stride = 3
""",
    "phi-stationary": GRID_1D + """
[scenario]
kind = phi
[potential]
v = 0.5*(x-10)^2
[initial]
type = stationary
mode = 1
time = 0
[integrator]
dt = auto
steps = 6
snapshot_stride = 3
""",
    "maxwell-fields": GRID_3D + """
[scenario]
kind = maxwell-fields
[initial]
e_x = 0
e_y = cos(x)
e_z = 0
b_x = 0
b_y = 0
b_z = cos(x)
[integrator]
dt = 0.02
steps = 4
snapshot_stride = 2
""",
    "maxwell-potential": GRID_3D + """
[scenario]
kind = maxwell-potential
[initial]
a_x = 0
a_y = sin(x)
a_z = 0
a_dot_x = 0
a_dot_y = 0-cos(x)
a_dot_z = 0
[integrator]
dt = 0.02
steps = 4
snapshot_stride = 2
""",
    "reconstruct-phi": """
[scenario]
kind = reconstruct-phi
[potential]
v = 0.5*(x-10)^2
[inputs]
source = schrodinger
""",
    "compare": """
[scenario]
kind = compare
[inputs]
run_a = reconstruct-phi
run_b = schrodinger
transform_a = phi_to_psi
""",
}

CHILD = textwrap.dedent(
    """
    import json, sys
    from pathlib import Path

    root, work = Path(sys.argv[1]), Path(sys.argv[2])
    sys.path[:0] = [str(root / "perfbench"), str(root / "src")]
    from tracing import Marks, Tracer
    from wavepot import scenario

    marks = Marks()
    marks.install()
    tracer = Tracer()
    tracer.install()
    first_step = {}
    for kind in json.loads(sys.argv[3]):
        marks.first_step = None
        scenario.run(scenario.load_scenario(work / f"{kind}.scn"), work / kind)
        first_step[kind] = marks.first_step is not None
    print(json.dumps({"first_step": first_step, "metrics": tracer.metrics()}))
    """
)


def test_marks_and_tracer_see_every_integrator(tmp_path):
    for kind, text in SCENARIOS.items():
        (tmp_path / f"{kind}.scn").write_text(text)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT), str(tmp_path), json.dumps(list(SCENARIOS))],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["first_step"] == {
        "schrodinger": True,
        "phi": True,
        "phi-stationary": True,
        "maxwell-fields": True,
        "maxwell-potential": True,
        "reconstruct-phi": False,
        "compare": False,
    }
    metrics = result["metrics"]
    assert metrics["schrodinger.cayley_steps"] == 6
    assert metrics["wavepotential.steps"] == 6 + 6
    assert metrics["maxwell.rk4_steps"] == 4
    assert metrics["maxwell.verlet_steps"] == 4
    # the tracer counts calls of the observer, and stepping.drive calls it once a
    # block of steps: each of the two 6-step phi runs on 64 points and the two 4-step
    # Maxwell runs on 8^3 fits its 7 or 5 observed steps in one block (propagate_cn's
    # observer is not traced)
    assert metrics["scenario.observer_calls"] == 4
    # every operators.* span of the seven runs. RK4 keeps its state as spectra and
    # takes mode-wise curls between its own transforms, so the 4-step fields run no
    # longer makes eight operators.curl spans a step (32). A-Verlet keeps (A, dA/dt)
    # as spectra too, and neither its step nor the rows of either Maxwell kind call
    # _potential_accel_arrays: the 4-step potential run no longer makes an
    # operators.potential_accel span at the start and at each step (5). Up to
    # DENSE_L_LIMIT points phi-Verlet steps the normal modes of L, so the two 6-step
    # phi runs no longer make two operators.real_l spans at the start and at each
    # step (2 x 14): each eigensolve makes one, the apply to the unit vectors that
    # builds L, and the stationary run's modes read its initial data's eigensolve
    assert metrics["operators.applies"] == 207
    # the tracer wraps dense_eigensystem by name, so every eigensolve is counted: one
    # a phi run up to DENSE_L_LIMIT points, whose modes are dense_eigensystem's (the
    # two 6-step phi runs), the stationary one handing its modes its initial data's
    assert metrics["schrodinger.dense_eig_calls"] == 2


def test_every_workload_scenario_loads(tmp_path, monkeypatch):
    """The scenario files the benchmark writes stay valid as the format tightens."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    from wavepot.scenario import load_scenario

    loaded = 0
    for name, workload in workloads.WORKLOADS.items():
        for file, text in workload(0).scenarios().items():
            path = tmp_path / f"{name}-{file}"
            path.write_text(text)
            load_scenario(path)
            loaded += 1
    assert loaded == 8
