"""What start-up loads, and what the step loops cost the allocator.

No path imports scipy: start-up and every scenario kind, ``type = stationary``
initial data and the kernel search of ``reconstruct-phi`` included, run on
numpy alone. The Maxwell step loops allocate and free about 1 MB a step, so
under glibc ``stepping.drive`` keeps freed heap for reuse; the fault budget
below catches a run that maps its temporaries in again each step.
Both checks need a fresh interpreter, so each runs in a subprocess.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

GRID_1D = "[grid]\npoints = 64\nlengths = 20.0\n"
GRID_3D = "[grid]\npoints = 8 8 8\nlengths = " + " ".join(["6.283185307179586"] * 3) + "\n"
HARMONIC = "[potential]\nv = 0.5*(x-10)^2\n"
PHI_STEPS = "[integrator]\ndt = auto\nsteps = 6\nsnapshot_stride = 3\n"

KINDS = {
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
    "schrodinger": GRID_1D + HARMONIC + """
[scenario]
kind = schrodinger
[initial]
psi_re = exp(-(x-12)^2/2)
psi_im = 0
[integrator]
dt = 0.002
steps = 6
snapshot_stride = 1
""",
    "phi": GRID_1D + HARMONIC + PHI_STEPS + """
[scenario]
kind = phi
[initial]
phi = cos(2*pi*x/20)
phi_dot = 0
""",
    "phi-stationary": GRID_1D + HARMONIC + PHI_STEPS + """
[scenario]
kind = phi
[initial]
type = stationary
mode = 0
time = 0
""",
    # reads the record that the schrodinger run above writes, so it runs after it
    "reconstruct-phi": HARMONIC + """
[scenario]
kind = reconstruct-phi
[inputs]
source = schrodinger
""",
}

STARTUP_CHILD = textwrap.dedent(
    """
    import json, sys
    from pathlib import Path

    root, work = Path(sys.argv[1]), Path(sys.argv[2])
    sys.path.insert(0, str(root / "src"))

    def loaded():
        return sorted(name for name in sys.modules if name.startswith("scipy"))

    import wavepot, wavepot.cli, wavepot.scenario
    from wavepot import scenario

    after = {"import": loaded()}
    for kind in json.loads(sys.argv[3]):
        scenario.run(scenario.load_scenario(work / f"{kind}.scn"), work / kind)
        after[kind] = loaded()
    print(json.dumps(after))
    """
)


def _run_child(code, *args):
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_startup_and_every_kind_load_no_scipy(tmp_path):
    for kind, text in KINDS.items():
        (tmp_path / f"{kind}.scn").write_text(text)
    after = _run_child(STARTUP_CHILD, ROOT, tmp_path, json.dumps(list(KINDS)))
    for step in ["import", *KINDS]:
        assert after[step] == [], f"scipy loaded by {step}: {after[step][:3]}"
    assert (tmp_path / "reconstruct-phi" / "snapshots.wps").is_file()


FAULTS_CHILD = textwrap.dedent(
    """
    import json, resource, sys
    from pathlib import Path

    root, work = Path(sys.argv[1]), Path(sys.argv[2])
    sys.path[:0] = [str(root / "perfbench"), str(root / "src")]
    import workloads
    from wavepot import scenario

    plane_wave = workloads.MaxwellDriven(1)
    for name, text in plane_wave.scenarios().items():
        (work / name).write_text(text)
    per_step = {}
    for repeat in range(2):
        for name in ("fields", "potential"):
            loaded = scenario.load_scenario(work / f"{name}.scn")
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            scenario.run(loaded, work / name)
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
            per_step[name] = faults / loaded.steps
    print(json.dumps(per_step))
    """
)

# Minor page faults a step in the second run of each scenario, on the benchmark's
# driven 16^3 plane wave (2-vCPU x86-64 VM, glibc 2.36). With the heap kept: 0.1 in
# the RK4 fields run and 0.1 in the A-Verlet potential run. With glibc's default
# thresholds: about 690 and 80. With the thresholds that importing scipy happened to
# set: about 400 and 0.2.
FAULTS_PER_STEP_BOUND = 20


def _glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not _glibc(), reason="the heap thresholds are set only under glibc")
def test_maxwell_steps_do_not_fault_their_memory_in_again(tmp_path):
    per_step = _run_child(FAULTS_CHILD, ROOT, tmp_path)
    for name, faults in per_step.items():
        assert faults < FAULTS_PER_STEP_BOUND, f"{name}: {faults:.1f} minor faults a step"
