"""The one stepping loop, ``stepping.drive``, as the four integrators use it: the
blocks it hands the observer, the frames and final state it serves, and its one
time-step gate ``stepping.check_dt``; and the BLAS thread pin of the dense
eigensolves, ``stepping.one_blas_thread``."""

import re
from functools import partial

import numpy as np
import pytest

from wavepot import maxwell, schrodinger, stepping, wavepotential
from wavepot.errors import StabilityError
from wavepot.grids import ComplexSampleField, Grid, ScalarSampleField, VectorSampleField3
from wavepot.maxwell import EMState, PotentialState, SourceSpec
from wavepot.schrodinger import PotentialSpec, QuantumParams, WaveFunction

PARAMS = QuantumParams()
LINE = Grid.line(16, 20.0)
X = LINE.axis_coordinates(0)
CUBE = Grid.cube(8, 2 * np.pi)
ZEROS = VectorSampleField3.zeros(CUBE)
VACUUM = SourceSpec.vacuum()


def harmonic_phi(grid):
    x = grid.axis_coordinates(0)
    potential = PotentialSpec(ScalarSampleField(grid, 0.5 * (x - 10.0) ** 2))
    phi = ScalarSampleField(grid, np.cos(2 * np.pi * x / 20))
    return wavepotential.PhiState(phi, ScalarSampleField.zeros(grid), PARAMS, potential)


PHI = harmonic_phi(LINE)
V = PHI.potential
# above DENSE_L_LIMIT points run_verlet steps the samples rather than the modes
WIDE_PHI = harmonic_phi(Grid.line(2 * wavepotential.DENSE_L_LIMIT, 20.0))
PSI = WaveFunction(ComplexSampleField(LINE, np.exp(-((X - 12.0) ** 2) / 2)), PARAMS)
# a plane wave, so that the Maxwell runs observe a state that moves
COS_X = np.cos(CUBE.coordinate_arrays()[0]) * np.ones(CUBE.shape)
WAVE = VectorSampleField3(CUBE, np.stack([0 * COS_X, COS_X, 0 * COS_X]))
FIELDS = EMState(WAVE, WAVE)
POTENTIAL = PotentialState(WAVE, ZEROS)

# each integrator: its module, its initial state, and a run (dt, steps, **keywords) from that state
INTEGRATORS = {
    "run_verlet": (wavepotential, PHI, partial(wavepotential.run_verlet, PHI)),
    "run_verlet-sampled": (wavepotential, WIDE_PHI, partial(wavepotential.run_verlet, WIDE_PHI)),
    "propagate_cn": (schrodinger, PSI, lambda dt, steps, **kw: schrodinger.propagate_cn(
        PSI, V, dt, steps, **kw)),
    "run_rk4": (maxwell, FIELDS, lambda dt, steps, **kw: maxwell.run_rk4(
        FIELDS, VACUUM, dt, steps, **kw)),
    "run_potential_verlet": (maxwell, POTENTIAL, lambda dt, steps, **kw: (
        maxwell.run_potential_verlet(POTENTIAL, VACUUM, dt, steps, **kw))),
}
NAMES = [name for name in INTEGRATORS if name != "run_verlet-sampled"]  # one per integrator
STABLE_DT = {
    "run_verlet": wavepotential.stable_dt(V, PARAMS),
    "run_verlet-sampled": wavepotential.stable_dt(WIDE_PHI.potential, PARAMS),
    "propagate_cn": 0.05,
    "run_rk4": 0.5 * maxwell.rk4_dt_bound(CUBE, 1.0),
    "run_potential_verlet": 0.5 * maxwell.potential_dt_bound(CUBE, 1.0),
}


def run_unrecorded(name, dt, observer, steps=2):
    return INTEGRATORS[name][2](dt, steps, sink=None, observer=observer)


def observed_blocks(monkeypatch, name, steps, cap=None):
    """(step numbers, blocks) of every observer call of a run, under a block cap
    of ``cap`` bytes (by default the module's own)."""
    if cap is not None:
        monkeypatch.setattr(stepping, "_OBSERVED_BLOCK_BYTES", cap)
    calls = []
    record = lambda ns, *blocks: calls.append((ns, [b.copy() for b in blocks]))
    run_unrecorded(name, STABLE_DT[name], record, steps)
    return calls


def step_rows(calls):
    """Each observed array's rows over the whole run, as bytes."""
    return [[row.tobytes() for _, blocks in calls for row in blocks[i]]
            for i in range(len(calls[0][1]))]


@pytest.mark.parametrize("name", list(INTEGRATORS))
def test_blocks_cover_every_step_in_order_within_the_cap(monkeypatch, name):
    steps = 10
    default = observed_blocks(monkeypatch, name, steps)
    assert all(len(set(rows)) == steps + 1 for rows in step_rows(default))  # the state moves
    step_bytes = sum(block[0].nbytes for block in default[0][1])
    full = stepping._OBSERVED_BLOCK_BYTES // step_bytes
    default_sizes = [full] * ((steps + 1) // full) + [(steps + 1) % full] * bool((steps + 1) % full)
    for cap, sizes in [
        (stepping._OBSERVED_BLOCK_BYTES, default_sizes),
        (step_bytes, [1] * 11),
        (3 * step_bytes + 1, [3, 3, 3, 2]),
        (step_bytes - 1, [1] * 11),  # a step larger than the cap makes a block of its own
    ]:
        calls = observed_blocks(monkeypatch, name, steps, cap)
        assert [len(ns) for ns, _ in calls] == sizes
        assert np.concatenate([ns for ns, _ in calls]).tolist() == list(range(steps + 1))
        for ns, blocks in calls:
            assert all(len(block) == len(ns) for block in blocks)
            assert len(ns) * step_bytes <= max(cap, step_bytes)
        # each step's arrays do not depend on the block they arrive in
        assert step_rows(calls) == step_rows(default)


@pytest.mark.parametrize("name", list(INTEGRATORS))
def test_box_runs_once_per_recorded_step(monkeypatch, name):
    module, initial, run = INTEGRATORS[name]
    real_drive = module.drive
    boxed = []  # the step whose state each box() call made

    def counting_drive(advance, box, *args):
        last = [0]

        def stepped(n):
            last[0] = n
            advance(n)

        def counted():
            boxed.append(last[0])
            return box()

        return real_drive(stepped, counted, *args)

    monkeypatch.setattr(module, "drive", counting_drive)
    dt = STABLE_DT[name]
    for stride, steps, recorded in [(1, 5, [1, 2, 3, 4, 5]), (2, 5, [2, 4, 5]), (1, 0, [])]:
        boxed.clear()
        frames = {}
        final = run(dt, steps, sink=frames.__setitem__, snapshot_stride=stride)
        assert boxed == recorded
        assert list(frames) == [0] + recorded
        assert frames[0] is initial  # frame 0 is the initial state itself
        assert final is frames[steps]
    for steps, recorded in [(5, [5]), (0, [])]:
        boxed.clear()
        final = run(dt, steps, sink=None)
        assert boxed == recorded
        if not steps:
            assert final is initial


@pytest.mark.parametrize("dt", [np.nan, np.inf, 0.0, -1e-3], ids=["nan", "inf", "zero", "negative"])
@pytest.mark.parametrize("name", NAMES)
def test_dt_not_positive_and_finite_raises_before_a_step(monkeypatch, name, dt):
    # a NaN dt used to pass `dt <= 0`: phi-Verlet stepped until a state failed to
    # box, and the Cayley step ran 400 CGLS iterations before its SolverError
    def no_solve(*args, **kwargs):
        raise AssertionError("the Cayley solve ran")

    monkeypatch.setattr(schrodinger, "normal_equations_cg", no_solve)
    seen = []
    with pytest.raises(ValueError, match="dt must be a positive finite number"):
        run_unrecorded(name, dt, lambda ns, *blocks: seen.extend(ns))
    assert 1 not in seen


@pytest.mark.parametrize("name, budget, scheme", [
    ("run_verlet", wavepotential.stable_dt(V, PARAMS), "Verlet"),
    ("run_rk4", maxwell.rk4_dt_bound(CUBE, 1.0), "RK4 CFL"),
    ("run_potential_verlet", maxwell.potential_dt_bound(CUBE, 1.0), "potential Verlet"),
])
def test_dt_over_the_budget_raises_stability_error(name, budget, scheme):
    run_unrecorded(name, budget, None)  # the budget itself is stable
    dt = 1.01 * budget
    text = f"dt={dt:g} exceeds the {scheme} budget {budget:g}"
    with pytest.raises(StabilityError, match=re.escape(text)):
        run_unrecorded(name, dt, None)


def test_one_blas_thread_pins_and_restores_the_count():
    controls = stepping._openblas_thread_controls()
    if not controls:
        pytest.skip("numpy loaded no OpenBLAS")
    before = [get_threads() for _, get_threads in controls]
    try:
        for set_threads, _ in controls:
            set_threads(2)
        with stepping.one_blas_thread():
            assert [get_threads() for _, get_threads in controls] == [1] * len(controls)
        assert [get_threads() for _, get_threads in controls] == [2] * len(controls)
        with pytest.raises(ZeroDivisionError), stepping.one_blas_thread():
            1 / 0
        assert [get_threads() for _, get_threads in controls] == [2] * len(controls)
    finally:
        for (set_threads, _), count in zip(controls, before):
            set_threads(count)


def test_one_blas_thread_without_openblas_does_nothing(monkeypatch):
    monkeypatch.setattr(stepping, "_openblas_thread_controls", lambda: ())
    with stepping.one_blas_thread():
        assert np.linalg.eigh(np.eye(3))[0].tolist() == [1.0, 1.0, 1.0]
