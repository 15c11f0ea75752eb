"""The one time-step gate of the four integrators, ``stepping.check_dt``."""

import re

import numpy as np
import pytest

from wavepot import maxwell, schrodinger, wavepotential
from wavepot.errors import StabilityError
from wavepot.grids import ComplexSampleField, Grid, ScalarSampleField, VectorSampleField3
from wavepot.maxwell import EMState, PotentialState, SourceSpec
from wavepot.schrodinger import PotentialSpec, QuantumParams, WaveFunction

PARAMS = QuantumParams()
LINE = Grid.line(16, 20.0)
X = LINE.axis_coordinates(0)
V = PotentialSpec(ScalarSampleField(LINE, 0.5 * (X - 10.0) ** 2))
CUBE = Grid.cube(8, 2 * np.pi)
ZEROS = VectorSampleField3.zeros(CUBE)
VACUUM = SourceSpec.vacuum()
PHI = wavepotential.PhiState(
    ScalarSampleField(LINE, np.cos(2 * np.pi * X / 20)), ScalarSampleField.zeros(LINE), PARAMS, V
)
PSI = WaveFunction(ComplexSampleField(LINE, np.exp(-((X - 12.0) ** 2) / 2)), PARAMS)

# each integrator as (dt, observer) -> a run of two steps
RUNS = {
    "run_verlet": lambda dt, obs: wavepotential.run_verlet(PHI, dt, 2, sink=None, observer=obs),
    "propagate_cn": lambda dt, obs: schrodinger.propagate_cn(PSI, V, dt, 2, sink=None, observer=obs),
    "run_rk4": lambda dt, obs: maxwell.run_rk4(
        EMState(ZEROS, ZEROS), VACUUM, dt, 2, sink=None, observer=obs
    ),
    "run_potential_verlet": lambda dt, obs: maxwell.run_potential_verlet(
        PotentialState(ZEROS, ZEROS), VACUUM, dt, 2, sink=None, observer=obs
    ),
}


@pytest.mark.parametrize("dt", [np.nan, np.inf, 0.0, -1e-3], ids=["nan", "inf", "zero", "negative"])
@pytest.mark.parametrize("name", list(RUNS))
def test_dt_not_positive_and_finite_raises_before_a_step(monkeypatch, name, dt):
    # a NaN dt used to pass `dt <= 0`: phi-Verlet stepped until a state failed to
    # box, and the Cayley step ran 400 CGLS iterations before its SolverError
    def no_solve(*args, **kwargs):
        raise AssertionError("the Cayley solve ran")

    monkeypatch.setattr(schrodinger, "normal_equations_cg", no_solve)
    seen = []
    with pytest.raises(ValueError, match="dt must be a positive finite number"):
        RUNS[name](dt, lambda n, *arrays: seen.append(n))
    assert 1 not in seen


@pytest.mark.parametrize("name, budget, scheme", [
    ("run_verlet", wavepotential.stable_dt(V, PARAMS), "Verlet"),
    ("run_rk4", maxwell.rk4_dt_bound(CUBE, 1.0), "RK4 CFL"),
    ("run_potential_verlet", maxwell.potential_dt_bound(CUBE, 1.0), "potential Verlet"),
])
def test_dt_over_the_budget_raises_stability_error(name, budget, scheme):
    RUNS[name](budget, None)  # the budget itself is stable
    dt = 1.01 * budget
    text = f"dt={dt:g} exceeds the {scheme} budget {budget:g}"
    with pytest.raises(StabilityError, match=re.escape(text)):
        RUNS[name](dt, None)
