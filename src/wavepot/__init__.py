"""Two formulation pairs of wave dynamics, and the maps that prove them equivalent.

Quantum side: the Schrodinger flow for a complex wave function versus a real
second-order "wave potential" whose operator image and velocity give the real
and imaginary parts. Electromagnetic side: first-order (E, B) Maxwell
evolution with the divergence equations as initial conditions versus the
second-order vector potential. Round trips, gauge freedom, and conservation
identities are all exposed as testable operations.
"""

from .errors import (
    ContinuityError,
    ExprEvalError,
    ExprSyntaxError,
    GaugeError,
    GridMismatchError,
    IncompatibleRhsError,
    MonitorError,
    NonFiniteSampleError,
    ScenarioError,
    SolverError,
    StabilityError,
    WavepotError,
)
from .grids import (
    ComplexSampleField,
    Grid,
    ScalarSampleField,
    VectorSampleField3,
    inner,
    integrate,
    l2_norm,
    max_norm,
)
from .schrodinger import PotentialSpec, QuantumParams, WaveFunction
from .wavepotential import PhiState
from .maxwell import EMState, PotentialState, SourceSpec
from .scenario import Scenario, __version__, compare, load_scenario, run

__all__ = [
    "__version__",
    "Grid",
    "ScalarSampleField",
    "ComplexSampleField",
    "VectorSampleField3",
    "integrate",
    "inner",
    "l2_norm",
    "max_norm",
    "QuantumParams",
    "WaveFunction",
    "PotentialSpec",
    "PhiState",
    "EMState",
    "PotentialState",
    "SourceSpec",
    "Scenario",
    "load_scenario",
    "run",
    "compare",
    "WavepotError",
    "GridMismatchError",
    "ExprSyntaxError",
    "ExprEvalError",
    "NonFiniteSampleError",
    "StabilityError",
    "SolverError",
    "GaugeError",
    "IncompatibleRhsError",
    "ContinuityError",
    "ScenarioError",
    "MonitorError",
]
