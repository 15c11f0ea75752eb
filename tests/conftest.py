import os

# One BLAS thread, as the benchmark runs: before numpy loads, or it is too late.
# Threaded OpenBLAS makes the small dense algebra inside lobpcg several times slower.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from wavepot.grids import Grid, ScalarSampleField, VectorSampleField3

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture
def grid64():
    return Grid.line(64, 2 * np.pi)


@pytest.fixture
def cube16():
    return Grid.cube(16, 2 * np.pi)


def band_limited(grid: Grid, rng, kmax: int = 3, amplitude: float = 1.0) -> np.ndarray:
    """Random smooth field: superposition of low-wavenumber cosines."""
    out = np.zeros(grid.shape)
    coords = grid.coordinate_arrays()
    for _ in range(6):
        wave = rng.uniform(0.0, 2.0 * np.pi)
        for a in range(grid.dims):
            n = rng.integers(-kmax, kmax + 1)
            wave = wave + 2.0 * np.pi * n * coords[a] / grid.lengths[a]
        out = out + rng.normal() * np.cos(wave)
    return amplitude * out / max(np.max(np.abs(out)), 1e-12)


def smooth_scalar(grid: Grid, rng, kmax: int = 3) -> ScalarSampleField:
    return ScalarSampleField(grid, band_limited(grid, rng, kmax))


def smooth_vector(grid: Grid, rng, kmax: int = 3) -> VectorSampleField3:
    return VectorSampleField3(grid, np.stack([band_limited(grid, rng, kmax) for _ in range(3)]))


@pytest.fixture
def maxwell_transforms(monkeypatch):
    """The transforms the ``maxwell`` module makes from here on, by component count.

    ``"forward"`` and ``"inverse"`` list, in call order, how many components
    each forward and inverse transform carried (a stacked (E, B) or (A, dA/dt)
    counts six). A sampled curl or potential acceleration in the module raises.
    """
    from wavepot import maxwell

    calls = {"forward": [], "inverse": []}
    forward, inverse = maxwell.modes, maxwell.from_modes

    def counting_forward(values, grid, method):
        calls["forward"].append(int(np.prod(values.shape[: -grid.dims])))
        return forward(values, grid, method)

    def counting_inverse(spectrum):
        calls["inverse"].append(int(np.prod(spectrum.hat.shape[: -spectrum.grid.dims])))
        return inverse(spectrum)

    def sampled(name):
        def refuse(*args):
            raise AssertionError(f"maxwell called {name}")

        return refuse

    monkeypatch.setattr(maxwell, "modes", counting_forward)
    monkeypatch.setattr(maxwell, "from_modes", counting_inverse)
    for name in ("_curl_arrays", "_potential_accel_arrays"):
        monkeypatch.setattr(maxwell, name, sampled(name))
    return calls
