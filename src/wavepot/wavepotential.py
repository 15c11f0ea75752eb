"""The real wave potential: second-order dynamics equivalent to Schrodinger flow.

A real field phi with velocity phi_dot generates a wave function through

    Re Psi = -L phi,   Im Psi = hbar * phi_dot,   L = (hbar^2/2m) Lap - V,

and obeys hbar^2 phi_ddot + L^2 phi = 0, integrated here with velocity-Verlet
(symplectic, time-reversible). |Psi|^2 equals 2*hbar times the field energy
density pointwise, so probability conservation is literally energy
conservation of this field. Functions alpha with L alpha = 0 shift phi
without changing Psi; that kernel is the gauge sector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GaugeError
from .grids import Grid, ComplexSampleField, ScalarSampleField, check_same_grid
from .schrodinger import (
    PotentialSpec,
    QuantumParams,
    WaveFunction,
    l_operator_array,
    max_energy_bound,
    real_l_operator,
)
from .stepping import check_dt, drive

__all__ = [
    "PhiState",
    "EnergyDensity",
    "phi_acceleration",
    "stable_dt",
    "run_verlet",
    "to_wavefunction",
    "stationary_phi",
    "energy_density",
    "lagrangian_density",
    "gauge_shift",
]

# Fraction of the Verlet stability limit 2 hbar / E_max that a step may use.
SAFETY = 0.2
# Largest ||L alpha|| / (||alpha|| E_max) of a gauge function alpha.
_GAUGE_TOL = 1e-10


@dataclass(frozen=True)
class PhiState:
    """Wave potential phi, its time derivative, and the background."""

    phi: ScalarSampleField
    phi_dot: ScalarSampleField
    params: QuantumParams
    potential: PotentialSpec

    def __post_init__(self):
        check_same_grid(self.phi.grid, self.phi_dot, self.potential)

    @property
    def grid(self) -> Grid:
        return self.phi.grid


@dataclass(frozen=True)
class EnergyDensity:
    """Pointwise energy split of the wave potential; total = kinetic + potential."""

    total: ScalarSampleField
    kinetic: ScalarSampleField
    potential: ScalarSampleField


def phi_acceleration(state: PhiState, method: str = "spectral") -> ScalarSampleField:
    """phi_ddot = -(1/hbar^2) L(L(phi)); L applied twice, never expanded.

    L is ``real_l_operator``, the operator ``run_verlet`` steps with.
    """
    grid = state.grid
    lop = real_l_operator(grid, state.potential.sampled.values, state.params, method)
    return ScalarSampleField(grid, -lop(lop(state.phi.values)) / state.params.hbar**2)


def stable_dt(V: PotentialSpec, params: QuantumParams, method: str = "spectral") -> float:
    """Verlet step budget: SAFETY * 2 hbar / E_max.

    E_max bounds |spec(H)|, so the squared operator driving phi stays inside
    the Verlet stability region dt < 2 hbar / E_max with margin ``SAFETY``.
    """
    return SAFETY * 2.0 * params.hbar / max_energy_bound(V, params, method)


def run_verlet(
    state: PhiState,
    dt: float,
    steps: int,
    *,
    sink: Callable[[int, PhiState], None] | None,
    snapshot_stride: int = 1,
    method: str = "spectral",
    observer: Callable[[int, np.ndarray, np.ndarray], None] | None = None,
) -> PhiState:
    """Kick-drift-kick velocity-Verlet on raw arrays, driven by ``stepping.drive``.

    The observer sees L(phi) and phi_dot, enough to form Psi and all densities
    without extra transforms; both are arrays the next step overwrites. A step
    allocates nothing: the kicks, the drift and both applies of L write into
    arrays made once. Refuses unstable dt.
    """
    grid = state.grid
    params = state.params
    emax = max_energy_bound(state.potential, params, method)
    check_dt(
        dt, stable_dt(state.potential, params, method), "Verlet",
        f" (E_max={emax:g}, hard stability limit {2 * params.hbar / emax:g})",
    )
    lop = real_l_operator(grid, state.potential.sampled.values, params, method)
    phi = state.phi.values.copy()
    vel = state.phi_dot.values.copy()
    # 0-d arrays, not Python floats: a ufunc converts a float operand on every
    # call, which on small grids costs more than the multiply
    neg_inv_hbar2, half_dt, full_dt = (np.array(x) for x in (-1.0 / params.hbar**2, 0.5 * dt, dt))
    lphi = lop(phi)
    accel = np.multiply(lop(lphi), neg_inv_hbar2)
    tmp = np.empty_like(phi)

    def advance(n: int) -> None:
        nonlocal phi, vel
        vel += np.multiply(accel, half_dt, out=tmp)
        phi += np.multiply(vel, full_dt, out=tmp)
        lop(phi, out=lphi)
        np.multiply(lop(lphi, out=accel), neg_inv_hbar2, out=accel)
        vel += np.multiply(accel, half_dt, out=tmp)

    def box() -> PhiState:
        return PhiState(
            ScalarSampleField(grid, phi.copy()),
            ScalarSampleField(grid, vel.copy()),
            params,
            state.potential,
        )

    return drive(advance, box, lambda: (lphi, vel), steps, snapshot_stride, sink, observer)


def to_wavefunction(state: PhiState, method: str = "spectral") -> WaveFunction:
    """Psi = -L phi + i hbar phi_dot."""
    grid = state.grid
    v = state.potential.sampled.values
    lphi = l_operator_array(state.phi.values, v, grid, state.params, method)
    psi = -lphi + 1j * state.params.hbar * state.phi_dot.values
    return WaveFunction(ComplexSampleField(grid, psi), state.params)


def stationary_phi(
    psi_n: ScalarSampleField,
    energy: float,
    t: float,
    params: QuantumParams,
    V: PotentialSpec,
    method: str = "spectral",
) -> PhiState:
    """Wave potential of a stationary state: phi = (psi_n/E_n) cos(E_n t / hbar).

    Requires E_n away from zero; zero-energy eigenvectors are pure gauge and
    carry no wave function. ``to_wavefunction`` of the result reproduces
    psi_n exp(-i E_n t / hbar) exactly at the discrete-operator level.
    """
    emax = max_energy_bound(V, params, method)
    if abs(energy) <= 1e-12 * emax:
        raise ValueError(
            f"stationary construction divides by the eigenvalue; E={energy:g} is "
            f"numerically zero (threshold {1e-12 * emax:g}); zero modes are gauge"
        )
    phase = energy * t / params.hbar
    phi = ScalarSampleField(psi_n.grid, psi_n.values * (np.cos(phase) / energy))
    phi_dot = ScalarSampleField(psi_n.grid, psi_n.values * (-np.sin(phase) / params.hbar))
    return PhiState(phi, phi_dot, params, V)


def energy_density(state: PhiState, method: str = "spectral") -> EnergyDensity:
    """Kinetic (hbar/2) phi_dot^2 and potential (1/2 hbar) (L phi)^2 densities.

    2 hbar * total equals |Psi|^2 pointwise for Psi = to_wavefunction(state).
    """
    grid = state.grid
    hbar = state.params.hbar
    v = state.potential.sampled.values
    lphi = l_operator_array(state.phi.values, v, grid, state.params, method)
    kinetic = 0.5 * hbar * state.phi_dot.values**2
    potential = 0.5 / hbar * lphi**2
    return EnergyDensity(
        ScalarSampleField(grid, kinetic + potential),
        ScalarSampleField(grid, kinetic),
        ScalarSampleField(grid, potential),
    )


def lagrangian_density(state: PhiState, method: str = "spectral") -> ScalarSampleField:
    """Kinetic minus potential density of the wave potential."""
    dens = energy_density(state, method)
    return ScalarSampleField(state.grid, dens.kinetic.values - dens.potential.values)


def gauge_shift(state: PhiState, alpha: ScalarSampleField, method: str = "spectral") -> PhiState:
    """Shift phi by a kernel function of L; the wave function is unchanged.

    alpha must satisfy ||L alpha|| <= _GAUGE_TOL * ||alpha|| * E_max in the
    discrete L2 norm, otherwise GaugeError reports the offending residual.
    """
    grid = state.grid
    check_same_grid(grid, alpha)
    v = state.potential.sampled.values
    l_alpha = l_operator_array(alpha.values, v, grid, state.params, method)
    vol = grid.cell_volume
    residual = float(np.sqrt(np.sum(l_alpha**2) * vol))
    alpha_norm = float(np.sqrt(np.sum(alpha.values**2) * vol))
    bound = _GAUGE_TOL * alpha_norm * max_energy_bound(state.potential, state.params, method)
    if residual > bound:
        raise GaugeError(
            f"gauge function is not in the kernel of L: ||L alpha|| = {residual:.3e} "
            f"exceeds the bound {bound:.3e}",
            residual=residual,
            bound=bound,
        )
    return PhiState(state.phi + alpha, state.phi_dot, state.params, state.potential)
