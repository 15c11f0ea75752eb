"""The real wave potential: second-order dynamics equivalent to Schrodinger flow.

A real field phi with velocity phi_dot generates a wave function through

    Re Psi = -L phi,   Im Psi = hbar * phi_dot,   L = (hbar^2/2m) Lap - V,

and obeys hbar^2 phi_ddot + L^2 phi = 0, integrated here with velocity-Verlet
(symplectic, time-reversible). L is real and symmetric, so in its orthonormal
eigenbasis L = Q Lambda Q^T that equation is one oscillator per mode, of
frequency |Lambda|/hbar. That basis is the stationary states of
``schrodinger.dense_eigensystem``, with Lambda = -E, since its H is -L built
from the same closure ``real_l_operator``: on grids of at most
``DENSE_L_LIMIT`` points ``run_verlet`` steps those modes, and on larger
grids the samples through that closure. |Psi|^2 equals 2*hbar times the
field energy density pointwise, so probability conservation is literally
energy conservation of this field. Functions alpha with L alpha = 0 shift phi
without changing Psi; that kernel is the gauge sector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GaugeError, NonFiniteSampleError
from .grids import Grid, ComplexSampleField, ScalarSampleField, check_same_grid
from .schrodinger import (
    PotentialSpec,
    QuantumParams,
    WaveFunction,
    dense_eigensystem,
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
    "DENSE_L_LIMIT",
]

# Fraction of the Verlet stability limit 2 hbar / E_max that a step may use.
SAFETY = 0.2
# Largest ||L alpha|| / (||alpha|| E_max) of a gauge function alpha.
_GAUGE_TOL = 1e-10
# Largest grid, in points and in any dimension, on which run_verlet steps the
# normal modes of L. There a step is four O(N) ufuncs, an observed step O(N)
# more, and a run adds one O(N^3) eigensolve. The value is where the dense L
# matvec used to stop, not a measured crossover of the modal path: that path
# was about twice as fast as the samples at 512 points, and where it stops
# paying is unmeasured. At 256 points (2-vCPU VM, one BLAS thread, 20000
# steps) a step took 1.9 us (15 us with two dense matvecs), 3.1 us with a
# no-op observer, after 6.0 ms of set-up. A constant, never timed at run
# time, so that the bytes a run writes do not depend on the machine.
DENSE_L_LIMIT = 256


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

    L is ``real_l_operator``, the transform-based L whose normal modes or
    samples ``run_verlet`` steps.
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
    observer: Callable[[np.ndarray, np.ndarray, np.ndarray], None] | None = None,
) -> PhiState:
    """Kick-drift-kick velocity-Verlet, driven by ``stepping.drive``. Refuses
    unstable dt, and on the modes a state whose acceleration overflows.

    On grids of at most ``DENSE_L_LIMIT`` points the state is the coordinates
    of phi and phi_dot in the eigenbasis ``dense_eigensystem`` gives for
    ``method``, and a step is O(N); above it, the samples, with L applied
    through ``real_l_operator``. The dense H is -L from that closure, so both
    step one L by one scheme, and their trajectories agree to roundoff. The
    observer sees blocks of L(phi) and phi_dot, every step once and in order
    (see ``stepping.drive``), in an orthonormal basis: on the modes their
    coordinates Q^T L phi and Q^T phi_dot, one row of N a step; on the
    samples the samples, in the grid's shape. Sums of squares, and with them
    the norm and energy of Psi, are the same in both. A caller that wants
    samples on the modes maps a block by ``@ Q.T``, with Q the vectors of
    ``dense_eigensystem(state.potential, state.params, method)``. On the
    samples a step allocates nothing.
    """
    params = state.params
    emax = max_energy_bound(state.potential, params, method)
    check_dt(
        dt, stable_dt(state.potential, params, method), "Verlet",
        f" (E_max={emax:g}, hard stability limit {2 * params.hbar / emax:g})",
    )
    verlet = _modal_verlet if state.grid.size <= DENSE_L_LIMIT else _sampled_verlet
    return verlet(state, dt, steps, sink, snapshot_stride, method, observer)


def _sampled_verlet(state, dt, steps, sink, snapshot_stride, method, observer) -> PhiState:
    """``run_verlet`` on raw samples: the kicks, the drift and both applies of L
    write into arrays made once, and the observer sees two of them."""
    grid = state.grid
    params = state.params
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

    return drive(advance, box, lambda: (lphi, vel), state, steps, snapshot_stride, sink, observer)


def _modal_verlet(state, dt, steps, sink, snapshot_stride, method, observer) -> PhiState:
    """``run_verlet`` on the mode coordinates a = Q^T phi and a_dot = Q^T phi_dot.

    Q is ``dense_eigensystem``'s vectors and Lambda = -E its energies
    negated, so Lambda descends. The acceleration is -(Lambda/hbar)^2 a, so
    a step is four ufuncs on arrays made once. ``drive`` observes (a, a_dot)
    as one (2, N) array, and the observer gets a block of k steps as its
    (k, N) rows Lambda a = Q^T L phi and a_dot, the a rows scaled in place in
    ``drive``'s block. Frames are Q a and Q a_dot. A state whose modal
    acceleration can overflow raises NonFiniteSampleError before the first
    step.
    """
    grid = state.grid
    params = state.params
    size = grid.size
    eig = dense_eigensystem(state.potential, params, method)
    lam = -eig.energies
    qt = eig.vectors.T.copy()  # one mode a row: coordinates are Q^T f, and samples a Q^T
    coords = np.stack([qt @ f.values.reshape(size) for f in (state.phi, state.phi_dot)])
    a, vel = coords  # views: the steps write into coords, which drive observes
    # each mode's acceleration peaks at |Lambda| |Psi_k| / hbar^2 over an
    # oscillation, Psi_k = -Lambda a_k + i hbar a_dot_k. Where that overflows,
    # the run cannot represent L(L phi), which on samples turns the state
    # non-finite; the modes never form it, so they refuse the state here
    peak = np.abs(lam) / params.hbar**2 * np.hypot(lam * a, params.hbar * vel)
    if not np.isfinite(peak).all():
        raise NonFiniteSampleError(
            "field contains non-finite samples: the acceleration L(L phi)/hbar^2 "
            f"overflows in {int(np.count_nonzero(~np.isfinite(peak)))} of {size} modes of L"
        )
    half_kick = lam**2 * (-0.5 * dt / params.hbar**2)  # -(dt/2)(Lambda/hbar)^2
    full_dt = np.array(dt)
    kick = a * half_kick  # what a half kick adds to a_dot
    tmp = np.empty_like(a)

    def advance(n: int) -> None:
        nonlocal a, vel
        vel += kick
        a += np.multiply(vel, full_dt, out=tmp)
        np.multiply(a, half_kick, out=kick)
        vel += kick

    def box() -> PhiState:
        return PhiState(
            ScalarSampleField(grid, (a @ qt).reshape(grid.shape)),
            ScalarSampleField(grid, (vel @ qt).reshape(grid.shape)),
            params,
            state.potential,
        )

    def observe_modes(ns: np.ndarray, block: np.ndarray) -> None:
        block[:, 0] *= lam  # Q^T L phi = Lambda a, in drive's block, never in coords
        observer(ns, block[:, 0], block[:, 1])

    return drive(
        advance, box, lambda: (coords,), state, steps, snapshot_stride,
        sink, None if observer is None else observe_modes,
    )


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
