"""Schrodinger dynamics on the grid: the reference side of every equivalence test.

All of it applies one operator. ``kinetic_symbol`` forms the Fourier symbol of
T = -(hbar^2/2m) Lap, and ``real_l_operator`` applies L = -(T + V) through it
to real or complex samples; H = -L. ``l_operator_array`` and
``hamiltonian_array`` are one call of that closure, so phi-Verlet, the dense
H, the Cayley step, the reverse map and compare's phi -> Psi map apply one L,
bit for bit. The evolution i*hbar dPsi/dt = H Psi is exposed three ways:

* ``apply_hamiltonian`` / ``canonical_rhs``: the first-order system for the
  real and imaginary parts (varphi, p), generated by the canonical Hamiltonian
  functional ``hamiltonian_canonical``.
* ``generalized_rhs``: the same flow generated by the norm functional through
  a non-canonical bracket whose kernel is L.
* Two propagators: ``crank_nicolson_step`` (Cayley form, exactly unitary up to
  the linear-solve tolerance; CGLS preconditioned by M = 1 + i alpha (T + c),
  diagonal in Fourier space) and ``exact_propagate_small`` (dense
  eigendecomposition, machine-precision for grids up to 4096 points).

The potential must not depend on time; PotentialSpec enforces that at
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import expressions
from .errors import SolverError
from .grids import ComplexSampleField, Grid, ScalarSampleField, check_same_grid
from .linsolve import normal_equations_cg
from .operators import fourier_multiplier, gradient_arrays, laplacian_spectral_radius, symbols
from .expressions import Expression
from .stepping import check_dt, drive, one_blas_thread, stepwise

__all__ = [
    "QuantumParams",
    "WaveFunction",
    "PotentialSpec",
    "apply_hamiltonian",
    "canonical_rhs",
    "generalized_rhs",
    "hamiltonian_canonical",
    "norm_functional",
    "crank_nicolson_step",
    "propagate_cn",
    "exact_propagate_small",
    "DenseEigensystem",
    "dense_eigensystem",
    "max_energy_bound",
    "kinetic_symbol",
    "real_l_operator",
    "l_operator_array",
    "hamiltonian_array",
    "DENSE_GRID_LIMIT",
]

DENSE_GRID_LIMIT = 4096
_SIGN_TIE = 1e-8  # relative band of eigenvector entries that tie for the largest
# Relative residual of each Cayley solve, which bounds the norm error one step
# adds; the cap stops a solve that has stalled (see crank_nicolson_step).
_CAYLEY_TOL = 1e-12
_CAYLEY_MAX_ITER = 400


@dataclass(frozen=True)
class QuantumParams:
    """Planck constant and particle mass in natural units."""

    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        if not (self.hbar > 0 and np.isfinite(self.hbar)):
            raise ValueError(f"hbar must be positive, got {self.hbar}")
        if not (self.mass > 0 and np.isfinite(self.mass)):
            raise ValueError(f"mass must be positive, got {self.mass}")
        if not np.isfinite(self.hbar * self.hbar / (2.0 * self.mass)):  # hbar**2 would raise
            raise ValueError(f"hbar^2/2m overflows for hbar = {self.hbar}, m = {self.mass}")

    @property
    def kinetic(self) -> float:
        """hbar^2 / 2m, the coefficient of -Lap in H."""
        return self.hbar**2 / (2.0 * self.mass)


@dataclass(frozen=True)
class WaveFunction:
    """Complex wave function samples plus physical constants."""

    psi: ComplexSampleField
    params: QuantumParams

    @property
    def grid(self) -> Grid:
        return self.psi.grid


@dataclass(frozen=True)
class PotentialSpec:
    """Time-independent potential: optional defining expression plus samples."""

    sampled: ScalarSampleField
    expression: Expression | None = None

    def __post_init__(self):
        if self.expression is not None and expressions.references_time(self.expression):
            raise ValueError("potential must not reference t (time-independent by contract)")

    @classmethod
    def from_expression(
        cls, source: str | Expression, grid: Grid, bindings=None
    ) -> "PotentialSpec":
        node = expressions.parse(source) if isinstance(source, str) else source
        if expressions.references_time(node):
            raise ValueError("potential must not reference t (time-independent by contract)")
        return cls(expressions.sample(node, grid, bindings), node)

    @classmethod
    def from_field(cls, field: ScalarSampleField) -> "PotentialSpec":
        return cls(field, None)

    @classmethod
    def zero(cls, grid: Grid) -> "PotentialSpec":
        return cls(ScalarSampleField.zeros(grid), expressions.Number(0.0))

    @property
    def grid(self) -> Grid:
        return self.sampled.grid


@lru_cache(maxsize=32)
def kinetic_symbol(grid: Grid, method: str, kinetic: float) -> np.ndarray:
    """T = -kinetic * lap on the full spectrum, kinetic = hbar^2/2m: the kinetic
    energy's Fourier symbol, the only place the package forms it. Read-only."""
    t = -kinetic * symbols(grid, method).lap
    t.setflags(write=False)
    return t


def real_l_operator(grid: Grid, v: np.ndarray, params: QuantumParams, method: str):
    """L = -(T + V) as one closure, the package's one L: an apply is one transform
    pair of real or complex samples around ``kinetic_symbol``, on the half or the
    full spectrum, and one pointwise product. Leading batch axes pass through.
    Given ``out``, an array of f's shape and dtype other than f, the closure
    writes L f there and returns it, with the same bytes as a call without it."""
    minus_t = -kinetic_symbol(grid, method, params.kinetic)
    kinetic = {real: fourier_multiplier(grid, minus_t, real) for real in (True, False)}

    def lop(f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.subtract(kinetic[not np.iscomplexobj(f)](f), v * f, out=out)

    return lop


def l_operator_array(
    values: np.ndarray, v: np.ndarray, grid: Grid, params: QuantumParams, method: str
) -> np.ndarray:
    """L f on raw samples (real or complex): one apply of ``real_l_operator``."""
    return real_l_operator(grid, v, params, method)(values)


def hamiltonian_array(
    values: np.ndarray, v: np.ndarray, grid: Grid, params: QuantumParams, method: str
) -> np.ndarray:
    """H f = -L f on raw samples (real or complex): one apply of ``real_l_operator``."""
    return -real_l_operator(grid, v, params, method)(values)


def apply_hamiltonian(
    psi: WaveFunction, V: PotentialSpec, method: str = "spectral"
) -> ComplexSampleField:
    grid = psi.grid
    check_same_grid(grid, V.sampled)
    out = hamiltonian_array(psi.psi.values, V.sampled.values, grid, psi.params, method)
    return ComplexSampleField(grid, out)


def canonical_rhs(
    varphi: ScalarSampleField,
    p: ScalarSampleField,
    V: PotentialSpec,
    params: QuantumParams,
    method: str = "spectral",
) -> tuple[ScalarSampleField, ScalarSampleField]:
    """Time derivatives of (Re Psi, Im Psi) as a canonical Hamiltonian system.

    d(varphi)/dt = -(1/hbar) L p,  dp/dt = +(1/hbar) L varphi. Reassembled as
    a complex field this is exactly (H Psi)/(i hbar).
    """
    grid = varphi.grid
    check_same_grid(grid, p, V.sampled)
    lop = real_l_operator(grid, V.sampled.values, params, method)
    return (
        ScalarSampleField(grid, -lop(p.values) / params.hbar),
        ScalarSampleField(grid, lop(varphi.values) / params.hbar),
    )


def generalized_rhs(
    varphi: ScalarSampleField,
    p: ScalarSampleField,
    V: PotentialSpec,
    params: QuantumParams,
    method: str = "spectral",
) -> tuple[ScalarSampleField, ScalarSampleField]:
    """Same flow generated by the norm functional through the L-kernel bracket.

    The functional derivatives of H' = (1/2 hbar) Int (varphi^2 + p^2) are
    varphi/hbar and p/hbar; the bracket inserts -L between conjugate pairs.
    Must agree with canonical_rhs to roundoff.
    """
    grid = varphi.grid
    check_same_grid(grid, p, V.sampled)
    lop = real_l_operator(grid, V.sampled.values, params, method)
    return (
        ScalarSampleField(grid, -lop(p.values / params.hbar)),
        ScalarSampleField(grid, lop(varphi.values / params.hbar)),
    )


def hamiltonian_canonical(
    varphi: ScalarSampleField,
    p: ScalarSampleField,
    V: PotentialSpec,
    params: QuantumParams,
    method: str = "spectral",
) -> float:
    """Canonical energy functional of the (varphi, p) system.

    (1/2 hbar) Int [ (hbar^2/2m)(|grad varphi|^2 + |grad p|^2) + V (varphi^2 + p^2) ].
    Conserved along the exact flow; nonnegative for V >= 0.
    """
    grid = varphi.grid
    check_same_grid(grid, p, V.sampled)
    grad2 = np.zeros(grid.shape)
    for g in gradient_arrays(varphi.values, grid, method):
        grad2 += g * g
    for g in gradient_arrays(p.values, grid, method):
        grad2 += g * g
    dens = params.kinetic * grad2 + V.sampled.values * (varphi.values**2 + p.values**2)
    return float(dens.sum() * grid.cell_volume / (2.0 * params.hbar))


def norm_functional(psi: WaveFunction) -> float:
    """(1/2 hbar) Int |Psi|^2; the generalized Hamiltonian of the flow."""
    v = psi.psi.values
    return float(np.sum(v.real**2 + v.imag**2) * psi.grid.cell_volume / (2.0 * psi.params.hbar))


@lru_cache(maxsize=32)
def _inverse_cayley_kinetic_symbol(
    grid: Grid, method: str, kin: float, alpha: float, c: float
) -> np.ndarray:
    """1/m for m(k) = 1 + i alpha (T(k) + c), the Fourier symbol of M; T is
    ``kinetic_symbol`` for hbar^2/2m = ``kin``.

    |m| >= 1 for real ``c``, so M^-1 never amplifies.
    """
    inv = 1.0 / (1.0 + 1j * alpha * (kinetic_symbol(grid, method, kin) + c))
    inv.setflags(write=False)
    return inv


def crank_nicolson_step(
    psi: WaveFunction,
    V: PotentialSpec,
    dt: float,
    method: str = "spectral",
) -> WaveFunction:
    """One Cayley step: solve (1 + i dt H / 2 hbar) Psi' = (1 - i dt H / 2 hbar) Psi.

    With alpha = dt / 2 hbar and c the midpoint of V's range, the Cayley matrix
    splits as A = M + i alpha (V - c), where M = 1 + i alpha (T + c) is diagonal
    in Fourier space. CGLS solves the right-preconditioned system
    (A M^-1) y = b and the step returns Psi' = M^-1 y. Since ||M^-1|| <= 1,
    ||A M^-1 - 1|| <= alpha max|V - c|: a few iterations per step while that
    bound is small, and exactly one for constant V. The residual CGLS tracks,
    b - A M^-1 y, is the Cayley residual itself, driven below ``_CAYLEY_TOL``
    relative to ||b||; norm is then conserved to the same tolerance.
    """
    check_dt(dt)
    grid = psi.grid
    check_same_grid(grid, V.sampled)
    params = psi.params
    v = V.sampled.values
    alpha = dt / (2.0 * params.hbar)
    b = psi.psi.values - 1j * alpha * hamiltonian_array(psi.psi.values, v, grid, params, method)

    c = 0.5 * (float(v.max()) + float(v.min()))
    inv = _inverse_cayley_kinetic_symbol(grid, method, params.kinetic, alpha, c)
    apply_m_inv = fourier_multiplier(grid, inv, real=False)
    apply_m_inv_h = fourier_multiplier(grid, inv.conj(), real=False)
    w = 1j * alpha * (v - c)

    def apply_preconditioned(y: np.ndarray) -> np.ndarray:
        return y + w * apply_m_inv(y)

    def apply_preconditioned_adjoint(r: np.ndarray) -> np.ndarray:
        # w is imaginary, so its adjoint is -w
        return r - apply_m_inv_h(w * r)

    try:
        y = normal_equations_cg(
            apply_preconditioned, apply_preconditioned_adjoint, b,
            tol=_CAYLEY_TOL, max_iter=_CAYLEY_MAX_ITER,
        )
    except SolverError as exc:
        raise SolverError(f"Crank-Nicolson solve failed: {exc}") from exc
    return WaveFunction(ComplexSampleField(grid, apply_m_inv(y)), params)


def propagate_cn(
    psi: WaveFunction,
    V: PotentialSpec,
    dt: float,
    steps: int,
    *,
    sink: Callable[[int, WaveFunction], None] | None,
    snapshot_stride: int = 1,
    method: str = "spectral",
    observer: Callable[[np.ndarray, np.ndarray], None] | None = None,
) -> WaveFunction:
    """Cayley steps through ``crank_nicolson_step``; see ``stepping.drive``.

    The observer sees blocks of the raw Psi samples.
    """
    current = psi

    def step(n: int) -> None:
        nonlocal current
        current = crank_nicolson_step(current, V, dt, method)

    observed = lambda: (current.psi.values,)
    return drive(
        stepwise(step, observed), lambda: current, observed, psi,
        steps, snapshot_stride, sink, observer,
    )


@dataclass(frozen=True)
class DenseEigensystem:
    """Full spectrum of the discrete H on a small grid.

    ``vectors[:, n]`` is the n-th eigenvector over flattened samples,
    orthonormal in the plain dot product; eigenvalues ascend.
    """

    grid: Grid
    energies: np.ndarray
    vectors: np.ndarray
    params: QuantumParams

    def eigenfield(self, n: int) -> ScalarSampleField:
        vec = self.vectors[:, n] / np.sqrt(self.grid.cell_volume)
        return ScalarSampleField(self.grid, vec.reshape(self.grid.shape))


def dense_hamiltonian(V: PotentialSpec, params: QuantumParams, method: str = "spectral") -> np.ndarray:
    """Materialize H as a dense symmetric matrix (grids up to 4096 points).

    H is -L for the L of ``real_l_operator``, the closure phi-Verlet steps:
    the closure is applied to real unit vectors a block of rows at a time,
    and the result symmetrised and negated.
    """
    grid = V.grid
    m = grid.size
    if m > DENSE_GRID_LIMIT:
        raise ValueError(f"grid too large for dense methods ({m} > {DENSE_GRID_LIMIT} points)")
    lop = real_l_operator(grid, V.sampled.values, params, method)
    mat = np.empty((m, m))
    chunk = max(1, min(m, (1 << 22) // m))
    eye = np.eye(m)
    for start in range(0, m, chunk):
        rows = slice(start, start + chunk)
        lop(eye[rows].reshape((-1,) + grid.shape), out=mat[rows].reshape((-1,) + grid.shape))
    # rows hold L applied to basis vectors; symmetrize away roundoff skew
    return -0.5 * (mat + mat.T)


def dense_eigensystem(
    V: PotentialSpec, params: QuantumParams, method: str = "spectral"
) -> DenseEigensystem:
    """Every eigenpair of ``dense_hamiltonian``, each vector signed by one fixed rule.

    The solver is numpy's ``eigh`` (LAPACK ``syevd``, divide and conquer), so
    stationary initial data import nothing beyond numpy. It runs on one BLAS
    thread, so the bytes of stationary data and of modal phi-Verlet do not
    depend on the thread count.
    """
    mat = dense_hamiltonian(V, params, method)
    with one_blas_thread():
        energies, vectors = np.linalg.eigh(mat)
    # deterministic sign: the largest-magnitude entry is positive. Entries within
    # _SIGN_TIE of the maximum tie, and the tie goes to the lowest flat index, so
    # odd and mirror-symmetric states are not signed by roundoff.
    mag = np.abs(vectors)
    lead = np.argmax(mag >= (1.0 - _SIGN_TIE) * mag.max(axis=0), axis=0)
    np.negative(vectors, out=vectors, where=vectors[lead, np.arange(lead.size)] < 0)
    return DenseEigensystem(V.grid, energies, vectors, params)


def exact_propagate_small(
    psi: WaveFunction,
    V: PotentialSpec,
    t: float,
    method: str = "spectral",
    *,
    eig: DenseEigensystem | None = None,
) -> WaveFunction:
    """Propagate through the full discrete spectrum: machine-precision oracle.

    Psi(t) = sum_n <psi_n|Psi(0)> exp(-i E_n t / hbar) psi_n. Pass a
    precomputed ``eig`` to amortize the diagonalization over many times.
    """
    grid = psi.grid
    check_same_grid(grid, V.sampled)
    system = eig if eig is not None else dense_eigensystem(V, psi.params, method)
    flat = psi.psi.values.ravel()
    coeffs = system.vectors.T @ flat
    phases = np.exp(-1j * system.energies * (t / psi.params.hbar))
    out = system.vectors @ (phases * coeffs)
    return WaveFunction(ComplexSampleField(grid, out.reshape(grid.shape)), psi.params)


def max_energy_bound(V: PotentialSpec, params: QuantumParams, method: str = "spectral") -> float:
    """Upper bound on |spec(H)|: kinetic spectral radius plus potential range."""
    v = V.sampled.values
    kin = params.kinetic * laplacian_spectral_radius(V.grid, method)
    return float(kin + max(0.0, float(v.max())) - min(0.0, float(v.min())))
