"""Inverse maps: recover the potentials from recorded field trajectories.

Quantum side: given a wave-function trajectory, the potential is

    phi(t) = (1/hbar) Int_0^t Im Psi dtau + C,   L C = -Re Psi(0),

with the elliptic solve pinned to the minimum-norm solution (zero along any
numerical kernel of L, which is exactly the gauge sector). The kernel and the
negative spectrum of H = -L are found matrix-free on every grid, by LOBPCG
through the FFT operator; a search that does not converge raises SolverError
rather than assuming the kernel trivial. The negative pairs are inverted
directly and CG solves on the rest, so every potential takes one path.
Electromagnetic side: given an (E, B) trajectory,

    A(t) = -c Int_0^t E dtau + K,   curl K = B(0),

with K made unique by the divergence-free, zero-mean choice. Both maps stream:
one running composite-trapezoid sum, in time order, matches the second-order
accuracy of the recording propagators; a Crank-Nicolson record round-trips
through the quantum map exactly up to the elliptic residual because the
Cayley update *is* the trapezoid relation between the two parts.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

import numpy as np

from .errors import IncompatibleRhsError, SolverError
from .grids import ComplexSampleField, Grid, ScalarSampleField, VectorSampleField3, check_same_grid
from .linsolve import conjugate_gradient, lowest_eigenpairs
from .maxwell import EMState, PotentialState
from .operators import (
    DEAD_MODE_TOL,
    Symbols,
    _curl_modes,
    divergence_array,
    fourier_apply,
    fourier_multiplier,
    live_quotient,
    max_wavenumber,
    symbols,
)
from .schrodinger import (
    PotentialSpec,
    QuantumParams,
    hamiltonian_array,
    l_operator_array,
    max_energy_bound,
)
from .stepping import one_blas_thread
from .wavepotential import PhiState

__all__ = [
    "solve_elliptic",
    "reconstruct_phi",
    "curl_inverse",
    "reconstruct_vector_potential",
]


def _interval_widths(times) -> np.ndarray:
    """The widths of a record's time intervals, checked.

    A record starts at t = 0 with at least two uniformly spaced samples. Its
    last interval may be shorter than the rest: a run whose step count is not
    a multiple of its stride records its final step off the uniform grid.
    """
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or times.size < 2:
        raise ValueError("a trajectory needs at least two samples")
    if abs(times[0]) > 1e-12 * max(times[-1], 1.0):
        raise ValueError("trajectory must start at t = 0")
    dts = np.diff(times)
    if np.any(dts <= 0):
        raise ValueError("times must ascend")
    dt = dts[0]
    uniform = dts[:-1] if dts[-1] < dt else dts
    if np.max(np.abs(uniform - dt)) > 1e-12 * dt:
        raise ValueError("trajectory samples must be uniformly spaced")
    widths = np.full(dts.size, dt)
    if abs(dts[-1] - dt) > 1e-12 * dt:
        widths[-1] = dts[-1]
    return widths


def _running_trapezoid(
    widths: np.ndarray, samples: Iterable[np.ndarray]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each sample f_n with its composite-trapezoid integral from t_0 to t_n.

    One sample per time, one more than ``widths``. The sum runs in time
    order, so it has the bits of an ``np.cumsum`` of the interval increments.
    """
    samples = iter(samples)
    prev = next(samples)
    total = np.zeros_like(prev)
    yield prev, total
    for n, (width, sample) in enumerate(zip(widths, samples, strict=True)):
        increment = 0.5 * width * (sample + prev)
        # the first increment stands alone, as cumsum's first entry does: 0.0 + -0.0 is 0.0
        total = increment if n == 0 else total + increment
        yield sample, total
        prev = sample


def _first(frames: Iterable, kind: type, name: str) -> tuple:
    """The first of ``frames``, which must be a ``kind``, and all frames again."""
    frames = iter(frames)
    first = next(frames, None)
    if not isinstance(first, kind):
        raise TypeError(f"{name} needs a trajectory of {kind.__name__} frames")
    return first, itertools.chain([first], frames)


# Relative residual of the elliptic solve L C = -Re Psi(0). The round-trip
# error it adds to every frame is of that order, far below the 1e-5 that the
# reverse-equivalence criterion allows. The iteration cap only stops a solve
# that has stalled. A solve that misses the tolerance is repeated on its
# residual, up to _ELLIPTIC_PASSES solves: the negative eigenpairs it inverts
# directly are exact only to the kernel search's residual tolerance.
_ELLIPTIC_TOL = 1e-10
_ELLIPTIC_MAX_ITER = 20000
_ELLIPTIC_PASSES = 3
# The numerical kernel of L: eigenvectors of H with |E| <= _KERNEL_ZERO_TOL *
# emax, emax the spectral bound of H. A right-hand side may carry at most that
# fraction of its norm along the kernel.
_KERNEL_ZERO_TOL = 1e-10
# Largest max |div B| curl_inverse accepts, relative to max |B| k_max.
_SOLENOIDAL_TOL = 1e-10

# LOBPCG settings for the kernel search. An eigenpair counts as converged when
# its residual is at most _KERNEL_RESIDUAL_TOL * emax: a hundredth of the
# kernel threshold _KERNEL_ZERO_TOL * emax.
_KERNEL_BLOCK_START = 3
_KERNEL_BLOCK_CAP = 64
_KERNEL_MAX_ITER = 500
_KERNEL_RESIDUAL_TOL = 1e-12


def _fourier_preconditioner(grid: Grid, v: np.ndarray, params: QuantumParams, method: str):
    """Inverse of the symbol -kin Lap + mean V - min(0, min V): the kinetic part of H
    plus the mean potential, shifted up by the depth of V below zero.

    The shift is never negative, and for V >= 0 it is mean V itself; for a
    deep well such as -20 cos x it keeps the symbol away from the near-zero
    kinetic one that |mean V| would give. Positive definite for every V, so it
    serves both CG on H and LOBPCG. Takes real arrays; a leading batch axis
    passes through.
    """
    shift = float(v.mean()) - min(0.0, float(v.min()))
    sym = -params.kinetic * symbols(grid, method).lap + shift
    return fourier_multiplier(grid, 1.0 / np.where(np.abs(sym) < 1e-14, 1.0, sym), real=True)


def _kernel_basis(
    V: PotentialSpec, params: QuantumParams, method: str, zero_tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Every eigenpair of H = -L with E <= zero_tol * emax: the energies,
    ascending, and the eigenvectors as the rows of a ``(k, grid.size)`` array
    over the flattened grid, orthonormal in the plain dot product.

    emax is ``max_energy_bound``. The pairs with |E| <= zero_tol * emax span
    the numerical kernel of L; those below -zero_tol * emax are the negative
    spectrum of an indefinite H. ``linsolve.lowest_eigenpairs`` (LOBPCG,
    Knyazev 2001) finds the lowest eigenpairs of H matrix-free, through
    ``hamiltonian_array`` on whole blocks and the Fourier preconditioner of
    ``solve_elliptic``, from a fixed pseudo-random start block, on one BLAS
    thread (``stepping.one_blas_thread``). The block
    doubles until the eigenpairs that converged, counted from the lowest up,
    reach one above the threshold: that shows every eigenvalue at or below it
    was found. A search that gets there only with more than
    ``_KERNEL_BLOCK_CAP`` vectors raises SolverError; it never assumes the
    kernel away.
    """
    grid = V.grid
    m = grid.size
    v = V.sampled.values
    emax = max_energy_bound(V, params, method)
    threshold = zero_tol * emax
    res_tol = _KERNEL_RESIDUAL_TOL * emax

    def h(f: np.ndarray) -> np.ndarray:
        return hamiltonian_array(f, v, grid, params, method)

    preconditioner = _fourier_preconditioner(grid, v, params, method)
    block = min(_KERNEL_BLOCK_START, m)
    while True:
        start = np.random.default_rng(0).standard_normal((m, block))
        with one_blas_thread():
            energies, vectors = lowest_eigenpairs(
                h, start.T.reshape((block,) + grid.shape),
                tol=0.1 * res_tol, max_iter=_KERNEL_MAX_ITER, precondition=preconditioner,
            )
        flat = vectors.reshape(block, m)
        residual = np.linalg.norm(h(vectors).reshape(block, m) - energies[:, None] * flat, axis=1)
        # energies ascend; count the converged eigenpairs from the bottom up, as a
        # cluster of close eigenvalues straddling the top edge of the block converges slowly
        converged = residual <= res_tol
        found = block if converged.all() else int(np.argmin(converged))
        if found == m or (found and energies[found - 1] > threshold):
            break
        if block >= min(_KERNEL_BLOCK_CAP, m):
            raise SolverError(
                f"kernel search of L stopped at its cap of {block} eigenpairs: {found} "
                f"converged within {_KERNEL_MAX_ITER} iterations (residual tolerance "
                f"{_KERNEL_RESIDUAL_TOL:g} of the spectral bound) and none lies above "
                f"the zero threshold {threshold:.3e}, so the kernel may be larger"
            )
        block = min(2 * block, _KERNEL_BLOCK_CAP, m)
    low = energies[:found] <= threshold
    return energies[:found][low], flat[:found][low]


def solve_elliptic(
    V: PotentialSpec,
    rhs: ScalarSampleField,
    params: QuantumParams,
    method: str = "spectral",
) -> ScalarSampleField:
    """Solve L C = rhs for the minimum-norm C, L = (hbar^2/2m) Lap - V.

    The right-hand side must be orthogonal to the numerical kernel of L
    (relative tolerance ``_KERNEL_ZERO_TOL``), else IncompatibleRhsError; the
    returned solution carries no kernel component. ``_kernel_basis`` finds the
    kernel and the negative eigenpairs of H = -L without forming a matrix.
    Preconditioned CG runs on H with both projected out, where H is positive
    definite, and the negative pairs are inverted directly (deflation, Frank &
    Vuik, SIAM J. Sci. Comput. 23, 442 (2001)). A solve whose true relative
    residual misses ``_ELLIPTIC_TOL`` is repeated on its residual, up to
    ``_ELLIPTIC_PASSES`` solves, then raises SolverError.
    """
    grid = V.grid
    check_same_grid(grid, rhs)
    v = V.sampled.values
    energies, low = _kernel_basis(V, params, method, _KERNEL_ZERO_TOL)
    negative = energies < -_KERNEL_ZERO_TOL * max_energy_bound(V, params, method)
    u, u_energies = low[negative], energies[negative]

    flat_rhs = rhs.values.ravel()
    rhs_norm = float(np.linalg.norm(flat_rhs))
    if rhs_norm == 0.0:
        return ScalarSampleField.zeros(grid)
    overlap = float(np.max(np.abs(low[~negative] @ flat_rhs), initial=0.0))
    if overlap > _KERNEL_ZERO_TOL * rhs_norm:
        raise IncompatibleRhsError(
            "incompatible right-hand side: component along a zero mode of L "
            f"has relative magnitude {overlap / rhs_norm:.3e} (tolerance {_KERNEL_ZERO_TOL:g})"
        )

    def project(x: np.ndarray) -> np.ndarray:
        return x - (low.T @ (low @ x.ravel())).reshape(x.shape)

    def apply_h(x: np.ndarray) -> np.ndarray:
        return hamiltonian_array(x, v, grid, params, method)

    preconditioner = _fourier_preconditioner(grid, v, params, method)

    def solve(b: np.ndarray) -> np.ndarray:
        x = project(conjugate_gradient(
            apply_h, b, tol=0.5 * _ELLIPTIC_TOL, max_iter=_ELLIPTIC_MAX_ITER,
            precondition=preconditioner, project=project,
        ))
        # add nothing when no pair is negative (any V >= 0): zeros would turn -0.0 into 0.0
        return x + (u.T @ ((u @ b.ravel()) / u_energies)).reshape(x.shape) if len(u) else x

    sol = solve(-rhs.values)  # H C = -rhs
    for passes in range(1, _ELLIPTIC_PASSES + 1):
        # L sol - rhs = -rhs - H sol is also the residual of H C = -rhs
        residual = l_operator_array(sol, v, grid, params, method) - rhs.values
        rel = float(np.linalg.norm(residual.ravel())) / rhs_norm
        if rel <= _ELLIPTIC_TOL:
            return ScalarSampleField(grid, sol)
        if passes < _ELLIPTIC_PASSES:
            sol = sol + solve(residual)
    raise SolverError(f"elliptic solve residual {rel:.3e} exceeds tolerance {_ELLIPTIC_TOL:g} "
                      f"after {_ELLIPTIC_PASSES} solves")


def reconstruct_phi(
    times,
    psis: Iterable[ComplexSampleField],
    V: PotentialSpec,
    params: QuantumParams,
    method: str = "spectral",
) -> Iterator[PhiState]:
    """The wave-potential trajectory equivalent to a recorded Psi trajectory, frame by frame.

    phi(t_n) integrates Im Psi / hbar by running trapezoid from t = 0; the
    integration constant solves L C = -Re Psi(0). phi_dot(t_n) is
    Im Psi(t_n) / hbar pointwise. The times are checked and C is solved here;
    the states come one at a time as ``psis`` is read.
    """
    widths = _interval_widths(times)
    first, psis = _first(psis, ComplexSampleField, "reconstruct_phi")
    grid = first.grid
    check_same_grid(grid, V)
    c0 = solve_elliptic(V, ScalarSampleField(grid, -first.values.real), params, method)
    hbar = params.hbar
    return (
        PhiState(
            ScalarSampleField(grid, integral / hbar + c0.values),
            ScalarSampleField(grid, p / hbar),
            params,
            V,
        )
        for p, integral in _running_trapezoid(widths, (psi.values.imag for psi in psis))
    )


def curl_inverse(b0: VectorSampleField3, method: str = "spectral") -> VectorSampleField3:
    """The unique K with curl K = b0, div K = 0, zero mean.

    b0 must be solenoidal (to ``_SOLENOIDAL_TOL``) and mean-free: a uniform
    magnetic field has no periodic potential. Inverted mode-by-mode with the
    backend's derivative symbols, so the residual of curl K - b0 sits at
    roundoff. Content of b0 above ``DEAD_MODE_TOL`` on the mean or the other
    modes where every derivative symbol vanishes (Nyquist combinations) has no
    preimage: ValueError.
    """
    grid = b0.grid
    vals = b0.values
    scale = float(np.max(np.abs(vals)))
    if scale == 0.0:
        return VectorSampleField3.zeros(grid)

    mean = np.abs(vals.reshape(3, -1).mean(axis=1))
    if float(mean.max()) > DEAD_MODE_TOL * scale:
        raise ValueError(
            f"mean magnetic field {mean.max():.3e} has no periodic vector potential "
            f"(tolerance {DEAD_MODE_TOL * scale:.3e})"
        )
    div = divergence_array(vals, grid, method)
    div_scale = scale * max_wavenumber(grid)
    if float(np.max(np.abs(div))) > _SOLENOIDAL_TOL * div_scale:
        raise ValueError(
            f"magnetic field is not solenoidal: max |div B| = {np.max(np.abs(div)):.3e} "
            f"(tolerance {_SOLENOIDAL_TOL * div_scale:.3e})"
        )

    def modewise(hat: np.ndarray, sym: Symbols) -> np.ndarray:
        # K_hat = i s x B_hat / |s|^2, |s|^2 = -div_grad; B content where s = 0 is unreachable
        return _curl_modes(live_quotient(hat, -sym.div_grad, "magnetic field"), sym)

    return VectorSampleField3(grid, fourier_apply(vals, grid, method, modewise))


def reconstruct_vector_potential(
    times, fields: Iterable[EMState], method: str = "spectral"
) -> Iterator[PotentialState]:
    """The potential trajectory equivalent to a recorded (E, B) trajectory, frame by frame.

    A(t_n) = -c * running trapezoid of E plus the curl inverse of B(0); dA/dt
    is -c E(t_n) pointwise, so the electric field round-trips exactly. The
    times are checked and the curl inverse taken here; the states come one at
    a time as ``fields`` is read.
    """
    widths = _interval_widths(times)
    first, fields = _first(fields, EMState, "reconstruct_vector_potential")
    grid, c = first.grid, first.c
    k0 = curl_inverse(first.b, method)
    return (
        PotentialState(
            VectorSampleField3(grid, -c * integral + k0.values), VectorSampleField3(grid, -c * e), c
        )
        for e, integral in _running_trapezoid(widths, (st.e.values for st in fields))
    )
