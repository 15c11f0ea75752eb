"""Iterative solvers used by the Cayley propagator and the elliptic solve.

The two linear solvers work on raw ndarrays of any shape, track the true
relative residual of the original system, and raise SolverError when the
iteration cap is hit. A right-preconditioned system A M^-1 y = b, x = M^-1 y,
has the same residual as A x = b, so CGLS on it keeps that meaning.
CG's ``project`` removes a known invariant subspace of the operator (applied
to the data and to every search update), so the solution has no component in
it: the elliptic solve projects out the kernel and the negative spectrum.

``lowest_eigenpairs`` is the block eigensolver LOBPCG (Knyazev, SIAM J. Sci.
Comput. 23, 517 (2001)) for a real symmetric operator, on a block of such
arrays stacked along a leading axis. It raises nothing when it stops short:
it returns its last Ritz pairs, and the caller judges them by their residuals.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import SolverError

__all__ = ["conjugate_gradient", "normal_equations_cg", "lowest_eigenpairs"]

Op = Callable[[np.ndarray], np.ndarray]


def conjugate_gradient(
    apply_op: Op,
    rhs: np.ndarray,
    *,
    tol: float,
    max_iter: int,
    precondition: Op | None = None,
    project: Op = lambda x: x,
) -> np.ndarray:
    """Preconditioned CG for a Hermitian operator, positive definite off ``project``'s subspace."""
    b = project(rhs)
    b_norm = float(np.linalg.norm(b.ravel()))
    if b_norm == 0.0:
        return np.zeros_like(b)
    x = np.zeros_like(b)
    r = project(b - apply_op(x))
    p = None
    rz_old = 0.0
    for it in range(max_iter):
        if np.linalg.norm(r.ravel()) <= tol * b_norm:
            true_r = project(b - apply_op(x))
            if np.linalg.norm(true_r.ravel()) <= tol * b_norm:
                return x
            r = true_r
        z = project(precondition(r) if precondition else r)
        rz = np.vdot(r, z)
        p = z if p is None else z + (rz / rz_old) * p
        rz_old = rz
        ap = project(apply_op(p))
        pap = np.vdot(p, ap)
        if not (np.isfinite(pap) and pap.real > 0.0):
            # a singular operator meets a right-hand side outside its range
            raise SolverError(
                f"conjugate gradient broke down at iteration {it}: p^H A p = {pap:.3e} "
                "is not positive (singular operator or incompatible right-hand side)"
            )
        alpha = rz / pap
        x = x + alpha * p
        r = r - alpha * ap
    if np.linalg.norm(r.ravel()) <= tol * b_norm:
        return x
    raise SolverError(
        f"conjugate gradient did not reach tol={tol:g} in {max_iter} iterations "
        f"(residual {np.linalg.norm((b - apply_op(x)).ravel()) / b_norm:.3e})"
    )


def normal_equations_cg(
    apply_op: Op,
    apply_adjoint: Op,
    rhs: np.ndarray,
    *,
    tol: float,
    max_iter: int,
) -> np.ndarray:
    """CGLS: conjugate gradient on A^H A x = A^H b, tracking ||b - Ax||.

    Works for any operator with an adjoint (indefinite or non-Hermitian);
    used for the Cayley step, whose matrix right-preconditioned by its
    kinetic part is close to the identity but not Hermitian.
    """
    b_norm = float(np.linalg.norm(rhs.ravel()))
    if b_norm == 0.0:
        return np.zeros_like(rhs)
    x = np.zeros_like(rhs)
    r = rhs.copy()
    s = apply_adjoint(r)
    p = s.copy()
    s_norm2 = float(np.real(np.vdot(s, s)))
    for _ in range(max_iter):
        if np.linalg.norm(r.ravel()) <= tol * b_norm:
            return x
        ap = apply_op(p)
        alpha = s_norm2 / float(np.real(np.vdot(ap, ap)))
        x = x + alpha * p
        r = r - alpha * ap
        s = apply_adjoint(r)
        s_norm2_new = float(np.real(np.vdot(s, s)))
        beta = s_norm2_new / s_norm2
        s_norm2 = s_norm2_new
        p = s + beta * p
    if np.linalg.norm(r.ravel()) <= tol * b_norm:
        return x
    raise SolverError(
        f"normal-equations CG did not reach tol={tol:g} in {max_iter} iterations "
        f"(residual {np.linalg.norm(r.ravel()) / b_norm:.3e})"
    )


def lowest_eigenpairs(
    apply_op: Op,
    start: np.ndarray,
    *,
    tol: float,
    max_iter: int,
    precondition: Op | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The k lowest eigenpairs of a real symmetric operator A, eigenvalues ascending.

    ``start`` stacks k real vectors along its leading axis; ``apply_op`` and
    ``precondition`` map such a stack of any height to one of the same shape.
    The vectors come back stacked the same way, orthonormal in the plain dot
    product. Each LOBPCG iteration runs Rayleigh-Ritz on an orthonormal basis
    of [X, T R, P]: the Ritz vectors X, the preconditioned residuals T R of
    the pairs not yet converged, and the last update directions P of those
    pairs. Householder QR builds that basis, so a direction that is nearly
    dependent on the others cannot break the step. The iteration stops once
    every residual ||A x - theta x|| is at most ``tol``, or after ``max_iter``
    iterations, returning the last Ritz pairs either way. When 3k reaches the
    vector length m the basis would not fit: A is applied to the identity and
    diagonalised densely.
    """
    k, shape = start.shape[0], start.shape[1:]
    m = start[0].size

    # the Rayleigh-Ritz algebra keeps vectors as the columns of an (m, n) matrix
    def stacked(vectors: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(vectors.T).reshape((-1,) + shape)

    def columns(op: Op, vectors: np.ndarray) -> np.ndarray:
        return op(stacked(vectors)).reshape(-1, m).T

    if 3 * k >= m:
        a = apply_op(np.eye(m).reshape((m,) + shape)).reshape(m, m)
        energies, vectors = np.linalg.eigh(0.5 * (a + a.T))
        return energies[:k], stacked(vectors[:, :k])

    basis = np.linalg.qr(start.reshape(k, m).T)[0]
    p = None
    for it in range(max_iter + 1):
        a_basis = columns(apply_op, basis)
        gram = basis.T @ a_basis
        ritz, coeffs = np.linalg.eigh(0.5 * (gram + gram.T))
        energies, coeffs = ritz[:k], coeffs[:, :k]
        x, residual = basis @ coeffs, a_basis @ coeffs
        residual -= x * energies
        if it:
            # the part of each new Ritz vector outside the span of the old ones
            p = basis[:, k:] @ coeffs[k:]
        active = np.linalg.norm(residual, axis=0) > tol
        if it == max_iter or not active.any():
            return energies, stacked(x)
        residual = residual[:, active]
        t_r = columns(precondition, residual) if precondition else residual
        basis = np.linalg.qr(np.hstack([x, t_r] + ([] if p is None else [p[:, active]])))[0]
