"""Iterative solvers used by the Cayley propagator and the elliptic solve.

The two linear solvers work on raw ndarrays of any shape, track the true
relative residual of the original system, and raise SolverError when the
iteration cap is hit. A right-preconditioned system A M^-1 y = b, x = M^-1 y,
has the same residual as A x = b, so CGLS on it keeps that meaning.
``project`` removes known null-space components (applied to the data and to
every search update) so solutions are minimum-norm in that subspace.

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


def _dot(a: np.ndarray, b: np.ndarray) -> float | complex:
    return np.vdot(a, b)


def conjugate_gradient(
    apply_op: Op,
    rhs: np.ndarray,
    *,
    tol: float,
    max_iter: int,
    precondition: Op | None = None,
    project: Op | None = None,
) -> np.ndarray:
    """Preconditioned CG for a Hermitian positive (semi)definite operator."""
    b = project(rhs) if project else rhs
    b_norm = float(np.linalg.norm(b.ravel()))
    if b_norm == 0.0:
        return np.zeros_like(b)
    x = np.zeros_like(b)
    r = b - apply_op(x)
    if project:
        r = project(r)
    p = None
    rz_old = 0.0
    for it in range(max_iter):
        if np.linalg.norm(r.ravel()) <= tol * b_norm:
            true_r = b - apply_op(x)
            if project:
                true_r = project(true_r)
            if np.linalg.norm(true_r.ravel()) <= tol * b_norm:
                return x
            r = true_r
        z = precondition(r) if precondition else r
        if project:
            z = project(z)
        rz = _dot(r, z)
        p = z if p is None else z + (rz / rz_old) * p
        rz_old = rz
        ap = apply_op(p)
        if project:
            ap = project(ap)
        pap = _dot(p, ap)
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
    project: Op | None = None,
) -> np.ndarray:
    """CGLS: conjugate gradient on A^H A x = A^H b, tracking ||b - Ax||.

    Works for any operator with an adjoint (indefinite or non-Hermitian);
    used for the Cayley step (the Cayley matrix right-preconditioned by its
    kinetic part, close to the identity) and as the fallback elliptic path
    when the operator is indefinite.
    """
    b = project(rhs) if project else rhs
    b_norm = float(np.linalg.norm(b.ravel()))
    if b_norm == 0.0:
        return np.zeros_like(b)
    x = np.zeros_like(b)
    r = b.copy()
    s = apply_adjoint(r)
    if project:
        s = project(s)
    p = s.copy()
    s_norm2 = float(np.real(_dot(s, s)))
    for _ in range(max_iter):
        if np.linalg.norm(r.ravel()) <= tol * b_norm:
            return x
        ap = apply_op(p)
        alpha = s_norm2 / float(np.real(_dot(ap, ap)))
        x = x + alpha * p
        r = r - alpha * ap
        s = apply_adjoint(r)
        if project:
            s = project(s)
        s_norm2_new = float(np.real(_dot(s, s)))
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
