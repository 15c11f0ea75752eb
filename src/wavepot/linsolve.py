"""Iterative linear solvers used by the Cayley propagator and elliptic solves.

Both solvers work on raw ndarrays of any shape, track the true relative
residual of the original system, and raise SolverError when the iteration cap
is hit. A right-preconditioned system A M^-1 y = b, x = M^-1 y, has the same
residual as A x = b, so CGLS on it keeps that meaning. ``project`` removes
known null-space components (applied to the data and to every search update)
so solutions are minimum-norm in that subspace.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import SolverError

__all__ = ["conjugate_gradient", "normal_equations_cg"]

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
