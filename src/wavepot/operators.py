"""Discrete differential operators on periodic grids.

Two interchangeable backends:

``spectral``
    Fourier multipliers. First derivatives zero the Nyquist mode so real
    fields stay real; the Laplacian keeps the full -k^2 multiplier including
    Nyquist (its spectral radius is sum_a (pi/dx_a)^2, which the integrator
    stability bounds rely on). Consequence: div(grad f) differs from
    laplacian(f) in the Nyquist modes only.

``central2``
    Second-order central differences. The Laplacian is the composition of
    first-derivative stencils per axis, (f_{+2} - 2f + f_{-2})/(4 dx^2),
    rather than the compact 3-point stencil. Composition consistency is what
    makes the vector-calculus identities (curl curl = grad div - laplacian,
    div curl = 0, curl grad = 0) hold to roundoff instead of to O(dx^2).

Array-level functions (``*_array``) accept raw ndarrays, real or complex, and
are the hot paths; field-level wrappers validate and box results.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import GridMismatchError
from .grids import Grid, ScalarSampleField, VectorSampleField3

__all__ = [
    "METHODS",
    "laplacian",
    "gradient",
    "divergence",
    "curl",
    "curl_curl_identity_residual",
    "laplacian_array",
    "first_derivative_array",
    "gradient_arrays",
    "laplacian_spectral_radius",
    "max_wavenumber",
    "inverse_div_grad",
    "solenoidal_projection",
]

METHODS = ("spectral", "central2")


def _check_method(method: str) -> str:
    if method not in METHODS:
        raise ValueError(f"unknown operator backend {method!r}; expected one of {METHODS}")
    return method


@lru_cache(maxsize=None)
def _deriv_symbols(grid: Grid, method: str) -> tuple[np.ndarray, ...]:
    """Imaginary part s_a of each axis derivative symbol i*s_a, shaped for broadcasting."""
    out = []
    for axis, (n, dx) in enumerate(zip(grid.points, grid.spacings)):
        k = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
        if method == "spectral":
            s = k.copy()
            s[n // 2] = 0.0  # Nyquist derivative set to zero; keeps real fields real
        else:
            s = np.sin(k * dx) / dx
        shape = [1] * grid.dims
        shape[axis] = n
        out.append(s.reshape(shape))
    return tuple(out)


@lru_cache(maxsize=None)
def _laplacian_symbol(grid: Grid, method: str) -> np.ndarray:
    sym = np.zeros(grid.shape)
    for axis, (n, dx) in enumerate(zip(grid.points, grid.spacings)):
        k = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
        if method == "spectral":
            m = -(k**2)
        else:
            m = -((np.sin(k * dx) / dx) ** 2)
        shape = [1] * grid.dims
        shape[axis] = n
        sym = sym + m.reshape(shape)
    return sym


@lru_cache(maxsize=None)
def _deriv_symbols_half(grid: Grid, method: str) -> tuple[np.ndarray, ...]:
    """Derivative symbols sliced to the rfftn half-spectrum on the last axis."""
    full = _deriv_symbols(grid, method)
    half = grid.points[-1] // 2 + 1
    out = []
    for axis, s in enumerate(full):
        if axis == grid.dims - 1:
            s = np.ascontiguousarray(s[..., :half])
        out.append(s)
    return tuple(out)


@lru_cache(maxsize=None)
def _laplacian_symbol_half(grid: Grid, method: str) -> np.ndarray:
    half = grid.points[-1] // 2 + 1
    return np.ascontiguousarray(_laplacian_symbol(grid, method)[..., :half])


def laplacian_spectral_radius(grid: Grid, method: str = "spectral") -> float:
    """Largest |eigenvalue| of the discrete Laplacian."""
    _check_method(method)
    if method == "spectral":
        return float(sum((np.pi / dx) ** 2 for dx in grid.spacings))
    return float(sum(1.0 / dx**2 for dx in grid.spacings))


def max_wavenumber(grid: Grid) -> float:
    """Magnitude of the largest representable wavenumber vector, |(pi/dx_a)|."""
    return float(np.sqrt(sum((np.pi / dx) ** 2 for dx in grid.spacings)))


def _spatial_axes(values: np.ndarray, grid: Grid) -> tuple[int, ...]:
    # trailing axes are spatial; leading axes (if any) are batch/component
    return tuple(range(values.ndim - grid.dims, values.ndim))


def laplacian_array(values: np.ndarray, grid: Grid, method: str = "spectral") -> np.ndarray:
    _check_method(method)
    if method == "spectral":
        axes = _spatial_axes(values, grid)
        hat = np.fft.fftn(values, axes=axes)
        hat *= _laplacian_symbol(grid, method)
        out = np.fft.ifftn(hat, axes=axes)
        return out.real if not np.iscomplexobj(values) else out
    out = np.zeros_like(values)
    offset = values.ndim - grid.dims
    for axis, dx in enumerate(grid.spacings):
        a = axis + offset
        out += (np.roll(values, -2, axis=a) - 2.0 * values + np.roll(values, 2, axis=a)) / (
            4.0 * dx * dx
        )
    return out


def first_derivative_array(
    values: np.ndarray, grid: Grid, axis: int, method: str = "spectral"
) -> np.ndarray:
    _check_method(method)
    offset = values.ndim - grid.dims
    if method == "central2":
        dx = grid.spacings[axis]
        a = axis + offset
        return (np.roll(values, -1, axis=a) - np.roll(values, 1, axis=a)) / (2.0 * dx)
    axes = _spatial_axes(values, grid)
    hat = np.fft.fftn(values, axes=axes)
    hat *= 1j * _deriv_symbols(grid, "spectral")[axis]
    out = np.fft.ifftn(hat, axes=axes)
    return out.real if not np.iscomplexobj(values) else out


def gradient_arrays(values: np.ndarray, grid: Grid, method: str = "spectral") -> list[np.ndarray]:
    """Per-axis first derivatives; valid in any dimension."""
    return [first_derivative_array(values, grid, a, method) for a in range(grid.dims)]


def laplacian(f: ScalarSampleField, method: str = "spectral") -> ScalarSampleField:
    """Discrete Laplacian of a scalar field."""
    return ScalarSampleField(f.grid, laplacian_array(f.values, f.grid, method))


def gradient(f: ScalarSampleField, method: str = "spectral") -> VectorSampleField3:
    """Gradient of a scalar field on a 3D grid."""
    if f.grid.dims != 3:
        raise GridMismatchError("gradient as a vector field requires a 3D grid")
    return VectorSampleField3(
        f.grid, np.stack(gradient_arrays(f.values, f.grid, method))
    )


def divergence(v: VectorSampleField3, method: str = "spectral") -> ScalarSampleField:
    out = sum(
        first_derivative_array(v.values[a], v.grid, a, method) for a in range(3)
    )
    return ScalarSampleField(v.grid, out)


def _curl_arrays(values: np.ndarray, grid: Grid, method: str) -> np.ndarray:
    if method == "spectral" and not np.iscomplexobj(values):
        axes = (1, 2, 3)
        s = _deriv_symbols_half(grid, method)
        hat = np.fft.rfftn(values, axes=axes)
        out_hat = np.empty_like(hat)
        out_hat[0] = s[1] * hat[2] - s[2] * hat[1]
        out_hat[1] = s[2] * hat[0] - s[0] * hat[2]
        out_hat[2] = s[0] * hat[1] - s[1] * hat[0]
        out_hat *= 1j
        return np.fft.irfftn(out_hat, s=grid.shape, axes=axes)
    d = lambda comp, axis: first_derivative_array(values[comp], grid, axis, method)
    return np.stack(
        [
            d(2, 1) - d(1, 2),
            d(0, 2) - d(2, 0),
            d(1, 0) - d(0, 1),
        ]
    )


def curl(v: VectorSampleField3, method: str = "spectral") -> VectorSampleField3:
    return VectorSampleField3(v.grid, _curl_arrays(v.values, v.grid, method))


def curl_curl_identity_residual(v: VectorSampleField3, method: str = "spectral") -> float:
    """Max-norm of curl(curl v) - (-laplacian(v) + grad(div v)).

    Zero to roundoff when the constituent operators commute; for the spectral
    backend that requires v to carry no Nyquist content (the Laplacian keeps
    Nyquist, first derivatives drop it).
    """
    grid = v.grid
    cc = _curl_arrays(_curl_arrays(v.values, grid, method), grid, method)
    lap = laplacian_array(v.values, grid, method)
    div = sum(first_derivative_array(v.values[a], grid, a, method) for a in range(3))
    grad_div = np.stack(gradient_arrays(div, grid, method))
    return float(np.max(np.abs(cc - (-lap + grad_div))))


def inverse_div_grad(
    values: np.ndarray, grid: Grid, method: str = "spectral", *, mean_tol: float = 1e-12
) -> np.ndarray:
    """Solve div(grad u) = f for u with zero mean.

    Inverts the composed first-derivative symbols (not the Laplacian symbol),
    so the divergence of the returned gradient reproduces f exactly. f must
    have (numerically) zero mean; modes where the composed symbol vanishes
    beyond k=0 are rejected the same way.
    """
    _check_method(method)
    s = _deriv_symbols(grid, method)
    sym = -sum(si**2 for si in s)  # symbol of div(grad .)
    hat = np.fft.fftn(values)
    scale = float(np.max(np.abs(hat))) or 1.0
    dead = np.abs(sym) == 0.0
    leak = float(np.max(np.abs(hat[dead])))
    if leak > mean_tol * scale:
        raise ValueError(
            "right-hand side has content in the null modes of div(grad .) "
            f"(relative magnitude {leak / scale:.3e}); a periodic solution needs zero mean"
        )
    inv = np.where(dead, 0.0, sym)
    with np.errstate(divide="ignore", invalid="ignore"):
        hat = np.where(dead, 0.0, hat / inv)
    out = np.fft.ifftn(hat)
    return out.real if not np.iscomplexobj(values) else out


def solenoidal_projection(v: VectorSampleField3, method: str = "spectral") -> VectorSampleField3:
    """Remove the gradient part: v - grad(inverse_div_grad(div v))."""
    div = sum(first_derivative_array(v.values[a], v.grid, a, method) for a in range(3))
    hat = np.fft.fftn(div)
    s = _deriv_symbols(v.grid, method)
    sym = -sum(si**2 for si in s)
    dead = np.abs(sym) == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        u_hat = np.where(dead, 0.0, hat / np.where(dead, 1.0, sym))
    u = np.fft.ifftn(u_hat).real
    grad_u = np.stack(gradient_arrays(u, v.grid, method))
    return VectorSampleField3(v.grid, v.values - grad_u)
