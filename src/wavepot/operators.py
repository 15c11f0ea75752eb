"""Discrete differential operators on periodic grids, as Fourier symbols.

Every operator is mode-wise arithmetic on one backend's symbols between the
forward and inverse transforms of ``_transforms``, the package's only FFT
calls: ``modes`` takes samples to their spectrum and ``from_modes`` back, so a
caller that needs several operators of one field transforms it once. Real
arrays take the half spectrum (``rfft``/``rfftn``) and come back real, complex
arrays the full one (``fft``/``fftn``); leading batch axes pass through.

``spectral``
    Exact multipliers. First derivatives (i k) zero the Nyquist mode so real
    fields stay real; the Laplacian keeps the full -k^2 including Nyquist (its
    spectral radius is sum_a (pi/dx_a)^2, which the integrator stability
    bounds rely on). So div(grad f) differs from laplacian(f) at Nyquist only.

``central2``
    The exact symbols of second-order central differences: i sin(k dx)/dx for
    (f_{+1} - f_{-1})/(2 dx), exactly 0 at Nyquist like the stencil, and for
    the Laplacian -sum_a sin^2(k dx_a)/dx_a^2, the composed stencil
    (f_{+2} - 2f + f_{-2})/(4 dx^2) rather than the compact 3-point one. The
    composition makes the vector-calculus identities (curl curl = grad div -
    laplacian, div curl = 0, curl grad = 0) hold to roundoff, not to O(dx^2).

Array-level functions (``*_array``) accept raw ndarrays, real or complex, and
are the hot paths; field-level wrappers validate and box results.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Callable, NamedTuple

import numpy as np

from .grids import Grid, ScalarSampleField, VectorSampleField3

__all__ = [
    "METHODS",
    "Symbols",
    "symbols",
    "Modes",
    "modes",
    "from_modes",
    "fourier_apply",
    "fourier_multiplier",
    "live_quotient",
    "laplacian",
    "gradient",
    "divergence",
    "curl",
    "curl_curl_identity_residual",
    "laplacian_array",
    "first_derivative_array",
    "gradient_arrays",
    "divergence_array",
    "laplacian_spectral_radius",
    "max_wavenumber",
    "inverse_div_grad",
    "solenoidal_projection",
]

METHODS = ("spectral", "central2")

# Largest content, relative to its largest mode, that a right-hand side may
# carry on the modes where an inverted symbol vanishes (the mean, Nyquist
# combinations). A few thousand float64 epsilons: the roundoff of data with no
# content there passes, any real content does not.
DEAD_MODE_TOL = 1e-12


def _check_method(method: str) -> str:
    if method not in METHODS:
        raise ValueError(f"unknown operator backend {method!r}; expected one of {METHODS}")
    return method


class Symbols(NamedTuple):
    """One backend's Fourier symbols on one grid, shaped to broadcast over a spectrum.

    ``deriv[a]`` is s_a, where i s_a is the symbol of d/dx_a; ``lap`` is the
    Laplacian's symbol and ``div_grad`` = -sum_a s_a^2 that of div(grad .),
    the same values as ``lap`` for central2. The arrays are read-only.
    """

    deriv: tuple[np.ndarray, ...]
    lap: np.ndarray
    div_grad: np.ndarray


def _half(symbol: np.ndarray, grid: Grid) -> np.ndarray:
    """View of a full-spectrum symbol on the half spectrum of a real transform."""
    return symbol[..., : grid.points[-1] // 2 + 1]


@lru_cache(maxsize=None)
def _symbol_sets(grid: Grid, method: str) -> tuple[Symbols, Symbols]:
    """(full spectrum, half spectrum) symbols; the half set views the full one."""
    _check_method(method)
    deriv = []
    lap = np.zeros(grid.shape)
    for axis, (n, dx) in enumerate(zip(grid.points, grid.spacings)):
        k = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
        s = k.copy() if method == "spectral" else np.sin(k * dx) / dx
        s[n // 2] = 0.0  # Nyquist: keeps real fields real; the central stencil's exact value
        lap_axis = -(k**2) if method == "spectral" else -(s**2)
        shape = [1] * grid.dims
        shape[axis] = n
        deriv.append(s.reshape(shape))
        lap = lap + lap_axis.reshape(shape)
    div_grad = -sum(s**2 for s in deriv) if method == "spectral" else lap
    for array in (*deriv, lap, div_grad):
        array.setflags(write=False)
    half = Symbols(tuple(_half(s, grid) for s in deriv), _half(lap, grid), _half(div_grad, grid))
    return Symbols(tuple(deriv), lap, div_grad), half


def symbols(grid: Grid, method: str, real: bool = False) -> Symbols:
    """The backend's symbols on the full spectrum, or on a real array's half spectrum."""
    return _symbol_sets(grid, method)[1 if real else 0]


@lru_cache(maxsize=None)
def _transforms(grid: Grid, real: bool) -> tuple[Callable, Callable]:
    """The (forward, inverse) transform pair over the trailing grid axes.

    Real arrays take the half spectrum and come back real; leading batch or
    component axes pass through.
    """
    if grid.dims == 1:  # the 1D transforms skip the n-dimensional argument handling
        if not real:
            return np.fft.fft, np.fft.ifft
        return np.fft.rfft, partial(np.fft.irfft, n=grid.points[0])
    axes = tuple(range(-grid.dims, 0))
    if not real:
        return partial(np.fft.fftn, axes=axes), partial(np.fft.ifftn, axes=axes)
    return partial(np.fft.rfftn, axes=axes), partial(np.fft.irfftn, s=grid.shape, axes=axes)


class Modes(NamedTuple):
    """The spectrum ``hat`` of samples on ``grid``, with the backend's symbols ``sym``
    on the same spectrum: the half spectrum when the samples are ``real``."""

    hat: np.ndarray
    sym: Symbols
    grid: Grid
    real: bool


def modes(values: np.ndarray, grid: Grid, method: str) -> Modes:
    """The spectrum of ``values`` over the trailing grid axes, one forward transform."""
    real = not np.iscomplexobj(values)
    return Modes(_transforms(grid, real)[0](values), symbols(grid, method, real), grid, real)


def from_modes(spectrum: Modes) -> np.ndarray:
    """The samples of ``spectrum.hat``, one inverse transform; real for a real spectrum."""
    return _transforms(spectrum.grid, spectrum.real)[1](spectrum.hat)


def fourier_apply(
    values: np.ndarray,
    grid: Grid,
    method: str,
    modewise: Callable[[np.ndarray, Symbols], np.ndarray],
) -> np.ndarray:
    """Samples of ``modewise(hat, sym)``, hat the spectrum of ``values``.

    ``sym`` is the backend's symbol set on the same spectrum: the half
    spectrum for real values, whose result is real. ``modewise`` may work on
    ``hat`` in place.
    """
    spectrum = modes(values, grid, method)
    return from_modes(spectrum._replace(hat=modewise(spectrum.hat, spectrum.sym)))


def fourier_multiplier(grid: Grid, symbol: np.ndarray, real: bool) -> Callable:
    """f -> f with its spectrum multiplied by the full-spectrum ``symbol`` array.

    For real f when ``real`` is set, complex f otherwise; the transform pair
    and the symbol's half-spectrum slice are resolved once, for hot loops.
    """
    forward, inverse = _transforms(grid, real)
    matched = _half(symbol, grid) if real else symbol

    def multiply(f: np.ndarray) -> np.ndarray:
        hat = forward(f)
        hat *= matched
        return inverse(hat)

    return multiply


def live_quotient(hat: np.ndarray, symbol: np.ndarray, what: str) -> np.ndarray:
    """hat / symbol on the modes where the symbol is nonzero, and 0 where it vanishes.

    Content of ``hat`` on those dead modes cannot be inverted: above
    ``DEAD_MODE_TOL`` relative to max |hat| it raises ValueError naming
    ``what`` rather than being dropped.
    """
    dead = np.broadcast_to(symbol == 0.0, hat.shape)
    scale = float(np.max(np.abs(hat))) or 1.0
    leak = float(np.max(np.abs(hat[dead]), initial=0.0))
    if leak > DEAD_MODE_TOL * scale:
        raise ValueError(
            f"{what} has content in modes where the operator's symbol vanishes "
            f"(relative magnitude {leak / scale:.3e}, tolerance {DEAD_MODE_TOL:g})"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(dead, 0.0, hat / np.where(dead, 1.0, symbol))


def laplacian_spectral_radius(grid: Grid, method: str = "spectral") -> float:
    """Largest |eigenvalue| of the discrete Laplacian."""
    _check_method(method)
    if method == "spectral":
        return float(sum((np.pi / dx) ** 2 for dx in grid.spacings))
    return float(sum(1.0 / dx**2 for dx in grid.spacings))


def max_wavenumber(grid: Grid) -> float:
    """Magnitude of the largest representable wavenumber vector, |(pi/dx_a)|."""
    return float(np.sqrt(sum((np.pi / dx) ** 2 for dx in grid.spacings)))


def laplacian_array(values: np.ndarray, grid: Grid, method: str = "spectral") -> np.ndarray:
    return fourier_multiplier(grid, symbols(grid, method).lap, not np.iscomplexobj(values))(values)


def first_derivative_array(
    values: np.ndarray, grid: Grid, axis: int, method: str = "spectral"
) -> np.ndarray:
    return fourier_apply(values, grid, method, lambda hat, sym: hat * (1j * sym.deriv[axis]))


def gradient_arrays(values: np.ndarray, grid: Grid, method: str = "spectral") -> list[np.ndarray]:
    """Per-axis first derivatives; valid in any dimension."""
    return [first_derivative_array(values, grid, a, method) for a in range(grid.dims)]


def laplacian(f: ScalarSampleField, method: str = "spectral") -> ScalarSampleField:
    """Discrete Laplacian of a scalar field."""
    return ScalarSampleField(f.grid, laplacian_array(f.values, f.grid, method))


def gradient(f: ScalarSampleField, method: str = "spectral") -> VectorSampleField3:
    """Gradient of a scalar field on a 3D grid."""
    return VectorSampleField3(
        f.grid, np.stack(gradient_arrays(f.values, f.grid, method))
    )


def _div_modes(hat: np.ndarray, sym: Symbols) -> np.ndarray:
    return 1j * sum(s * h for s, h in zip(sym.deriv, hat))


def divergence_array(values: np.ndarray, grid: Grid, method: str = "spectral") -> np.ndarray:
    """Divergence of the components on axis 0, through one transform pair."""
    return fourier_apply(values, grid, method, _div_modes)


def divergence(v: VectorSampleField3, method: str = "spectral") -> ScalarSampleField:
    return ScalarSampleField(v.grid, divergence_array(v.values, v.grid, method))


def _curl_modes(hat: np.ndarray, sym: Symbols) -> np.ndarray:
    s = sym.deriv
    out_hat = np.empty_like(hat)
    out_hat[0] = s[1] * hat[2] - s[2] * hat[1]
    out_hat[1] = s[2] * hat[0] - s[0] * hat[2]
    out_hat[2] = s[0] * hat[1] - s[1] * hat[0]
    out_hat *= 1j
    return out_hat


def _curl_arrays(values: np.ndarray, grid: Grid, method: str) -> np.ndarray:
    """Curl of the components on axis 0, all three through one transform pair."""
    return fourier_apply(values, grid, method, _curl_modes)


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
    grad_div = np.stack(gradient_arrays(divergence_array(v.values, grid, method), grid, method))
    return float(np.max(np.abs(cc - (-lap + grad_div))))


def inverse_div_grad(values: np.ndarray, grid: Grid, method: str = "spectral") -> np.ndarray:
    """Solve div(grad u) = f for u with zero mean.

    Inverts the composed first-derivative symbols (not the Laplacian symbol),
    so the divergence of the returned gradient reproduces f exactly. f must
    have (numerically) zero mean, and no more content than that on the other
    modes where the composed symbol vanishes (Nyquist combinations), else
    ValueError: a periodic solution cannot reach them.
    """
    what = "right-hand side of div(grad u) = f"
    return fourier_apply(
        values, grid, method, lambda hat, sym: live_quotient(hat, sym.div_grad, what)
    )


def solenoidal_projection(v: VectorSampleField3, method: str = "spectral") -> VectorSampleField3:
    """Remove the gradient part: v - grad(inverse_div_grad(div v)), mode by mode."""

    def modewise(hat: np.ndarray, sym: Symbols) -> np.ndarray:
        # div v vanishes exactly on the dead modes of div(grad .), so this never raises
        u_hat = live_quotient(_div_modes(hat, sym), sym.div_grad, "div v")
        return hat - np.stack([1j * s * u_hat for s in sym.deriv])

    return VectorSampleField3(v.grid, fourier_apply(v.values, v.grid, method, modewise))
