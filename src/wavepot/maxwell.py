"""Electromagnetic half of the analogy: (E, B) evolution versus the vector potential.

The first-order system

    dE/dt = c curl B - J,   dB/dt = -c curl E

is integrated with classical RK4 on the spectra of E and B: the curls are
mode-wise products, and the current's spectrum is a sum of the kept spectra
of t-free factors times scalar time factors (``SourceSpec.current_modes``).
The divergence equations are *initial conditions* whose residuals are
monitored, not enforced (their persistence along the flow is itself one of
the checked claims). The second-order vector potential obeys

    d^2A/dt^2 = c^2 (Lap A - grad div A) + c J,

integrated with velocity-Verlet exactly like the wave potential, on the spectra
of A and dA/dt, and maps to fields through B = curl A, E = -(1/c) dA/dt. Both
integrators hand their observer blocks of the state's half spectrum and make
samples only for a frame or the returned state; ``modal_diagnostics`` reads a
diagnostics row off each spectrum. The complex combination B + i E
(Riemann-Silberstein vector) repackages the first-order system into one
equation whose residual must vanish identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import expressions
from .errors import ContinuityError, NonFiniteSampleError
from .expressions import Expression
from .grids import Grid, ScalarSampleField, VectorSampleField3, check_same_grid
from .operators import (
    Modes,
    Symbols,
    _curl_arrays,
    _curl_modes,
    _div_modes,
    divergence_array,
    first_derivative_array,
    fourier_apply,
    from_modes,
    gradient_arrays,
    inverse_div_grad,
    max_wavenumber,
    modes,
    symbols,
)
from .stepping import check_dt, drive

__all__ = [
    "EMState",
    "PotentialState",
    "SourceSpec",
    "em_rhs",
    "rk4_dt_bound",
    "run_rk4",
    "constraint_residual",
    "riemann_silberstein_residual",
    "potential_acceleration",
    "potential_dt_bound",
    "run_potential_verlet",
    "potential_to_fields",
    "potential_constraint_residual",
    "potential_diagnostics",
    "modal_diagnostics",
    "em_hamiltonians",
    "field_energy",
    "gauge_shift_potential",
    "coulomb_field_from_charge",
]

RK4_IMAG_STABILITY = 2.8  # conservative value of the RK4 imaginary-axis reach
# Fraction of each integrator's stability limit that a step may use.
SAFETY = 0.5
# The continuity gate: largest |d rho/dt + div J| relative to the size of its
# terms, probed at this many evenly spaced times for time-dependent sources.
_CONTINUITY_TOL = 1e-8
_CONTINUITY_PROBES = 9


@dataclass(frozen=True)
class EMState:
    """Electric and magnetic fields with the speed of light."""

    e: VectorSampleField3
    b: VectorSampleField3
    c: float = 1.0

    def __post_init__(self):
        check_same_grid(self.e.grid, self.b)
        if not (self.c > 0 and np.isfinite(self.c)):
            raise ValueError(f"c must be positive, got {self.c}")

    @property
    def grid(self) -> Grid:
        return self.e.grid


@dataclass(frozen=True)
class PotentialState:
    """Vector potential and its time derivative (E = -a_dot / c)."""

    a: VectorSampleField3
    a_dot: VectorSampleField3
    c: float = 1.0

    def __post_init__(self):
        check_same_grid(self.a.grid, self.a_dot)
        if not (self.c > 0 and np.isfinite(self.c)):
            raise ValueError(f"c must be positive, got {self.c}")

    @property
    def grid(self) -> Grid:
        return self.a.grid


class SourceSpec:
    """Charge density and current expressions over (t, x, y, z).

    The pair must satisfy the continuity equation; ``validate_continuity``
    gates a run by probing d(rho)/dt + div J at sample times (d/dt by a
    centered difference with step dt/100). In ``rho_at`` and ``current_at``, a
    component that does not reference t is sampled once per grid, whether or
    not the others do. The integrators take the current's spectrum from
    ``current_modes``, which writes each component of J as a sum of t-free
    spatial factors times coordinate-free time factors once, at construction,
    and transforms the spatial factors once per grid and method.
    """

    def __init__(
        self,
        rho: str | Expression,
        j: tuple[str | Expression, str | Expression, str | Expression],
        bindings: dict[str, float] | None = None,
    ):
        as_node = lambda s: expressions.parse(s) if isinstance(s, str) else s
        self.rho = as_node(rho)
        self.j = tuple(as_node(src) for src in j)
        self.bindings = dict(bindings or {})
        # rho, j_x, j_y, j_z: which reference t, and the samples of those that do not
        self._timed = tuple(expressions.references_time(node) for node in (self.rho, *self.j))
        self._cache: dict = {}
        # j_x, j_y, j_z as terms S_i(x) g_i(t), or None; the spectra of every S_i per (grid, method)
        self._terms = tuple(expressions.separate(node) for node in self.j)
        self._spatial_modes: dict = {}

    @classmethod
    def vacuum(cls) -> "SourceSpec":
        return cls("0", ("0", "0", "0"))

    @property
    def is_static(self) -> bool:
        return not any(self._timed)

    def _component(self, i: int, t: float, grid: Grid) -> ScalarSampleField:
        """Component i (rho, j_x, j_y, j_z) at time t; one that does not reference t
        is sampled once per grid and kept."""
        node = (self.rho, *self.j)[i]
        if self._timed[i]:
            return expressions.sample(node, grid, self.bindings, t)
        if (i, grid) not in self._cache:
            self._cache[(i, grid)] = expressions.sample(node, grid, self.bindings, t)
        return self._cache[(i, grid)]

    def rho_at(self, t: float, grid: Grid) -> ScalarSampleField:
        return self._component(0, t, grid)

    def current_at(self, t: float, grid: Grid) -> VectorSampleField3:
        return VectorSampleField3.from_components(*(self._component(i, t, grid) for i in (1, 2, 3)))

    def current_modes(self, t: float, grid: Grid, method: str) -> np.ndarray:
        """The half spectrum of J at time t, its three components stacked on axis 0.

        A component that ``expressions.separate`` writes as a sum of terms
        S_i(x) g_i(t) is the sum of g_i(t) times the spectrum of S_i. The S_i of
        all three components are sampled and transformed together, once per
        grid and method, and kept; g_i is a scalar, and a term whose g_i is 1
        is that spectrum itself, so a static component costs no sample or
        transform per call. A component where t and x do not separate is
        sampled and transformed on its own. A spectrum that is not finite
        raises NonFiniteSampleError.
        """
        key = (grid, method)
        if key not in self._spatial_modes:
            spatial = [s for terms in self._terms if terms for s, _ in terms]
            samples = [expressions.sample(s, grid, self.bindings).values for s in spatial]
            self._spatial_modes[key] = modes(np.stack(samples), grid, method).hat if samples else []
        spatial_hats = iter(self._spatial_modes[key])
        env = {"pi": np.pi, "t": float(t), **self.bindings}
        components = []
        for node, terms in zip(self.j, self._terms):
            if terms is None:
                sample = expressions.sample(node, grid, self.bindings, t).values
                components.append(modes(sample, grid, method).hat)
                continue
            total = None
            for _, g in terms:
                hat = next(spatial_hats)
                with np.errstate(all="ignore"):  # a factor that is not finite raises below
                    term = hat if g is expressions.ONE else expressions.evaluate(g, env) * hat
                    total = term if total is None else total + term
            components.append(total)
        out = np.stack(components)
        if not np.isfinite(out).all():
            raise NonFiniteSampleError(f"the current is not finite at t={float(t)!r}")
        return out

    def continuity_residual(
        self, t: float, grid: Grid, dt: float, method: str = "spectral"
    ) -> tuple[float, float]:
        """(max |d rho/dt + div J|, scale) at time t.

        The scale sums max |d rho/dt| and max |d_a J_a| over each axis a, so a
        divergence-free current is judged against the size of its terms, not
        against the roundoff of their cancelling sum.
        """
        h = dt / 100.0
        rho_plus = self._component(0, t + h, grid).values
        rho_minus = self._component(0, t - h, grid).values
        drho = (rho_plus - rho_minus) / (2.0 * h)
        jv = self.current_at(t, grid).values
        terms = [first_derivative_array(jv[a], grid, a, method) for a in range(3)]
        residual = float(np.max(np.abs(drho + sum(terms))))
        scale = float(np.max(np.abs(drho)) + sum(np.max(np.abs(d)) for d in terms))
        return residual, scale

    def validate_continuity(
        self, grid: Grid, dt: float, total_time: float, method: str = "spectral"
    ) -> None:
        """Reject the sources if continuity fails at any probe time."""
        span = max(total_time, dt)
        times = [0.0] if self.is_static else np.linspace(0.0, span, _CONTINUITY_PROBES)
        for t in times:
            residual, scale = self.continuity_residual(float(t), grid, dt, method)
            if residual > _CONTINUITY_TOL * max(scale, 1e-30):
                raise ContinuityError(
                    f"sources violate the continuity equation at t={float(t):g}: "
                    f"max |d rho/dt + div J| = {residual:.3e} (scale {scale:.3e})"
                )


def _em_rhs_modes(fields: np.ndarray, j: np.ndarray, c: float, sym: Symbols) -> np.ndarray:
    """The spectrum of d/dt (E, B) = (c curl B - J, -c curl E).

    ``fields`` stacks the spectra of E and B on axis 0, and the rate comes back
    stacked the same way: the scheme that ``em_rhs`` and every RK4 stage apply.
    """
    rate = np.empty_like(fields)
    rate[0] = c * _curl_modes(fields[1], sym) - j
    rate[1] = -c * _curl_modes(fields[0], sym)
    return rate


def em_rhs(
    state: EMState, current: VectorSampleField3, method: str = "spectral"
) -> tuple[VectorSampleField3, VectorSampleField3]:
    """dE/dt = c curl B - J, dB/dt = -c curl E, through one transform pair."""
    grid = state.grid
    check_same_grid(grid, current)
    spectrum = modes(np.stack((state.e.values, state.b.values, current.values)), grid, method)
    rate = _em_rhs_modes(spectrum.hat[:2], spectrum.hat[2], state.c, spectrum.sym)
    de, db = from_modes(spectrum._replace(hat=rate))
    return VectorSampleField3(grid, de), VectorSampleField3(grid, db)


def rk4_dt_bound(grid: Grid, c: float) -> float:
    """CFL budget SAFETY * 2.8 / (c k_max) for the first-order system."""
    return SAFETY * RK4_IMAG_STABILITY / (c * max_wavenumber(grid))


def run_rk4(
    state: EMState,
    sources: SourceSpec,
    dt: float,
    steps: int,
    *,
    sink: Callable[[int, EMState], None] | None,
    snapshot_stride: int = 1,
    method: str = "spectral",
    observer: Callable[[np.ndarray, np.ndarray], None] | None = None,
) -> EMState:
    """Classical RK4 from t=0; see ``stepping.drive``.

    The state is the half spectrum of (E, B), transformed once at the start,
    so a stage is mode-wise arithmetic. The current's spectrum comes from
    ``SourceSpec.current_modes`` at the substage times; j(t + dt/2) serves
    stages 2 and 3. The observer sees blocks of the spectrum, E and B stacked
    on axis 0. The fields are sampled by one inverse transform of the
    spectrum, and only for a frame or the returned state; frame 0 is the
    initial state itself.
    """
    grid = state.grid
    check_dt(dt, rk4_dt_bound(grid, state.c), "RK4 CFL")
    c = state.c
    spectrum = modes(np.stack((state.e.values, state.b.values)), grid, method)
    hat, sym = spectrum.hat, spectrum.sym

    def current(t: float) -> np.ndarray:
        return sources.current_modes(t, grid, method)

    def advance(n: int) -> None:
        nonlocal hat
        t = (n - 1) * dt
        j0, j_half, j1 = current(t), current(t + 0.5 * dt), current(t + dt)
        k1 = _em_rhs_modes(hat, j0, c, sym)
        k2 = _em_rhs_modes(hat + 0.5 * dt * k1, j_half, c, sym)
        k3 = _em_rhs_modes(hat + 0.5 * dt * k2, j_half, c, sym)
        k4 = _em_rhs_modes(hat + dt * k3, j1, c, sym)
        hat += (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)  # in place: it is spectrum.hat

    def box() -> EMState:
        e, b = from_modes(spectrum)
        return EMState(VectorSampleField3(grid, e), VectorSampleField3(grid, b), c)

    return drive(
        advance, box, lambda: (spectrum.hat,), state, steps, snapshot_stride, sink, observer
    )


def constraint_residual(state: EMState, rho: ScalarSampleField, method: str = "spectral") -> tuple[float, float]:
    """Max-norms of (div E - rho, div B): the initial-condition residuals."""
    grid = state.grid
    check_same_grid(grid, rho)
    div_e = divergence_array(state.e.values, grid, method)
    div_b = divergence_array(state.b.values, grid, method)
    return float(np.max(np.abs(div_e - rho.values))), float(np.max(np.abs(div_b)))


def riemann_silberstein_residual(
    state: EMState, sources: SourceSpec, t: float, method: str = "spectral"
) -> tuple[float, float]:
    """Residual of the compact form (i/c) dW/dt + curl W = J/c with W = B + i E.

    dW/dt is taken from em_rhs, so the residual is an algebraic identity and
    must sit at roundoff. Returns (max residual, scale), where scale sums the
    max-norms of the constituent terms.
    """
    grid = state.grid
    current = sources.current_at(t, grid)
    de, db = em_rhs(state, current, method)
    w = state.b.values + 1j * state.e.values
    dw = db.values + 1j * de.values
    curl_w = _curl_arrays(w, grid, method)
    residual = (1j / state.c) * dw + curl_w - current.values / state.c
    scale = (
        float(np.max(np.abs(dw)) / state.c)
        + float(np.max(np.abs(curl_w)))
        + float(np.max(np.abs(current.values)) / state.c)
    )
    return float(np.max(np.abs(residual))), scale


def potential_acceleration(
    state: PotentialState, current: VectorSampleField3, method: str = "spectral"
) -> VectorSampleField3:
    """d^2A/dt^2 = c^2 (Lap A - grad div A) + c J.

    Equal to -c^2 curl(curl A) + c J by the curl-curl expansion (exactly so
    for fields without Nyquist content).
    """
    grid = state.grid
    check_same_grid(grid, current)
    acc = _potential_accel_arrays(state.a.values, current.values, state.c, grid, method)
    return VectorSampleField3(grid, acc)


def potential_dt_bound(grid: Grid, c: float) -> float:
    """Verlet budget SAFETY * 2 / (c k_max) for the second-order system."""
    return SAFETY * 2.0 / (c * max_wavenumber(grid))


def _potential_accel_modes(hat: np.ndarray, sym: Symbols) -> np.ndarray:
    # Lap A - grad(div A) is diagonal mode by mode
    s, lap = sym.deriv, sym.lap
    dsum = s[0] * hat[0] + s[1] * hat[1] + s[2] * hat[2]
    out_hat = np.empty_like(hat)
    for b in range(3):
        out_hat[b] = lap * hat[b] + s[b] * dsum
    return out_hat


def _potential_accel_arrays(
    a: np.ndarray, j: np.ndarray, c: float, grid: Grid, method: str
) -> np.ndarray:
    return c * c * fourier_apply(a, grid, method, _potential_accel_modes) + c * j


def run_potential_verlet(
    state: PotentialState,
    sources: SourceSpec,
    dt: float,
    steps: int,
    *,
    sink: Callable[[int, PotentialState], None] | None,
    snapshot_stride: int = 1,
    method: str = "spectral",
    observer: Callable[[np.ndarray, np.ndarray], None] | None = None,
) -> PotentialState:
    """Velocity-Verlet of the potential dynamics from t=0; see ``stepping.drive``.

    The state is the half spectrum of (A, dA/dt), transformed once at the
    start, so a kick is mode-wise arithmetic; each step takes the spectrum of
    J(n dt) from ``SourceSpec.current_modes``. The observer sees blocks of the
    spectrum, A and dA/dt stacked on axis 0. The potential is sampled by one
    inverse transform of the spectrum, and only for a frame or the returned
    state; frame 0 is the initial state itself.
    """
    grid = state.grid
    check_dt(dt, potential_dt_bound(grid, state.c), "potential Verlet")
    c = state.c
    spectrum = modes(np.stack((state.a.values, state.a_dot.values)), grid, method)
    a, vel = spectrum.hat  # views: the kicks and drifts below step spectrum.hat in place

    def accel(t: float) -> np.ndarray:
        j = sources.current_modes(t, grid, method)
        return c * c * _potential_accel_modes(a, spectrum.sym) + c * j

    acc = accel(0.0)

    def advance(n: int) -> None:
        nonlocal a, vel, acc
        vel += 0.5 * dt * acc
        a += dt * vel
        acc = accel(n * dt)
        vel += 0.5 * dt * acc

    def box() -> PotentialState:
        a_values, vel_values = from_modes(spectrum)
        return PotentialState(
            VectorSampleField3(grid, a_values), VectorSampleField3(grid, vel_values), c
        )

    return drive(
        advance, box, lambda: (spectrum.hat,), state, steps, snapshot_stride, sink, observer
    )


def potential_to_fields(state: PotentialState, method: str = "spectral") -> EMState:
    """B = curl A, E = -(1/c) dA/dt; div B vanishes structurally."""
    grid = state.grid
    b = _curl_arrays(state.a.values, grid, method)
    e = -state.a_dot.values / state.c
    return EMState(VectorSampleField3(grid, e), VectorSampleField3(grid, b), state.c)


def potential_constraint_residual(
    state: PotentialState, rho: ScalarSampleField, method: str = "spectral"
) -> float:
    """Max-norm of div(dA/dt) + c rho, the potential-side initial condition."""
    grid = state.grid
    check_same_grid(grid, rho)
    div_adot = divergence_array(state.a_dot.values, grid, method)
    return float(np.max(np.abs(div_adot + state.c * rho.values)))


def potential_diagnostics(
    state: PotentialState, rho: ScalarSampleField, method: str = "spectral"
) -> tuple[float, float, float]:
    """(H' of the mapped fields, the potential constraint residual, max |div B|):
    ``modal_diagnostics`` of the state's spectrum, one forward transform."""
    grid = state.grid
    check_same_grid(grid, rho)
    spectrum = modes(np.stack((state.a.values, state.a_dot.values)), grid, method)
    return modal_diagnostics(spectrum.hat, rho, state.c, method, potential=True)


def _parseval_sum(hat: np.ndarray) -> float:
    """N times the sum of squares of the real samples whose half spectrum is ``hat``.

    Parseval's identity on the half spectrum: each mode stands for itself and
    its conjugate, except on the last axis's 0 and n/2 planes, which hold their
    own conjugates (point counts are even, so n/2 is the last plane).
    """
    sq = np.square(hat.real)
    sq += np.square(hat.imag)
    return float(2.0 * sq.sum() - sq[..., 0].sum() - sq[..., -1].sum())


def modal_diagnostics(
    hat: np.ndarray, rho: ScalarSampleField, c: float, method: str, potential: bool = False
) -> tuple[float, float, float]:
    """(H', constraint residual, max |div B|) of a state given as its half spectrum.

    ``hat`` stacks the half spectra of (E, B) on axis 0, or with ``potential``
    those of (A, dA/dt), as one step of the blocks ``run_rk4`` and
    ``run_potential_verlet`` hand their observer; the potential's fields are
    E = -(dA/dt)/c and B = curl A.
    The residual is max |div E - rho| for the fields and max |div(dA/dt) + c rho|
    for the potential. H' = Int (c/2)(E^2 + B^2) comes from Parseval's identity,
    and the two divergences from one inverse transform, to which rho is added
    in samples; div curl A cancels mode by mode.
    """
    grid = rho.grid
    sym = symbols(grid, method, real=True)
    if potential:
        b_hat = _curl_modes(hat[0], sym)
        squares = _parseval_sum(hat[1]) / (c * c) + _parseval_sum(b_hat)
        constrained, source = hat[1], c * rho.values
    else:
        b_hat = hat[1]
        squares = _parseval_sum(hat)
        constrained, source = hat[0], -rho.values
    div_hat = np.stack((_div_modes(constrained, sym), _div_modes(b_hat, sym)))
    div = from_modes(Modes(div_hat, sym, grid, True))
    h_prime = 0.5 * c * squares * grid.cell_volume / grid.size
    return h_prime, float(np.max(np.abs(div[0] + source))), float(np.max(np.abs(div[1])))


def em_hamiltonians(
    state: EMState, current: VectorSampleField3, method: str = "spectral"
) -> tuple[float, float]:
    """Canonical and generalized field energies.

    H  = Int [ (c/2)(B . curl B + E . curl E) - B . J ]
    H' = Int (c/2)(E^2 + B^2)

    H' is conserved for J = 0; H is conserved for static J.
    """
    grid = state.grid
    check_same_grid(grid, current)
    e, b = state.e.values, state.b.values
    curl_b = _curl_arrays(b, grid, method)
    curl_e = _curl_arrays(e, grid, method)
    vol = grid.cell_volume
    h = float(
        np.sum(0.5 * state.c * (b * curl_b + e * curl_e) - b * current.values) * vol
    )
    return h, field_energy(state)


def field_energy(state: EMState) -> float:
    """H' = Int (c/2)(E^2 + B^2); needs neither curls nor the current."""
    e, b = state.e.values, state.b.values
    return float(np.sum(0.5 * state.c * (e * e + b * b)) * state.grid.cell_volume)


def gauge_shift_potential(
    state: PotentialState, alpha: ScalarSampleField, method: str = "spectral"
) -> PotentialState:
    """A -> A + grad alpha with static alpha; the fields are unchanged."""
    grid = state.grid
    check_same_grid(grid, alpha)
    grad_alpha = np.stack(gradient_arrays(alpha.values, grid, method))
    return PotentialState(
        VectorSampleField3(grid, state.a.values + grad_alpha), state.a_dot, state.c
    )


def coulomb_field_from_charge(
    rho: ScalarSampleField, method: str = "spectral"
) -> VectorSampleField3:
    """Gradient field E with div E = rho exactly (rho must have zero mean)."""
    u = inverse_div_grad(rho.values, rho.grid, method)
    return VectorSampleField3(rho.grid, np.stack(gradient_arrays(u, rho.grid, method)))
