import tracemalloc
import warnings
from typing import Iterator

import numpy as np
import pytest

from conftest import band_limited, smooth_vector
from wavepot import reconstruction
from wavepot.errors import IncompatibleRhsError, SolverError
from wavepot.grids import (
    ComplexSampleField,
    Grid,
    ScalarSampleField,
    VectorSampleField3,
    l2_norm,
    max_norm,
)
from wavepot.linsolve import conjugate_gradient, lowest_eigenpairs, normal_equations_cg
from wavepot.maxwell import (
    EMState,
    SourceSpec,
    potential_to_fields,
    run_rk4,
)
from wavepot.operators import curl, divergence
from wavepot.reconstruction import (
    _KERNEL_BLOCK_CAP,
    _KERNEL_ZERO_TOL,
    _fourier_preconditioner,
    _interval_widths,
    _kernel_basis,
    _running_trapezoid,
    curl_inverse,
    reconstruct_phi,
    reconstruct_vector_potential,
    solve_elliptic,
)
from wavepot.schrodinger import (
    PotentialSpec,
    QuantumParams,
    WaveFunction,
    dense_eigensystem,
    l_operator_array,
    max_energy_bound,
    propagate_cn,
    real_l_operator,
)
from wavepot.wavepotential import gauge_shift, stationary_phi, to_wavefunction

PARAMS = QuantumParams(1.0, 1.0)


def _streamed(times, samples) -> np.ndarray:
    """The running trapezoid integrals of ``samples`` at ``times``, stacked."""
    return np.array([total for _, total in _running_trapezoid(_interval_widths(times), samples)])


def _turning_packet(grid: Grid, times) -> Iterator[ComplexSampleField]:
    """A displaced Gaussian turning in phase, one fresh frame per time."""
    x = grid.axis_coordinates(0)
    packet = np.exp(-((x - 0.6 * grid.lengths[0]) ** 2) / 2).astype(complex)
    for t in times:
        yield ComplexSampleField(grid, packet * np.exp(-0.5j * t))


def _plane_wave_fields(grid: Grid, times) -> Iterator[EMState]:
    """The vacuum plane wave E = y cos(x - t), B = z cos(x - t), one fresh frame per time."""
    x = grid.axis_coordinates(0)[:, None, None] + np.zeros(grid.shape)
    zero = np.zeros(grid.shape)
    for t in times:
        wave = np.cos(x - t)
        yield EMState(
            VectorSampleField3(grid, np.stack([zero, wave, zero])),
            VectorSampleField3(grid, np.stack([zero, zero, wave])),
        )


def _both_maps(times, grid64, cube16, frame_times=None) -> list:
    """Each reverse map called on ``times``, with frames at ``frame_times`` (default: the same)."""
    frame_times = times if frame_times is None else frame_times
    V = PotentialSpec.from_expression("1+cos(x)", grid64)
    return [
        lambda: reconstruct_phi(times, _turning_packet(grid64, frame_times), V, PARAMS),
        lambda: reconstruct_vector_potential(times, _plane_wave_fields(cube16, frame_times)),
    ]


class TestTrajectoryRecord:
    """What both maps require of a record's times and frames. Bad times raise
    from the map call itself, before any state is asked for."""

    def _raise_from_the_call(self, times, message, grid64, cube16):
        for call in _both_maps(times, grid64, cube16):
            with pytest.raises(ValueError, match=message):
                call()

    def test_needs_two_samples(self, grid64, cube16):
        self._raise_from_the_call([0.0], "two samples", grid64, cube16)

    def test_rejects_nonuniform_times(self, grid64, cube16):
        self._raise_from_the_call([0.0, 1.0, 2.5], "uniform", grid64, cube16)

    def test_rejects_nonzero_start(self, grid64, cube16):
        self._raise_from_the_call([1.0, 2.0], "t = 0", grid64, cube16)

    @pytest.mark.parametrize("frame_times", [[0.0, 0.1], [0.0, 0.1, 0.2, 0.3]])
    def test_frames_and_times_must_agree_in_length(self, grid64, cube16, frame_times):
        for call in _both_maps([0.0, 0.1, 0.2], grid64, cube16, frame_times):
            with pytest.raises(ValueError):
                list(call())

    def test_interval_widths(self):
        assert _interval_widths([0.0, 0.5, 1.0]).tolist() == [0.5, 0.5]
        assert _interval_widths([0.0, 0.5, 1.0, 1.25]).tolist() == [0.5, 0.5, 0.25]

    def test_short_last_interval_integrates_exactly(self):
        # an off-stride record: frames at steps 0, 2, 4, 5 of a dt = 0.25 run
        times = np.array([0.0, 0.5, 1.0, 1.25])
        out = _streamed(times, 2.0 * times[:, None])
        assert np.allclose(out[:, 0], times**2, rtol=0.0, atol=1e-15)


class TestTimeIntegrate:
    """The running trapezoid both maps share."""

    def test_constant_integrand_exact(self):
        times = np.arange(11) * 0.1
        out = _streamed(times, np.full((11, 4), 3.0))
        for n in range(11):
            assert np.allclose(out[n], 3.0 * 0.1 * n, atol=1e-14)

    def test_sine_second_order(self):
        omega = 3.0
        errs = []
        for n_samples in (101, 201):
            ts = np.linspace(0.0, 1.0, n_samples)
            out = _streamed(ts, np.sin(omega * ts)[:, None])
            exact = (1 - np.cos(omega * ts)) / omega
            errs.append(np.max(np.abs(out[:, 0] - exact)))
        assert 3.6 <= errs[0] / errs[1] <= 4.4

    def test_single_pair_is_trapezoid(self):
        out = _streamed([0.0, 0.5], np.array([[2.0], [4.0]]))
        assert out[0, 0] == 0.0
        assert out[1, 0] == pytest.approx(0.5 * 0.5 * 6.0)

    @pytest.mark.parametrize("short_last", [False, True])
    def test_bits_equal_a_cumsum_trapezoid(self, rng, short_last):
        dt = 0.0137
        times = np.arange(40) * dt
        if short_last:
            times[-1] = times[-2] + 0.3 * dt
        samples = rng.standard_normal((40, 3, 5))
        samples[:2, 0, 0] = -0.0  # a first increment of -0.0 keeps its sign
        reference = np.zeros_like(samples)
        np.cumsum(0.5 * dt * (samples[1:] + samples[:-1]), axis=0, out=reference[1:])
        if short_last:
            last = times[-1] - times[-2]
            reference[-1] = reference[-2] + 0.5 * last * (samples[-1] + samples[-2])
        assert _streamed(times, samples).tobytes() == reference.tobytes()

    def test_peak_memory_does_not_grow_with_the_frame_count(self, cube16):
        grid = Grid.line(1024, 20.0)
        V = PotentialSpec.from_expression("0.5*(x-10)^2", grid)
        maps = {
            "phi": (lambda times: reconstruct_phi(times, _turning_packet(grid, times), V, PARAMS),
                    grid.size * 16),
            "a": (lambda times: reconstruct_vector_potential(
                times, _plane_wave_fields(cube16, times)), cube16.size * 6 * 8),
        }

        def traced_peak(call, frames: int) -> int:
            tracemalloc.start()
            try:
                for _ in call(np.arange(frames) * 1e-3):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for name, (call, frame_bytes) in maps.items():
            for _ in call(np.arange(4) * 1e-3):
                pass  # fills the transform and kernel caches before tracing starts
            short, long = traced_peak(call, 40), traced_peak(call, 160)
            assert long - short <= 4 * frame_bytes, (name, short, long)


class TestErrorsRaiseFromTheMapCall:
    def test_incompatible_rhs(self, grid64):
        V = PotentialSpec.zero(grid64)
        psis = [ComplexSampleField(grid64, np.ones(grid64.shape, complex))] * 3
        with pytest.raises(IncompatibleRhsError):
            reconstruct_phi([0.0, 0.1, 0.2], iter(psis), V, PARAMS)

    def test_mean_magnetic_field(self, cube16):
        b = np.zeros((3,) + cube16.shape)
        b[2] = 0.5
        state = EMState(VectorSampleField3.zeros(cube16), VectorSampleField3(cube16, b))
        with pytest.raises(ValueError, match="mean"):
            reconstruct_vector_potential([0.0, 0.1], iter([state, state]))

    def test_wrong_frame_type(self, grid64, cube16):
        state = EMState(VectorSampleField3.zeros(cube16), VectorSampleField3.zeros(cube16))
        with pytest.raises(TypeError):
            reconstruct_phi([0.0, 0.1], [state, state], PotentialSpec.zero(grid64), PARAMS)


class TestSolveElliptic:
    def test_free_particle_single_mode(self, grid64):
        V = PotentialSpec.zero(grid64)
        L = grid64.lengths[0]
        x = grid64.axis_coordinates(0)
        rhs = ScalarSampleField(grid64, -np.cos(2 * np.pi * x / L))
        sol = solve_elliptic(V, rhs, PARAMS)
        expected = (2 * PARAMS.mass / PARAMS.hbar**2) * (L / (2 * np.pi)) ** 2 * np.cos(
            2 * np.pi * x / L
        )
        assert np.max(np.abs(sol.values - expected)) <= 1e-9

    def test_free_particle_constant_rhs_rejected(self, grid64):
        V = PotentialSpec.zero(grid64)
        with pytest.raises(IncompatibleRhsError, match="zero mode"):
            solve_elliptic(V, ScalarSampleField.full(grid64, 1.0), PARAMS)

    def test_harmonic_ground_state_inversion(self):
        grid = Grid.line(128, 20.0)
        V = PotentialSpec.from_expression("0.5*(x-10)^2", grid)
        eig = dense_eigensystem(V, PARAMS)
        e0, psi0 = float(eig.energies[0]), eig.eigenfield(0)
        rhs = ScalarSampleField(grid, -psi0.values)
        sol = solve_elliptic(V, rhs, PARAMS)
        expected = psi0.values / e0
        assert l2_norm(ScalarSampleField(grid, sol.values - expected)) <= 1e-8

    def test_residual_contract(self, grid64, rng):
        V = PotentialSpec.from_expression("1+0.5*cos(2*pi*x/L)", grid64, {"L": grid64.lengths[0]})
        rhs = ScalarSampleField(grid64, band_limited(grid64, rng))
        sol = solve_elliptic(V, rhs, PARAMS)
        res = l_operator_array(sol.values, V.sampled.values, grid64, PARAMS, "spectral")
        rel = np.linalg.norm((res - rhs.values).ravel()) / np.linalg.norm(rhs.values.ravel())
        assert rel <= 1e-10

    def test_indefinite_potential_deflated(self, grid64, rng):
        V = PotentialSpec.from_expression("0-1.5*cos(2*pi*x/L)", grid64, {"L": grid64.lengths[0]})
        rhs = ScalarSampleField(grid64, band_limited(grid64, rng))
        # H has a negative eigenvalue and no zero mode: it is inverted directly, CG solves the rest
        sol = solve_elliptic(V, rhs, PARAMS)
        res = l_operator_array(sol.values, V.sampled.values, grid64, PARAMS, "spectral")
        rel = np.linalg.norm((res - rhs.values).ravel()) / np.linalg.norm(rhs.values.ravel())
        assert rel <= 1e-10

    # CGLS on H^2 took 580-9900 iterations on these, or stalled on 2048 spectral points
    @pytest.mark.parametrize("potential", [
        "0-1.5*cos(2*pi*x/20)", "0-20*cos(2*pi*x/20)", "0.5*(x-10)^2-3"
    ], ids=["shallow_cos", "deep_cos", "shifted_harmonic"])
    @pytest.mark.parametrize("method", ["spectral", "central2"])
    @pytest.mark.parametrize("points", [512, 2048])
    def test_indefinite_potentials_within_apply_cap(self, monkeypatch, points, method, potential):
        grid = Grid.line(points, 20.0)
        V = PotentialSpec.from_expression(potential, grid)
        rhs = ScalarSampleField(grid, band_limited(grid, np.random.default_rng(1)))
        applies = [0]

        def counted_cg(apply_op, b, **kwargs):
            def counted(x):
                applies[0] += 1
                return apply_op(x)

            return conjugate_gradient(counted, b, **kwargs)

        monkeypatch.setattr(reconstruction, "conjugate_gradient", counted_cg)
        sol = solve_elliptic(V, rhs, PARAMS, method)
        res = l_operator_array(sol.values, V.sampled.values, grid, PARAMS, method)
        assert np.linalg.norm(res - rhs.values) <= 1e-10 * np.linalg.norm(rhs.values)
        assert 0 < applies[0] <= 300

    def test_minimum_norm_solution(self, grid64, rng):
        V = PotentialSpec.zero(grid64)
        f = band_limited(grid64, rng)
        f -= f.mean()
        sol = solve_elliptic(V, ScalarSampleField(grid64, f), PARAMS)
        assert abs(sol.values.mean()) <= 1e-12 * max_norm(sol)

    def test_central2_zero_potential_nyquist_mode_rejected(self, grid64):
        # central2 differences decouple even and odd sites, so L also annihilates (-1)^j
        V = PotentialSpec.zero(grid64)
        nyquist = ScalarSampleField(grid64, (-1.0) ** np.arange(64))
        with pytest.raises(IncompatibleRhsError, match="zero mode"):
            solve_elliptic(V, nyquist, PARAMS, "central2")

    def test_central2_zero_potential_solution_avoids_both_zero_modes(self, grid64, rng):
        V = PotentialSpec.zero(grid64)
        f = band_limited(grid64, rng)
        f -= f.mean()
        sol = solve_elliptic(V, ScalarSampleField(grid64, f), PARAMS, "central2")
        for mode in (np.ones(64), (-1.0) ** np.arange(64)):
            assert abs(mode @ sol.values) <= 1e-12 * np.linalg.norm(mode) * max_norm(sol)
        res = l_operator_array(sol.values, V.sampled.values, grid64, PARAMS, "central2")
        assert np.linalg.norm(res - f) <= 1e-10 * np.linalg.norm(f)


def _tuned_constant(grid: Grid, method: str) -> PotentialSpec:
    """Constant V that puts the lowest nonzero x-mode of the backend's H at E = 0."""
    dx, length = grid.spacings[0], grid.lengths[0]
    k = 2 * np.pi / length
    s = k if method == "spectral" else np.sin(k * dx) / dx
    kin = PARAMS.hbar**2 / (2 * PARAMS.mass)
    return PotentialSpec.from_field(ScalarSampleField.full(grid, -kin * s * s))


_KERNEL_POTENTIALS = {
    "zero": lambda grid, method: PotentialSpec.zero(grid),
    "harmonic": lambda grid, method: PotentialSpec.from_expression(
        "0.5*(x-L/2)^2", grid, {"L": grid.lengths[0]}
    ),
    "positive_cos": lambda grid, method: PotentialSpec.from_expression(
        "1+0.5*cos(2*pi*x/L)", grid, {"L": grid.lengths[0]}
    ),
    "indefinite_cos": lambda grid, method: PotentialSpec.from_expression(
        "0-1.5*cos(2*pi*x/L)", grid, {"L": grid.lengths[0]}
    ),
    "tuned_constant": _tuned_constant,
}


def _kernel(V: PotentialSpec, method: str):
    """``_kernel_basis`` with the H and preconditioner that ``solve_elliptic`` hands it."""
    grid, v = V.grid, V.sampled.values
    lop = real_l_operator(grid, v, PARAMS, method)
    precondition = _fourier_preconditioner(grid, v, PARAMS, method)
    return _kernel_basis(grid, lambda f: -lop(f), precondition, max_energy_bound(V, PARAMS, method))


class TestKernelBasis:
    @pytest.mark.parametrize("potential", sorted(_KERNEL_POTENTIALS))
    @pytest.mark.parametrize("method", ["spectral", "central2"])
    @pytest.mark.parametrize(
        "grid",
        [Grid.line(8, 20.0), Grid.line(64, 20.0), Grid.line(512, 20.0), Grid.cube(8, 2 * np.pi)],
        ids=["line8", "line64", "line512", "cube8"],
    )
    def test_matches_dense_oracle(self, grid, method, potential):
        V = _KERNEL_POTENTIALS[potential](grid, method)
        system = dense_eigensystem(V, PARAMS, method)
        threshold = _KERNEL_ZERO_TOL * max_energy_bound(V, PARAMS, method)
        if np.sum(system.energies <= threshold) >= _KERNEL_BLOCK_CAP:
            # central2 on the cube: 108 eigenvalues below zero, more than the search's block cap
            with pytest.raises(SolverError, match="cap of"):
                _kernel(V, method)
            return
        energies, low = _kernel(V, method)
        below = system.energies <= threshold
        assert len(energies) == np.sum(below)
        # a Ritz value lies within its residual, 1e-12 of emax, of an eigenvalue
        assert np.max(np.abs(energies - system.energies[below]), initial=0.0) <= 0.01 * threshold
        basis = low[np.abs(energies) <= threshold]
        dense = system.vectors[:, np.abs(system.energies) <= threshold]
        assert len(basis) == dense.shape[1]
        if potential == "tuned_constant":
            assert len(basis) >= 2
        if potential == "indefinite_cos":
            assert len(energies) > len(basis)
        # the kernel, and with it the negative pairs the elliptic solve inverts
        for found, ref in [(basis.T, dense), (low.T, system.vectors[:, below])]:
            assert np.max(np.abs(found.T @ found - np.eye(len(found.T))), initial=0.0) <= 1e-12
            assert np.max(np.abs(found @ found.T - ref @ ref.T)) <= 1e-8

    def test_bases_are_deterministic(self):
        grid = Grid.line(512, 20.0)
        V = _tuned_constant(grid, "spectral")
        (first_energies, first), (second_energies, second) = (
            _kernel(V, "spectral") for _ in range(2)
        )
        assert len(first) == len(second) == 3  # the constant mode below the two zero modes
        assert first_energies.tobytes() == second_energies.tobytes()
        assert first.tobytes() == second.tobytes()

    def test_kernel_found_above_dense_limit(self):
        # 8192 points: beyond the dense oracle, yet the two zero modes are still detected
        grid = Grid.line(8192, 20.0)
        V = _tuned_constant(grid, "spectral")
        x = grid.axis_coordinates(0)
        rhs = ScalarSampleField(grid, np.cos(2 * np.pi * x / 20.0) + np.cos(6 * np.pi * x / 20.0))
        with pytest.raises(IncompatibleRhsError, match="zero mode"):
            solve_elliptic(V, rhs, PARAMS)


class TestConjugateGradient:
    def test_breakdown_raises_at_once(self):
        # singular PSD operator, rhs with a null-space part and no projection:
        # the second search direction lies in the null space, so p^H A p = 0
        diag = np.array([0.0, 1.0, 2.0, 3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SolverError, match="broke down at iteration 1"):
                conjugate_gradient(
                    lambda x: diag * x, np.array([1.0, 1.0, 0.0, 0.0]), tol=1e-10, max_iter=20000
                )

    # eight distinct eigenvalues: both solvers need eight iterations, so two hit the cap
    def test_iteration_cap_raises(self):
        diag = np.arange(1.0, 9.0)
        with pytest.raises(SolverError, match="conjugate gradient did not reach tol=1e-12 in 2"):
            conjugate_gradient(lambda x: diag * x, np.ones(8), tol=1e-12, max_iter=2)

    def test_normal_equations_iteration_cap_raises(self):
        diag = np.arange(1.0, 9.0)
        with pytest.raises(SolverError, match="normal-equations CG did not reach tol=1e-12 in 2"):
            normal_equations_cg(
                lambda x: diag * x, lambda x: diag * x, np.ones(8), tol=1e-12, max_iter=2
            )


# 60 eigenvalues: two negative, then a degenerate pair, then a spread to 40
_SPECTRUM = np.concatenate([[-2.0, -0.5, 0.3, 0.3], np.linspace(1.0, 40.0, 56)])


def _symmetric(spectrum: np.ndarray) -> np.ndarray:
    q = np.linalg.qr(np.random.default_rng(7).standard_normal((spectrum.size,) * 2))[0]
    return (q * spectrum) @ q.T


def _stacked_op(a: np.ndarray, shape: tuple[int, ...]):
    """A applied to each vector of a stack whose vectors are shaped ``shape``."""
    return lambda x: (x.reshape(len(x), -1) @ a).reshape((len(x),) + shape)


class TestLowestEigenpairs:
    SHAPE = (6, 10)

    def _start(self, k: int) -> np.ndarray:
        return np.random.default_rng(0).standard_normal((k,) + self.SHAPE)

    @pytest.mark.parametrize("preconditioned", [False, True])
    def test_matches_dense_eigh(self, preconditioned):
        a = _symmetric(_SPECTRUM)
        # a positive definite stand-in for the inverse of A, as the kernel search's
        # Fourier preconditioner is for H
        shifted_inverse = np.linalg.inv(a + 3.0 * np.eye(a.shape[0]))
        energies, vectors = lowest_eigenpairs(
            _stacked_op(a, self.SHAPE), self._start(5), tol=1e-10, max_iter=500,
            precondition=_stacked_op(shifted_inverse, self.SHAPE) if preconditioned else None,
        )
        ref_energies, ref_vectors = np.linalg.eigh(a)
        assert vectors.shape == (5,) + self.SHAPE
        assert np.max(np.abs(energies - ref_energies[:5])) <= 1e-12
        found = vectors.reshape(5, -1).T
        assert np.max(np.abs(found.T @ found - np.eye(5))) <= 1e-12
        assert np.max(np.linalg.norm(a @ found - found * energies, axis=0)) <= 1e-10
        # the degenerate pair 0.3, 0.3 is fixed only as a subspace: compare projectors
        for cols in [[0], [1], [2, 3], [4]]:
            ours, ref = found[:, cols], ref_vectors[:, cols]
            assert np.max(np.abs(ours @ ours.T - ref @ ref.T)) <= 1e-9

    def test_dense_when_the_block_is_a_third_of_the_space(self):
        # 3k >= m: one apply to the identity and numpy's eigh, whatever max_iter says
        spectrum = np.array([-1.0, 0.5, 0.5, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
        a = _symmetric(spectrum)
        batches = []

        def apply(x):
            batches.append(len(x))
            return _stacked_op(a, (12,))(x)

        start = np.random.default_rng(0).standard_normal((4, 12))
        energies, vectors = lowest_eigenpairs(apply, start, tol=0.0, max_iter=0)
        assert batches == [12]
        ref_energies, ref_vectors = np.linalg.eigh(0.5 * (a + a.T))
        assert np.array_equal(energies, ref_energies[:4])
        assert np.array_equal(vectors, ref_vectors[:, :4].T)

    def test_bitwise_equal_for_a_fixed_start(self):
        a = _symmetric(_SPECTRUM)
        runs = [
            lowest_eigenpairs(_stacked_op(a, self.SHAPE), self._start(4), tol=1e-10, max_iter=500)
            for _ in range(2)
        ]
        for first, second in zip(*runs):
            assert first.tobytes() == second.tobytes()

    def test_unconverged_run_returns_its_last_ritz_pairs(self):
        # tol 0 is never met: the run stops at max_iter and raises nothing
        a = _symmetric(_SPECTRUM)
        energies, vectors = lowest_eigenpairs(
            _stacked_op(a, self.SHAPE), self._start(4), tol=0.0, max_iter=2
        )
        found = vectors.reshape(4, -1).T
        # Ritz pairs: orthonormal vectors that diagonalise A with the returned values,
        # each value an upper bound on its eigenvalue, residuals far from converged
        assert np.all(np.diff(energies) >= 0.0)
        assert np.max(np.abs(found.T @ found - np.eye(4))) <= 1e-12
        assert np.max(np.abs(found.T @ a @ found - np.diag(energies))) <= 1e-12
        assert np.all(energies >= _SPECTRUM[:4] - 1e-12)
        assert np.min(np.linalg.norm(a @ found - found * energies, axis=0)) > 1e-6


class TestReconstructPhi:
    def test_stationary_trajectory(self):
        grid = Grid.line(128, 20.0)
        V = PotentialSpec.from_expression("0.5*(x-10)^2", grid)
        eig = dense_eigensystem(V, PARAMS)
        e0, psi0 = float(eig.energies[0]), eig.eigenfield(0)
        dt = 1e-3
        times = np.arange(801) * dt
        psis = [
            ComplexSampleField(grid, psi0.values * np.exp(-1j * e0 * t / PARAMS.hbar))
            for t in times
        ]
        states = reconstruct_phi(times, psis, V, PARAMS)
        worst = 0.0
        for t, st in zip(times, states):
            ref = stationary_phi(psi0, e0, t, PARAMS, V)
            worst = max(worst, max_norm(st.phi - ref.phi))
        assert worst <= 1e-8

    def test_real_initial_data_gives_zero_velocity(self, grid64):
        V = PotentialSpec.from_expression("1+cos(2*pi*x/L)", grid64, {"L": grid64.lengths[0]})
        x = grid64.axis_coordinates(0)
        psi0 = np.exp(-((x - np.pi) ** 2)).astype(complex)
        psis = [ComplexSampleField(grid64, psi0), ComplexSampleField(grid64, psi0)]
        states = list(reconstruct_phi([0.0, 1e-3], psis, V, PARAMS))
        assert max_norm(states[0].phi_dot) == 0.0
        # phi(0) solves L phi = -Re psi(0)
        res = l_operator_array(
            states[0].phi.values, V.sampled.values, grid64, PARAMS, "spectral"
        )
        assert np.max(np.abs(res + psi0.real)) <= 1e-8

    def test_round_trip_closure_through_cn(self):
        grid = Grid.line(128, 20.0)
        V = PotentialSpec.from_expression("0.5*(x-10)^2", grid)
        x = grid.axis_coordinates(0)
        packet = np.exp(-((x - 12.0) ** 2) / 2).astype(complex)
        packet /= np.sqrt(np.sum(np.abs(packet) ** 2) * grid.cell_volume)
        psi = WaveFunction(ComplexSampleField(grid, packet), PARAMS)
        frames = {}
        propagate_cn(psi, V, 1e-3, 500, sink=frames.__setitem__)
        psis = [w.psi for w in frames.values()]
        states = reconstruct_phi([n * 1e-3 for n in frames], psis, V, PARAMS)
        worst = max(l2_norm(to_wavefunction(st).psi - fr) for st, fr in zip(states, psis))
        assert worst <= 1e-9  # elliptic residual only; quadrature cancels exactly

    def test_two_reconstructions_differ_by_gauge(self):
        # reconstructing after a gauge shift of the source run lands back on
        # the same wave function, so the phi difference lies in the kernel of L
        grid = Grid.line(64, 2 * np.pi)
        V = PotentialSpec.zero(grid)
        x = grid.axis_coordinates(0)
        k = 2 * np.pi / grid.lengths[0]
        ek = PARAMS.hbar**2 * k**2 / (2 * PARAMS.mass)
        psi0 = (np.cos(k * x) + 0.3j * np.sin(k * x)).astype(complex)
        psi = WaveFunction(ComplexSampleField(grid, psi0), PARAMS)
        frames = {}
        propagate_cn(psi, V, 1e-3, 50, sink=frames.__setitem__)
        first = next(
            reconstruct_phi([n * 1e-3 for n in frames], [w.psi for w in frames.values()], V, PARAMS)
        )
        shifted = gauge_shift(first, ScalarSampleField.full(grid, 0.7))
        diff = shifted.phi - first.phi
        lop = l_operator_array(diff.values, V.sampled.values, grid, PARAMS, "spectral")
        assert np.max(np.abs(lop)) <= 1e-11 * max(1.0, ek * max_norm(diff))


class TestCurlInverse:
    def test_zero_field(self, cube16):
        out = curl_inverse(VectorSampleField3.zeros(cube16))
        assert max_norm(out) == 0.0

    def test_single_mode_analytic(self, cube16):
        x, _, _ = np.meshgrid(
            *[cube16.axis_coordinates(a) for a in range(3)], indexing="ij"
        )
        L = cube16.lengths[0]
        b_amp = 0.8
        bz = b_amp * np.cos(2 * np.pi * x / L)
        b0 = VectorSampleField3(cube16, np.stack([np.zeros_like(x), np.zeros_like(x), bz]))
        k = curl_inverse(b0)
        expected_y = b_amp * (L / (2 * np.pi)) * np.sin(2 * np.pi * x / L)
        assert np.max(np.abs(k.values[1] - expected_y)) <= 1e-12
        assert max_norm(curl(k) - b0) <= 1e-12
        assert max_norm(divergence(k)) <= 1e-11

    def test_mean_field_rejected(self, cube16):
        b0 = VectorSampleField3(
            cube16, np.stack([np.zeros(cube16.shape)] * 2 + [np.full(cube16.shape, 0.5)])
        )
        with pytest.raises(ValueError, match="mean"):
            curl_inverse(b0)

    def test_non_solenoidal_rejected(self, cube16):
        x, _, _ = np.meshgrid(*[cube16.axis_coordinates(a) for a in range(3)], indexing="ij")
        b0 = VectorSampleField3(
            cube16, np.stack([np.sin(x), np.zeros_like(x), np.zeros_like(x)])
        )
        with pytest.raises(ValueError, match="solenoidal"):
            curl_inverse(b0)

    @pytest.mark.parametrize("method", ["spectral", "central2"])
    def test_unreachable_content_rejected(self, method):
        # mean-free and solenoidal, but (-1)^i along x sits where every derivative symbol vanishes
        grid = Grid.cube(8, 2 * np.pi)
        b = np.zeros((3,) + grid.shape)
        b[1] = ((-1.0) ** np.arange(8))[:, None, None]
        with pytest.raises(ValueError, match="magnetic field"):
            curl_inverse(VectorSampleField3(grid, b), method)

    @pytest.mark.parametrize("method", ["spectral", "central2"])
    def test_roundoff_in_unreachable_modes_passes(self, cube16, method):
        x = cube16.axis_coordinates(0)[:, None, None]
        b = np.zeros((3,) + cube16.shape)
        b[2] = np.cos(x) + 1e-15 * np.cos(8 * x)
        b0 = VectorSampleField3(cube16, b)
        k = curl_inverse(b0, method)
        assert max_norm(curl(k, method) - b0) <= 1e-12

    def test_random_solenoidal_roundtrip(self, cube16, rng):
        from wavepot.operators import solenoidal_projection

        v = solenoidal_projection(smooth_vector(cube16, rng))
        k = curl_inverse(v)
        assert max_norm(curl(k) - v) <= 1e-11
        assert max_norm(divergence(k)) <= 1e-11
        assert np.max(np.abs(k.values.reshape(3, -1).mean(axis=1))) <= 1e-12


class TestReconstructVectorPotential:
    def test_static_zero_field_trajectory(self, cube16):
        state = EMState(VectorSampleField3.zeros(cube16), VectorSampleField3.zeros(cube16))
        pstates = reconstruct_vector_potential([0.0, 0.1, 0.2], [state, state, state])
        for ps in pstates:
            assert max_norm(ps.a) == 0.0
            assert max_norm(ps.a_dot) == 0.0

    def test_plane_wave_matches_analytic_potential(self, cube16):
        # record the analytic travelling wave densely, then reconstruct
        x, _, _ = np.meshgrid(*[cube16.axis_coordinates(a) for a in range(3)], indexing="ij")
        zero = np.zeros_like(x)
        c = 1.0
        steps = 341
        dt = 0.15 / steps
        times = np.arange(steps + 1) * dt
        frames = []
        for t in times:
            e = VectorSampleField3(cube16, np.stack([zero, np.cos(x - c * t), zero]))
            b = VectorSampleField3(cube16, np.stack([zero, zero, np.cos(x - c * t)]))
            frames.append(EMState(e, b, c))
        pstates = list(reconstruct_vector_potential(times, frames))
        worst = 0.0
        for t, ps in zip(times, pstates):
            expected = np.stack([zero, np.sin(x - c * t), zero])
            worst = max(worst, np.max(np.abs(ps.a.values - expected)))
        assert worst <= 1e-6  # trapezoid quadrature error at this dt
        # fields round-trip much tighter than the potential itself
        for ps, fr in zip(pstates[::85], frames[::85]):
            mapped = potential_to_fields(ps)
            assert max_norm(mapped.e - fr.e) == 0.0
            assert l2_norm(mapped.b - fr.b) / l2_norm(fr.b) <= 1e-8

    def test_round_trip_from_rk4_run(self, cube16):
        x, _, _ = np.meshgrid(*[cube16.axis_coordinates(a) for a in range(3)], indexing="ij")
        zero = np.zeros_like(x)
        e = VectorSampleField3(cube16, np.stack([zero, np.cos(x), zero]))
        b = VectorSampleField3(cube16, np.stack([zero, zero, np.cos(x)]))
        state = EMState(e, b, 1.0)
        steps = 341
        dt = 0.15 / steps
        frames = {}
        run_rk4(state, SourceSpec.vacuum(), dt, steps, sink=frames.__setitem__)
        snaps = list(frames.values())
        pstates = reconstruct_vector_potential([n * dt for n in frames], snaps)
        ref = l2_norm(state.b)
        worst = 0.0
        for ps, fr in zip(pstates, snaps):
            mapped = potential_to_fields(ps)
            worst = max(worst, l2_norm(mapped.b - fr.b) / ref)
        assert worst <= 1e-8

    def test_round_trip_gauge_class(self, cube16, rng):
        # two reconstructions of the same trajectory differ by a static gradient
        from wavepot.maxwell import gauge_shift_potential
        from conftest import smooth_scalar

        x, _, _ = np.meshgrid(*[cube16.axis_coordinates(a) for a in range(3)], indexing="ij")
        zero = np.zeros_like(x)
        e = VectorSampleField3(cube16, np.stack([zero, np.cos(x), zero]))
        b = VectorSampleField3(cube16, np.stack([zero, zero, np.cos(x)]))
        steps = 25
        dt = 1e-3
        frames = {}
        run_rk4(EMState(e, b, 1.0), SourceSpec.vacuum(), dt, steps, sink=frames.__setitem__)
        first = next(reconstruct_vector_potential([n * dt for n in frames], frames.values()))
        shifted0 = gauge_shift_potential(first, smooth_scalar(cube16, rng))
        diff = shifted0.a - first.a
        assert max_norm(curl(diff)) <= 1e-11  # pure gradient has no curl
