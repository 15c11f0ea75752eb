import numpy as np
import pytest

from conftest import band_limited, smooth_vector
from wavepot.errors import IncompatibleRhsError
from wavepot.grids import (
    ComplexSampleField,
    Grid,
    ScalarSampleField,
    VectorSampleField3,
    l2_norm,
    max_norm,
)
from wavepot.maxwell import (
    EMState,
    SourceSpec,
    potential_to_fields,
    run_rk4,
)
from wavepot.operators import curl, divergence
from wavepot.reconstruction import (
    TrajectoryRecord,
    curl_inverse,
    reconstruct_phi,
    reconstruct_vector_potential,
    solve_elliptic,
    time_integrate,
)
from wavepot.schrodinger import (
    PotentialSpec,
    QuantumParams,
    WaveFunction,
    dense_eigensystem,
    eigenpairs_small,
    l_operator_array,
    propagate_cn,
)
from wavepot.wavepotential import gauge_shift, stationary_phi, to_wavefunction

PARAMS = QuantumParams(1.0, 1.0)


class TestTrajectoryRecord:
    def test_needs_two_samples(self, grid64):
        psi = ComplexSampleField.zeros(grid64)
        with pytest.raises(ValueError, match="two samples"):
            TrajectoryRecord.of_waves([0.0], [psi])

    def test_rejects_nonuniform_times(self, grid64):
        psi = ComplexSampleField.zeros(grid64)
        with pytest.raises(ValueError, match="uniform"):
            TrajectoryRecord.of_waves([0.0, 1.0, 2.5], [psi, psi, psi])

    def test_rejects_nonzero_start(self, grid64):
        psi = ComplexSampleField.zeros(grid64)
        with pytest.raises(ValueError, match="t = 0"):
            TrajectoryRecord.of_waves([1.0, 2.0], [psi, psi])

    def test_dt_property(self, grid64):
        psi = ComplexSampleField.zeros(grid64)
        traj = TrajectoryRecord.of_waves([0.0, 0.5, 1.0], [psi, psi, psi])
        assert traj.dt == 0.5

    def test_short_last_interval_integrates_exactly(self, grid64):
        # an off-stride record: frames at steps 0, 2, 4, 5 of a dt = 0.25 run
        psi = ComplexSampleField.zeros(grid64)
        traj = TrajectoryRecord.of_waves([0.0, 0.5, 1.0, 1.25], [psi] * 4)
        assert traj.dt == 0.5
        out = traj.cumulative_integral(2.0 * traj.times[:, None])
        assert np.allclose(out[:, 0], traj.times**2, rtol=0.0, atol=1e-15)


class TestTimeIntegrate:
    def test_constant_integrand_exact(self):
        samples = np.full((11, 4), 3.0)
        out = time_integrate(samples, 0.1)
        for n in range(11):
            assert np.allclose(out[n], 3.0 * 0.1 * n, atol=1e-14)

    def test_sine_second_order(self):
        omega = 3.0
        errs = []
        for n_samples in (101, 201):
            ts = np.linspace(0.0, 1.0, n_samples)
            vals = np.sin(omega * ts)[:, None]
            out = time_integrate(vals, ts[1] - ts[0])
            exact = (1 - np.cos(omega * ts)) / omega
            errs.append(np.max(np.abs(out[:, 0] - exact)))
        assert 3.6 <= errs[0] / errs[1] <= 4.4

    def test_single_pair_is_trapezoid(self):
        out = time_integrate(np.array([[2.0], [4.0]]), 0.5)
        assert out[1, 0] == pytest.approx(0.5 * 0.5 * 6.0)


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
        e0, psi0 = eigenpairs_small(V, PARAMS, 1, eig=eig)[0]
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

    def test_indefinite_potential_fallback(self, grid64, rng):
        V = PotentialSpec.from_expression("0-1.5*cos(2*pi*x/L)", grid64, {"L": grid64.lengths[0]})
        rhs = ScalarSampleField(grid64, band_limited(grid64, rng))
        # project out numerical zero modes if any were found by the dense check
        sol = solve_elliptic(V, rhs, PARAMS)
        res = l_operator_array(sol.values, V.sampled.values, grid64, PARAMS, "spectral")
        rel = np.linalg.norm((res - rhs.values).ravel()) / np.linalg.norm(rhs.values.ravel())
        assert rel <= 1e-10

    def test_minimum_norm_solution(self, grid64, rng):
        V = PotentialSpec.zero(grid64)
        f = band_limited(grid64, rng)
        f -= f.mean()
        sol = solve_elliptic(V, ScalarSampleField(grid64, f), PARAMS)
        assert abs(sol.values.mean()) <= 1e-12 * max_norm(sol)


class TestReconstructPhi:
    def test_stationary_trajectory(self):
        grid = Grid.line(128, 20.0)
        V = PotentialSpec.from_expression("0.5*(x-10)^2", grid)
        eig = dense_eigensystem(V, PARAMS)
        e0, psi0 = eigenpairs_small(V, PARAMS, 1, eig=eig)[0]
        dt = 1e-3
        times = np.arange(801) * dt
        psis = [
            ComplexSampleField(grid, psi0.values * np.exp(-1j * e0 * t / PARAMS.hbar))
            for t in times
        ]
        traj = TrajectoryRecord.of_waves(times, psis)
        states = reconstruct_phi(traj, V, PARAMS)
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
        traj = TrajectoryRecord.of_waves([0.0, 1e-3], psis)
        states = reconstruct_phi(traj, V, PARAMS)
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
        traj = TrajectoryRecord.of_waves(
            [n * 1e-3 for n in frames], [w.psi for w in frames.values()]
        )
        states = reconstruct_phi(traj, V, PARAMS)
        worst = max(
            l2_norm(to_wavefunction(st).psi - fr) for st, fr in zip(states, traj.frames)
        )
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
        traj = TrajectoryRecord.of_waves(
            [n * 1e-3 for n in frames], [w.psi for w in frames.values()]
        )
        states = reconstruct_phi(traj, V, PARAMS)
        shifted = gauge_shift(states[0], ScalarSampleField.full(grid, 0.7))
        diff = shifted.phi - states[0].phi
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
        traj = TrajectoryRecord.of_fields([0.0, 0.1, 0.2], [state, state, state])
        pstates = reconstruct_vector_potential(traj)
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
        traj = TrajectoryRecord.of_fields(times, frames)
        pstates = reconstruct_vector_potential(traj)
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
        traj = TrajectoryRecord.of_fields([n * dt for n in frames], snaps)
        pstates = reconstruct_vector_potential(traj)
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
        traj = TrajectoryRecord.of_fields([n * dt for n in frames], list(frames.values()))
        pstates = reconstruct_vector_potential(traj)
        shifted0 = gauge_shift_potential(pstates[0], smooth_scalar(cube16, rng))
        diff = shifted0.a - pstates[0].a
        assert max_norm(curl(diff)) <= 1e-11  # pure gradient has no curl
