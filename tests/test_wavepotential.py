import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import band_limited
from test_acceptance import report
from wavepot.errors import GaugeError, NonFiniteSampleError, StabilityError
from wavepot.grids import ComplexSampleField, Grid, ScalarSampleField, l2_norm, max_norm
from wavepot.schrodinger import (
    PotentialSpec,
    QuantumParams,
    dense_eigensystem,
    eigenpairs_small,
    exact_propagate_small,
    hamiltonian_array,
    max_energy_bound,
    real_l_operator,
)
from wavepot.wavepotential import (
    DENSE_L_LIMIT,
    PhiState,
    energy_density,
    gauge_shift,
    lagrangian_density,
    phi_acceleration,
    run_verlet,
    stable_dt,
    stationary_phi,
    to_wavefunction,
)

PARAMS = QuantumParams(1.0, 1.0)


@pytest.fixture(scope="module")
def harmonic():
    grid = Grid.line(128, 20.0)
    V = PotentialSpec.from_expression("0.5*(x-10)^2", grid)
    eig = dense_eigensystem(V, PARAMS)
    pairs = eigenpairs_small(V, PARAMS, 3, eig=eig)
    return grid, V, eig, pairs


def make_state(grid, V, phi, phi_dot=None, params=PARAMS):
    if phi_dot is None:
        phi_dot = np.zeros(grid.shape)
    return PhiState(
        ScalarSampleField(grid, phi), ScalarSampleField(grid, phi_dot), params, V
    )


class TestAcceleration:
    def test_zero_state(self, grid64):
        st0 = make_state(grid64, PotentialSpec.zero(grid64), np.zeros(grid64.shape))
        assert max_norm(phi_acceleration(st0)) == 0.0

    def test_single_mode_free(self, grid64):
        V = PotentialSpec.zero(grid64)
        x = grid64.axis_coordinates(0)
        k = 2 * np.pi / grid64.lengths[0]
        ek = PARAMS.hbar**2 * k**2 / (2 * PARAMS.mass)
        st0 = make_state(grid64, V, np.cos(k * x))
        acc = phi_acceleration(st0)
        expected = -((ek / PARAMS.hbar) ** 2) * st0.phi.values
        # roundoff floor scales with the double-operator range (E_max/hbar)^2
        floor = (max_energy_bound(V, PARAMS) / PARAMS.hbar) ** 2
        assert np.max(np.abs(acc.values - expected)) <= 1e-15 * floor

    def test_eigenvector_of_harmonic(self, harmonic):
        grid, V, eig, pairs = harmonic
        e0, psi0 = pairs[0]
        st0 = make_state(grid, V, psi0.values)
        acc = phi_acceleration(st0)
        expected = -((e0 / PARAMS.hbar) ** 2) * psi0.values
        rel = np.max(np.abs(acc.values - expected)) / np.max(np.abs(expected))
        assert rel <= 1e-10


class TestStableDt:
    def test_free_particle_value(self):
        grid = Grid.line(64, 2 * np.pi)
        V = PotentialSpec.zero(grid)
        assert stable_dt(V, PARAMS) == pytest.approx(0.2 * 2.0 / 512.0, rel=1e-12)

    def test_doubling_points_quarters_dt(self):
        v32 = PotentialSpec.zero(Grid.line(32, 2 * np.pi))
        v64 = PotentialSpec.zero(Grid.line(64, 2 * np.pi))
        assert stable_dt(v32, PARAMS) / stable_dt(v64, PARAMS) == pytest.approx(4.0)

    def test_positive_potential_shrinks_dt(self, grid64):
        v0 = PotentialSpec.zero(grid64)
        v5 = PotentialSpec.from_expression("5", grid64)
        assert stable_dt(v5, PARAMS) < stable_dt(v0, PARAMS)


class TestVerlet:
    def test_refuses_unstable_dt(self, harmonic):
        grid, V, eig, pairs = harmonic
        st0 = stationary_phi(pairs[0][1], pairs[0][0], 0.0, PARAMS, V)
        with pytest.raises(StabilityError, match="budget"):
            run_verlet(st0, 10 * stable_dt(V, PARAMS), 1, sink=None)

    def test_discrete_frequency_matches_closed_form(self, harmonic):
        grid, V, eig, pairs = harmonic
        e1, psi1 = pairs[1]
        st0 = stationary_phi(psi1, e1, 0.0, PARAMS, V)
        dt = 0.5 * stable_dt(V, PARAMS)
        stepped = run_verlet(st0, dt, 1, sink=None)
        # phi after one step follows cos(Omega dt) with Omega = (2/dt) asin(dt E / 2 hbar)
        ratio = float(
            np.vdot(st0.phi.values, stepped.phi.values)
            / np.vdot(st0.phi.values, st0.phi.values)
        )
        omega = (2.0 / dt) * np.arcsin(dt * e1 / (2 * PARAMS.hbar))
        assert ratio == pytest.approx(np.cos(omega * dt), abs=1e-12)

    def test_time_reversal(self, harmonic, rng):
        grid, V, eig, pairs = harmonic
        st0 = make_state(grid, V, band_limited(grid, rng), band_limited(grid, rng))
        dt = 0.5 * stable_dt(V, PARAMS)
        forward = run_verlet(st0, dt, 20, sink=None)
        back = run_verlet(PhiState(forward.phi, -forward.phi_dot, PARAMS, V), dt, 20, sink=None)
        scale = max(max_norm(st0.phi), max_norm(st0.phi_dot))
        assert max_norm(back.phi - st0.phi) <= 1e-12 * scale
        assert max_norm(back.phi_dot + st0.phi_dot) <= 1e-12 * scale

    def test_energy_drift_over_10k_steps(self, harmonic):
        grid, V, eig, pairs = harmonic
        e0, psi0 = pairs[0]
        st0 = stationary_phi(psi0, e0, 0.0, PARAMS, V)
        dt = stable_dt(V, PARAMS)  # 0.2 x the hard bound
        energies = []

        def observer(steps, lphis, vels):
            for step, lphi, vel in zip(steps, lphis, vels):
                if step % 100:
                    continue
                kin = 0.5 * PARAMS.hbar * np.sum(vel**2)
                pot = 0.5 / PARAMS.hbar * np.sum(lphi**2)
                energies.append((kin + pot) * grid.cell_volume)

        run_verlet(st0, dt, 10_000, sink=None, observer=observer)
        energies = np.array(energies)
        drift = np.max(np.abs(energies - energies[0])) / energies[0]
        assert drift <= 1e-6


def allocating_verlet(state, dt, steps, method):
    """Kick-drift-kick on samples, written out with a new array per operation and
    L through the FFT closure: above DENSE_L_LIMIT points run_verlet's in-place
    step must match it byte for byte. Returns the (step, L phi, phi_dot) the
    observer should see at every step and the final (phi, phi_dot)."""
    lop = real_l_operator(state.grid, state.potential.sampled.values, state.params, method)
    neg_inv_hbar2 = -1.0 / state.params.hbar**2
    phi, vel = state.phi.values.copy(), state.phi_dot.values.copy()
    lphi = lop(phi)
    accel = lop(lphi) * neg_inv_hbar2
    seen = [(0, lphi.tobytes(), vel.tobytes())]
    for n in range(1, steps + 1):
        vel = vel + 0.5 * dt * accel
        phi = phi + dt * vel
        lphi = lop(phi)
        accel = lop(lphi) * neg_inv_hbar2
        vel = vel + 0.5 * dt * accel
        seen.append((n, lphi.tobytes(), vel.tobytes()))
    return seen, (phi.tobytes(), vel.tobytes())


def allocating_modal_verlet(state, dt, steps, method):
    """The same scheme on the coordinates a = Q^T phi, a_dot = Q^T phi_dot in L's
    eigenbasis, written out with a new array per operation: up to DENSE_L_LIMIT
    points run_verlet must match it byte for byte. The observer sees each step's
    mode coordinates (Lambda a, a_dot) of (L phi, phi_dot) as they are. Returns
    what the observer should see and the final (phi, phi_dot)."""
    grid = state.grid
    eig = dense_eigensystem(state.potential, state.params, method)
    lam = -eig.energies
    qt = eig.vectors.T.copy()
    half_kick = lam**2 * (-0.5 * dt / state.params.hbar**2)
    a = qt @ state.phi.values.reshape(grid.size)
    vel = qt @ state.phi_dot.values.reshape(grid.size)
    seen = []
    for n in range(steps + 1):
        if n:
            vel = vel + a * half_kick
            a = a + vel * dt
            vel = vel + a * half_kick
        seen.append((n, (lam * a).tobytes(), vel.tobytes()))
    return seen, ((a @ qt).tobytes(), (vel @ qt).tobytes())


def relative_gap(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


class TestInPlaceVerlet:
    @pytest.mark.parametrize("method", ["spectral", "central2"])
    @pytest.mark.parametrize(
        "grid, v",
        [
            (Grid.line(256, 20.0), "0.5*(x-10)^2"),
            (Grid((8, 16), (3.0, 5.0)), "1 + cos(2*pi*x/3)*sin(2*pi*y/5)"),
            (Grid.line(512, 20.0), "0.5*(x-10)^2"),
        ],
        ids=["dense-256", "dense-8x16", "fft-512"],
    )
    def test_matches_the_allocating_loop_bit_for_bit(self, grid, v, method, rng):
        V = PotentialSpec.from_expression(v, grid)
        params = QuantumParams(0.9, 1.1)
        st0 = make_state(grid, V, band_limited(grid, rng), band_limited(grid, rng), params)
        dt = stable_dt(V, params, method)
        if grid.size <= DENSE_L_LIMIT:
            seen, last = allocating_modal_verlet(st0, dt, 500, method)
        else:
            seen, last = allocating_verlet(st0, dt, 500, method)
        observed, frames = [], {}

        def observer(steps, lphis, vels):
            observed.extend(
                (n, lphi.tobytes(), vel.tobytes()) for n, lphi, vel in zip(steps, lphis, vels)
            )

        def sink(step, state):
            frames[step] = (state.phi.values.tobytes(), state.phi_dot.values.tobytes())

        final = run_verlet(st0, dt, 500, sink=sink, snapshot_stride=100, method=method,
                           observer=observer)
        assert observed == seen
        assert frames[0] == (st0.phi.values.tobytes(), st0.phi_dot.values.tobytes())
        assert frames[500] == last == (final.phi.values.tobytes(), final.phi_dot.values.tobytes())
        assert sorted(frames) == [0, 100, 200, 300, 400, 500]


SMALL_GRIDS = pytest.mark.parametrize(
    "grid, v",
    [
        (Grid.line(256, 20.0), "0.5*(x-10)^2"),
        (Grid((8, 16), (3.0, 5.0)), "1 + cos(2*pi*x/3)*sin(2*pi*y/5)"),
        (Grid((4, 8, 8), (2.0, 3.0, 4.0)), "1 + cos(2*pi*x/2)*sin(2*pi*z/4) + y"),
    ],
    ids=["1d-256", "2d-8x16", "3d-4x8x8"],
)


class TestModalVerlet:
    """Up to DENSE_L_LIMIT points run_verlet steps the normal modes of L."""

    @pytest.mark.parametrize("method", ["spectral", "central2"])
    @SMALL_GRIDS
    def test_eigenbasis_diagonalises_the_closure(self, grid, v, method, rng):
        # the modes run_verlet steps are dense_eigensystem's, with Lambda = -E
        V = PotentialSpec.from_expression(v, grid)
        params = QuantumParams(1.3, 0.7)
        lop = real_l_operator(grid, V.sampled.values, params, method)
        eig = dense_eigensystem(V, params, method)
        lam, q = -eig.energies, eig.vectors
        assert np.all(np.diff(lam) <= 0)
        assert np.max(np.abs(q.T @ q - np.eye(grid.size))) <= 1e-13
        f = rng.standard_normal((3,) + grid.shape)
        rebuilt = ((f.reshape(3, -1) @ q) * lam) @ q.T
        assert relative_gap(rebuilt, lop(f).reshape(3, -1)) <= 1e-13

    @pytest.mark.parametrize("method", ["spectral", "central2"])
    @SMALL_GRIDS
    def test_agrees_with_the_sampled_verlet(self, grid, v, method, rng):
        # the same kick-drift-kick through the FFT closure on the samples
        V = PotentialSpec.from_expression(v, grid)
        params = QuantumParams(0.9, 1.1)
        st0 = make_state(grid, V, band_limited(grid, rng), band_limited(grid, rng), params)
        dt = stable_dt(V, params, method)
        seen, (phi_ref, vel_ref) = allocating_verlet(st0, dt, 500, method)
        observed = []

        def observer(steps, lphis, vels):
            observed.extend(
                (n, lphi.copy(), vel.copy()) for n, lphi, vel in zip(steps, lphis, vels)
            )

        final = run_verlet(st0, dt, 500, sink=None, method=method, observer=observer)
        assert [n for n, *_ in observed] == list(range(501))
        as_array = lambda b: np.frombuffer(b).reshape(grid.shape)
        assert relative_gap(final.phi.values, as_array(phi_ref)) <= 1e-12
        assert relative_gap(final.phi_dot.values, as_array(vel_ref)) <= 1e-12
        # the modal observer sees mode coordinates; Q maps them to samples
        qt = dense_eigensystem(V, params, method).vectors.T
        for (n, lphi, vel), (_, lphi_ref, vel_ref) in zip(observed, seen):
            assert relative_gap((lphi @ qt).reshape(grid.shape), as_array(lphi_ref)) <= 1e-12, n
            assert relative_gap((vel @ qt).reshape(grid.shape), as_array(vel_ref)) <= 1e-12, n

    @SMALL_GRIDS
    def test_observer_never_reaches_the_state(self, grid, v, rng):
        # the observer's blocks, scaled by Lambda in place and then overwritten
        # here, are copies: frames and the final state keep their bytes
        V = PotentialSpec.from_expression(v, grid)
        st0 = make_state(grid, V, band_limited(grid, rng), band_limited(grid, rng))
        dt = stable_dt(V, PARAMS)
        runs = []
        for observer in (None, lambda ns, lphis, vels: (lphis.fill(np.nan), vels.fill(np.inf))):
            frames = []
            final = run_verlet(st0, dt, 150, sink=lambda n, s: frames.append(
                (n, s.phi.values.tobytes(), s.phi_dot.values.tobytes())),
                snapshot_stride=40, observer=observer)
            runs.append((frames, final.phi.values.tobytes(), final.phi_dot.values.tobytes()))
        assert runs[0] == runs[1]
        assert [n for n, *_ in runs[0][0]] == [0, 40, 80, 120, 150]

    def test_zero_steps_return_the_initial_state(self, rng):
        grid = Grid.line(64, 20.0)
        V = PotentialSpec.from_expression("0.5*(x-10)^2", grid)
        st0 = make_state(grid, V, band_limited(grid, rng), band_limited(grid, rng))
        frames = {}
        final = run_verlet(st0, stable_dt(V, PARAMS), 0, sink=frames.__setitem__)
        assert final is frames[0] is st0

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("phi_scale, vel_scale", [(1e306, 0.0), (0.0, 1e307)],
                             ids=["displaced", "kicked"])
    def test_overflowing_acceleration_refused(self, phi_scale, vel_scale):
        # L(L phi) of the kicked state is 0 at first, but overflows a quarter period on
        grid = Grid.line(16, 20.0)
        V = PotentialSpec.from_expression("0.5*(x-10)^2", grid)
        shape = np.cos(2 * np.pi * grid.axis_coordinates(0) / 20.0)
        st0 = make_state(grid, V, phi_scale * shape, vel_scale * shape)
        frames = {}
        with pytest.raises(NonFiniteSampleError, match=r"overflows in \d+ of 16 modes of L"):
            run_verlet(st0, stable_dt(V, PARAMS), 10, sink=frames.__setitem__)
        assert not frames
        # a thousandth of it overflows nothing the step forms
        small = make_state(grid, V, 1e-3 * phi_scale * shape, 1e-3 * vel_scale * shape)
        final = run_verlet(small, stable_dt(V, PARAMS), 10, sink=None)
        assert np.isfinite(final.phi.values).all() and np.isfinite(final.phi_dot.values).all()


class TestLeapfrogOnPsi:
    @pytest.mark.parametrize("method", ["spectral", "central2"])
    @pytest.mark.parametrize(
        "grid, v",
        [
            (Grid.line(256, 20.0), "0.5*(x-10)^2 + 3*cos(x)"),
            (Grid((8, 16), (3.0, 5.0)), "1 + cos(2*pi*x/3)*sin(2*pi*y/5)"),
            (Grid((4, 8, 8), (2.0, 3.0, 4.0)), "1 + cos(2*pi*x/2)*sin(2*pi*z/4) + y"),
            (Grid((16, 32), (3.0, 5.0)), "1 + cos(2*pi*x/3)*sin(2*pi*y/5)"),
        ],
        ids=["modal-1d-256", "modal-2d-8x16", "modal-3d-4x8x8", "sampled-2d-16x32"],
    )
    def test_forward_map_commutes_with_stepping(self, grid, v, method, rng):
        # with q = -L phi = Re Psi and p = hbar phi_dot = Im Psi, kick-drift-kick on phi
        # is the symplectic leapfrog on (Re Psi, Im Psi) (Gray & Verosky, J. Chem. Phys.
        # 100, 5011 (1994)): p -= (h/2 hbar) H q; q += (h/hbar) H p; p -= (h/2 hbar) H q
        V = PotentialSpec.from_expression(v, grid)
        params = QuantumParams(1.3, 0.7)
        st0 = make_state(grid, V, band_limited(grid, rng), band_limited(grid, rng), params)
        h = stable_dt(V, params, method)
        frames = {}
        run_verlet(st0, h, 200, sink=frames.__setitem__, snapshot_stride=50, method=method)
        psi = to_wavefunction(st0, method).psi.values
        q, p = psi.real, psi.imag
        kick, drift = 0.5 * h / params.hbar, h / params.hbar

        def ham(f):
            return hamiltonian_array(f, V.sampled.values, grid, params, method)

        gaps = {}
        for n in range(1, 201):
            p = p - kick * ham(q)
            q = q + drift * ham(p)
            p = p - kick * ham(q)
            if n in frames:
                gaps[n] = relative_gap(to_wavefunction(frames[n], method).psi.values, q + 1j * p)
        worst = max(gaps.values())
        report(
            "phi-Verlet is the leapfrog on Psi",
            worst <= 1e-12,
            f"{grid.shape} {method}: worst relative gap {worst:.3e} over 200 steps (tol 1e-12)",
        )
        assert worst <= 1e-12, gaps


class TestVerletModifiedNorm:
    @pytest.mark.parametrize("method", ["spectral", "central2"])
    def test_modified_norm_conserved_to_roundoff(self, method):
        # with q = -L phi = Re Psi and p = hbar phi_dot = Im Psi, phi-Verlet is the
        # leapfrog q'' = -(H/hbar)^2 q, whose modified quadratic invariant
        # (Hairer, Lubich & Wanner, Geometric Numerical Integration, 2nd ed., 2006)
        # is N_h = ||Psi||^2 - (h/2 hbar)^2 ||H Re Psi||^2, while ||Psi||^2 moves at O(h^2)
        grid = Grid.line(256, 20.0)
        params = QuantumParams(1.3, 0.7)
        V = PotentialSpec.from_expression("0.5*(x-10)^2 + 3*cos(x)", grid)
        rng = np.random.default_rng(5)
        st0 = make_state(grid, V, band_limited(grid, rng), band_limited(grid, rng), params)
        h = stable_dt(V, params, method)
        lop = real_l_operator(grid, V.sampled.values, params, method)

        def norms(state):
            lphi = lop(state.phi.values)
            norm = np.sum(lphi**2 + (params.hbar * state.phi_dot.values) ** 2) * grid.cell_volume
            shift = (0.5 * h / params.hbar) ** 2 * np.sum(lop(lphi) ** 2) * grid.cell_volume
            return norm, norm - shift

        snaps = {}
        run_verlet(st0, h, 10_000, sink=snaps.__setitem__, snapshot_stride=1000, method=method)
        (n0, modified0), *rest = [norms(s) for s in snaps.values()]
        modified_drift = max(abs(m - modified0) for _, m in rest) / modified0
        norm_drift = max(abs(n - n0) for n, _ in rest) / n0
        report(
            "phi-Verlet modified norm",
            modified_drift <= 1e-12 and norm_drift >= 1e-7,
            f"{method}: modified norm drift {modified_drift:.3e} (tol 1e-12), "
            f"||Psi||^2 drift {norm_drift:.3e} (need >= 1e-7) over 10000 steps",
        )
        assert modified_drift <= 1e-12
        assert norm_drift >= 1e-7


class TestWaveFunctionMap:
    def test_zero_maps_to_zero(self, grid64):
        st0 = make_state(grid64, PotentialSpec.zero(grid64), np.zeros(grid64.shape))
        assert max_norm(to_wavefunction(st0).psi) == 0.0

    def test_free_mode_normalization(self, grid64):
        V = PotentialSpec.zero(grid64)
        x = grid64.axis_coordinates(0)
        k = 4 * np.pi / grid64.lengths[0]
        ek = PARAMS.hbar**2 * k**2 / (2 * PARAMS.mass)
        st0 = make_state(grid64, V, np.cos(k * x) / ek)
        psi = to_wavefunction(st0).psi
        assert np.max(np.abs(psi.values - np.cos(k * x))) <= 1e-12

    def test_kernel_direction_produces_zero(self, grid64):
        V = PotentialSpec.zero(grid64)
        st0 = make_state(grid64, V, np.full(grid64.shape, 3.0))
        assert max_norm(to_wavefunction(st0).psi) <= 1e-13


class TestStationary:
    def test_t0_and_half_period(self, harmonic):
        grid, V, eig, pairs = harmonic
        e0, psi0 = pairs[0]
        st0 = stationary_phi(psi0, e0, 0.0, PARAMS, V)
        assert np.allclose(st0.phi.values, psi0.values / e0)
        assert np.all(st0.phi_dot.values == 0.0)
        psi_t0 = to_wavefunction(st0).psi
        assert np.max(np.abs(psi_t0.values - psi0.values)) <= 1e-12

        half = stationary_phi(psi0, e0, np.pi * PARAMS.hbar / e0, PARAMS, V)
        psi_half = to_wavefunction(half).psi
        assert np.max(np.abs(psi_half.values + psi0.values)) <= 1e-10

    def test_field_equation_residual_along_trajectory(self, harmonic):
        grid, V, eig, pairs = harmonic
        e1, psi1 = pairs[1]
        scale = (max_energy_bound(V, PARAMS) / PARAMS.hbar) ** 2 * max_norm(
            stationary_phi(psi1, e1, 0.0, PARAMS, V).phi
        )
        for t in (0.0, 0.7, 2.1):
            st_t = stationary_phi(psi1, e1, t, PARAMS, V)
            acc = phi_acceleration(st_t)
            expected = -((e1 / PARAMS.hbar) ** 2) * st_t.phi.values
            assert np.max(np.abs(acc.values - expected)) <= 1e-12 * scale

    def test_zero_energy_rejected(self, grid64):
        V = PotentialSpec.zero(grid64)
        e0, psi0 = eigenpairs_small(V, PARAMS, 1)[0]
        with pytest.raises(ValueError, match="gauge"):
            stationary_phi(psi0, e0, 0.0, PARAMS, V)


class TestEnergyDensity:
    def test_zero_state(self, grid64):
        st0 = make_state(grid64, PotentialSpec.zero(grid64), np.zeros(grid64.shape))
        dens = energy_density(st0)
        assert max_norm(dens.total) == 0.0

    def test_stationary_total_energy_constant(self, harmonic):
        grid, V, eig, pairs = harmonic
        e0, psi0 = pairs[0]
        psi_norm_sq = float(np.sum(psi0.values**2) * grid.cell_volume)
        expected = psi_norm_sq / (2 * PARAMS.hbar)
        for t in (0.0, 1.3, 4.9):
            dens = energy_density(stationary_phi(psi0, e0, t, PARAMS, V))
            total = float(np.sum(dens.total.values) * grid.cell_volume)
            assert total == pytest.approx(expected, rel=1e-10)

    @given(seed=st.integers(0, 2**16))
    def test_probability_identity_random_states(self, seed):
        rng = np.random.default_rng(seed)
        grid = Grid.line(64, 2 * np.pi)
        V = PotentialSpec.from_expression("1+cos(2*pi*x/L)", grid, {"L": grid.lengths[0]})
        st0 = make_state(grid, V, band_limited(grid, rng), band_limited(grid, rng))
        psi = to_wavefunction(st0).psi.values
        dens = energy_density(st0)
        lhs = np.abs(psi) ** 2
        rhs = 2 * PARAMS.hbar * dens.total.values
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(np.max(lhs), 1e-30)

    def test_pointwise_split_nonnegative(self, harmonic, rng):
        grid, V, eig, pairs = harmonic
        st0 = make_state(grid, V, band_limited(grid, rng), band_limited(grid, rng))
        dens = energy_density(st0)
        assert dens.kinetic.values.min() >= 0.0
        assert dens.potential.values.min() >= 0.0
        assert np.allclose(
            dens.total.values, dens.kinetic.values + dens.potential.values, atol=0
        )


class TestLagrangian:
    def test_zero_state(self, grid64):
        st0 = make_state(grid64, PotentialSpec.zero(grid64), np.zeros(grid64.shape))
        assert max_norm(lagrangian_density(st0)) == 0.0

    def test_equal_split_phase_integrates_to_zero(self, harmonic):
        grid, V, eig, pairs = harmonic
        e0, psi0 = pairs[0]
        t = np.pi * PARAMS.hbar / (4 * e0)  # cos^2 = sin^2 here
        lag = lagrangian_density(stationary_phi(psi0, e0, t, PARAMS, V))
        total = float(np.sum(lag.values) * grid.cell_volume)
        scale = float(np.sum(np.abs(lag.values)) * grid.cell_volume) + 1e-30
        assert abs(total) <= 1e-10 * max(scale, 1.0)

    def test_kinetic_minus_potential(self, harmonic, rng):
        grid, V, eig, pairs = harmonic
        st0 = make_state(grid, V, band_limited(grid, rng), band_limited(grid, rng))
        dens = energy_density(st0)
        lag = lagrangian_density(st0)
        assert np.allclose(
            lag.values, dens.kinetic.values - dens.potential.values, atol=1e-15
        )


class TestGauge:
    def test_constant_shift_free_particle(self, grid64, rng):
        V = PotentialSpec.zero(grid64)
        st0 = make_state(grid64, V, band_limited(grid64, rng), band_limited(grid64, rng))
        shifted = gauge_shift(st0, ScalarSampleField.full(grid64, 2.5))
        psi_a = to_wavefunction(st0).psi.values
        psi_b = to_wavefunction(shifted).psi.values
        assert np.max(np.abs(psi_a - psi_b)) <= 1e-13 * max(np.max(np.abs(psi_a)), 1.0)

    def test_zero_shift_is_identity(self, grid64, rng):
        V = PotentialSpec.zero(grid64)
        st0 = make_state(grid64, V, band_limited(grid64, rng))
        shifted = gauge_shift(st0, ScalarSampleField.zeros(grid64))
        assert np.all(shifted.phi.values == st0.phi.values)

    def test_non_kernel_alpha_rejected_with_residual(self, harmonic):
        grid, V, eig, pairs = harmonic
        st0 = stationary_phi(pairs[0][1], pairs[0][0], 0.0, PARAMS, V)
        with pytest.raises(GaugeError) as err:
            gauge_shift(st0, ScalarSampleField.full(grid, 1.0))
        assert err.value.residual > err.value.bound
        assert "residual" not in repr(err.value.bound)  # bound is a number


class TestForwardEquivalence:
    def test_trajectory_matches_exact_propagator(self, harmonic):
        grid, V, eig, pairs = harmonic
        e0, psi0 = pairs[0]
        st0 = stationary_phi(psi0, e0, 0.0, PARAMS, V)
        dt = 0.1 * stable_dt(V, PARAMS)
        steps = 2000
        frames = {}
        run_verlet(st0, dt, steps, sink=frames.__setitem__, snapshot_stride=500)
        psi_init = to_wavefunction(st0)
        worst = 0.0
        for n, snap in frames.items():
            psi_phi = to_wavefunction(snap).psi
            psi_ref = exact_propagate_small(psi_init, V, n * dt, eig=eig).psi
            worst = max(worst, l2_norm(ComplexSampleField(grid, psi_phi.values - psi_ref.values)))
        assert worst <= 1e-7

    def test_order_two_in_dt(self, harmonic):
        grid, V, eig, pairs = harmonic
        e1, psi1 = pairs[1]
        st0 = stationary_phi(psi1, e1, 0.0, PARAMS, V)
        psi_init = to_wavefunction(st0)
        t_final = 0.4
        errs = []
        for steps in (400, 800):
            dt = t_final / steps
            psi_phi = to_wavefunction(run_verlet(st0, dt, steps, sink=None)).psi
            psi_ref = exact_propagate_small(psi_init, V, t_final, eig=eig).psi
            errs.append(l2_norm(ComplexSampleField(grid, psi_phi.values - psi_ref.values)))
        assert 3.6 <= errs[0] / errs[1] <= 4.4


class TestRescaling:
    def test_hbar_absorbed_into_background(self):
        """A run at (hbar, m, V(x)) maps onto a run at (1, m, V(hbar x)).

        Substituting x = hbar*y, t = hbar*tau, phi = sqrt(hbar)*chi turns the
        field theory into the hbar=1 theory on the shrunk box; the discrete
        operators map exactly, so the mapped trajectories agree to roundoff
        and the mapped run satisfies the original discrete two-step recurrence.
        """
        hbar = 1.5
        n = 128
        length = 16.0
        params = QuantumParams(hbar, 1.0)
        grid = Grid.line(n, length)
        V = PotentialSpec.from_expression("0.5*(x-8)^2", grid)
        x = grid.axis_coordinates(0)
        phi0 = np.exp(-((x - 8.0) ** 2) / 2.0)
        state = PhiState(
            ScalarSampleField(grid, phi0), ScalarSampleField.zeros(grid), params, V
        )

        params_r = QuantumParams(1.0, 1.0)
        grid_r = Grid.line(n, length / hbar)
        V_r = PotentialSpec.from_expression(
            "0.5*(hb*x-8)^2", grid_r, {"hb": hbar}
        )
        y = grid_r.axis_coordinates(0)
        chi0 = np.exp(-((hbar * y - 8.0) ** 2) / 2.0) / np.sqrt(hbar)
        state_r = PhiState(
            ScalarSampleField(grid_r, chi0), ScalarSampleField.zeros(grid_r), params_r, V_r
        )

        dt = 0.5 * stable_dt(V, params)
        dt_r = dt / hbar
        steps = 400
        snaps, snaps_r = {}, {}
        run_verlet(state, dt, steps, sink=snaps.__setitem__, snapshot_stride=100)
        run_verlet(state_r, dt_r, steps, sink=snaps_r.__setitem__, snapshot_stride=100)

        # mapped trajectories agree to roundoff
        scale = max_norm(snaps[0].phi)
        for s, s_r in zip(snaps.values(), snaps_r.values()):
            mapped = np.sqrt(hbar) * s_r.phi.values
            assert np.max(np.abs(mapped - s.phi.values)) <= 1e-9 * scale

        # mapped run satisfies the original discrete Stoermer recurrence
        dense = {}
        run_verlet(state_r, dt_r, 2, sink=dense.__setitem__)
        phi_m = [np.sqrt(hbar) * s.phi.values for s in dense.values()]
        second_diff = (phi_m[2] - 2 * phi_m[1] + phi_m[0]) / dt**2
        mid = PhiState(
            ScalarSampleField(grid, phi_m[1]), ScalarSampleField.zeros(grid), params, V
        )
        residual = second_diff - phi_acceleration(mid).values
        emax = max_energy_bound(V, params)
        assert np.max(np.abs(residual)) <= 1e-12 * (emax / hbar) ** 2 * scale
