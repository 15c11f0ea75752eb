import numpy as np
import pytest

from conftest import band_limited
from wavepot import schrodinger
from wavepot.grids import ComplexSampleField, Grid, ScalarSampleField, l2_norm
from wavepot.schrodinger import (
    PotentialSpec,
    QuantumParams,
    WaveFunction,
    apply_hamiltonian,
    canonical_rhs,
    crank_nicolson_step,
    dense_eigensystem,
    eigenpairs_small,
    exact_propagate_small,
    generalized_rhs,
    hamiltonian_canonical,
    norm_functional,
    max_energy_bound,
    propagate_cn,
)

PARAMS = QuantumParams(1.0, 1.0)


@pytest.fixture(scope="module")
def harmonic():
    grid = Grid.line(128, 20.0)
    V = PotentialSpec.from_expression("0.5*(x-10)^2", grid)
    eig = dense_eigensystem(V, PARAMS)
    return grid, V, eig


def plane_wave(grid: Grid, mode: int = 1) -> WaveFunction:
    x = grid.axis_coordinates(0)
    k = 2 * np.pi * mode / grid.lengths[0]
    return WaveFunction(ComplexSampleField(grid, np.exp(1j * k * x)), PARAMS)


class TestQuantumParams:
    @pytest.mark.parametrize("hbar, mass", [(1e200, 1.0), (1.0, 5e-324)], ids=["hbar", "mass"])
    def test_overflowing_kinetic_coefficient_rejected(self, hbar, mass):
        # hbar = 1e200 made hbar**2 raise OverflowError at the first apply of L, and a
        # record carrying it ended compare's phi_to_psi in a traceback
        with pytest.raises(ValueError, match="hbar\\^2/2m overflows"):
            QuantumParams(hbar, mass)


class TestApplyHamiltonian:
    def test_plane_wave_is_eigenmode(self, grid64):
        psi = plane_wave(grid64)
        k = 2 * np.pi / grid64.lengths[0]
        out = apply_hamiltonian(psi, PotentialSpec.zero(grid64))
        expected = (PARAMS.hbar**2 * k**2 / (2 * PARAMS.mass)) * psi.psi.values
        assert np.max(np.abs(out.values - expected)) <= 1e-12

    def test_constant_state_constant_potential(self, grid64):
        psi = WaveFunction(ComplexSampleField(grid64, np.full(grid64.shape, 1.0 + 0j)), PARAMS)
        V = PotentialSpec.from_expression("3.5", grid64)
        out = apply_hamiltonian(psi, V)
        assert np.allclose(out.values, 3.5, atol=1e-12)

    def test_harmonic_ground_state_energy(self, harmonic):
        grid, V, eig = harmonic
        x = grid.axis_coordinates(0)
        gauss = np.exp(-((x - 10.0) ** 2) / 2.0)
        psi = WaveFunction(ComplexSampleField(grid, gauss.astype(complex)), PARAMS)
        out = apply_hamiltonian(psi, V)
        err = l2_norm(ComplexSampleField(grid, out.values - 0.5 * gauss)) / l2_norm(psi.psi)
        assert err <= 1e-6

    def test_self_adjointness(self, grid64, rng):
        V = PotentialSpec.from_expression("cos(2*pi*x/L)", grid64, {"L": grid64.lengths[0]})
        f = ComplexSampleField(grid64, band_limited(grid64, rng) + 0j)
        g = ComplexSampleField(grid64, band_limited(grid64, rng) + 0j)
        hf = apply_hamiltonian(WaveFunction(f, PARAMS), V).values
        hg = apply_hamiltonian(WaveFunction(g, PARAMS), V).values
        vol = grid64.cell_volume
        lhs = np.vdot(f.values, hg) * vol
        rhs = np.vdot(hf, g.values) * vol
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    def test_potential_rejects_time_dependence(self, grid64):
        with pytest.raises(ValueError, match="time-independent"):
            PotentialSpec.from_expression("t*x", grid64)


class TestRealImaginarySystem:
    def test_zero_input(self, grid64):
        V = PotentialSpec.zero(grid64)
        z = ScalarSampleField.zeros(grid64)
        out = canonical_rhs(z, z, V, PARAMS)
        assert np.all(out[0].values == 0) and np.all(out[1].values == 0)

    def test_reassembly_matches_complex_flow(self, grid64, rng):
        V = PotentialSpec.from_expression("cos(2*pi*x/L)", grid64, {"L": grid64.lengths[0]})
        varphi = ScalarSampleField(grid64, band_limited(grid64, rng))
        p = ScalarSampleField(grid64, band_limited(grid64, rng))
        dphi, dp = canonical_rhs(varphi, p, V, PARAMS)
        psi = WaveFunction(ComplexSampleField.from_parts(varphi, p), PARAMS)
        flow = apply_hamiltonian(psi, V).values / (1j * PARAMS.hbar)
        err = np.max(np.abs(dphi.values + 1j * dp.values - flow))
        assert err <= 1e-13 * max(np.max(np.abs(flow)), 1.0)

    def test_plane_wave_momentum_part(self, grid64):
        V = PotentialSpec.zero(grid64)
        x = grid64.axis_coordinates(0)
        k = 2 * np.pi / grid64.lengths[0]
        p = ScalarSampleField(grid64, np.cos(k * x))
        dphi, dp = canonical_rhs(ScalarSampleField.zeros(grid64), p, V, PARAMS)
        ek = PARAMS.hbar**2 * k**2 / (2 * PARAMS.mass)
        assert np.max(np.abs(dphi.values - (ek / PARAMS.hbar) * p.values)) <= 1e-12
        assert np.max(np.abs(dp.values)) <= 1e-12

    def test_generalized_equals_canonical(self, grid64, rng):
        params = QuantumParams(0.7, 1.3)
        V = PotentialSpec.from_expression("cos(2*pi*x/L)+1", grid64, {"L": grid64.lengths[0]})
        for _ in range(20):
            varphi = ScalarSampleField(grid64, band_limited(grid64, rng))
            p = ScalarSampleField(grid64, band_limited(grid64, rng))
            a = canonical_rhs(varphi, p, V, params)
            b = generalized_rhs(varphi, p, V, params)
            scale = max(np.max(np.abs(a[0].values)), np.max(np.abs(a[1].values)), 1.0)
            assert np.max(np.abs(a[0].values - b[0].values)) <= 1e-13 * scale
            assert np.max(np.abs(a[1].values - b[1].values)) <= 1e-13 * scale


class TestEnergyFunctionals:
    def test_zero_state(self, grid64):
        V = PotentialSpec.zero(grid64)
        z = ScalarSampleField.zeros(grid64)
        assert hamiltonian_canonical(z, z, V, PARAMS) == 0.0

    def test_matches_operator_expectation(self, grid64):
        V = PotentialSpec.zero(grid64)
        psi = plane_wave(grid64)
        h = hamiltonian_canonical(psi.psi.real, psi.psi.imag, V, PARAMS)
        hpsi = apply_hamiltonian(psi, V).values
        expectation = float(np.vdot(psi.psi.values, hpsi).real * grid64.cell_volume)
        assert abs(h - expectation / (2 * PARAMS.hbar)) <= 1e-12 * max(abs(h), 1.0)

    def test_norm_functional_values(self, grid64):
        psi0 = WaveFunction(ComplexSampleField.zeros(grid64), PARAMS)
        assert norm_functional(psi0) == 0.0
        ones = WaveFunction(
            ComplexSampleField(grid64, np.ones(grid64.shape, dtype=complex)), PARAMS
        )
        volume = grid64.lengths[0]
        assert norm_functional(ones) == pytest.approx(volume / (2 * PARAMS.hbar))


class TestCrankNicolson:
    def test_norm_preserved_per_step(self, harmonic):
        grid, V, eig = harmonic
        x = grid.axis_coordinates(0)
        psi = WaveFunction(
            ComplexSampleField(grid, np.exp(-((x - 12) ** 2) / 2) + 0j), PARAMS
        )
        stepped = crank_nicolson_step(psi, V, 1e-3)
        drift = abs(norm_functional(stepped) - norm_functional(psi)) / norm_functional(psi)
        assert drift <= 1e-12

    def test_eigenstate_pure_phase(self, harmonic):
        grid, V, eig = harmonic
        e0, psi0 = eigenpairs_small(V, PARAMS, 1, eig=eig)[0]
        psi = WaveFunction(ComplexSampleField(grid, psi0.values.astype(complex)), PARAMS)
        dt = 1e-3
        stepped = crank_nicolson_step(psi, V, dt)
        overlap = np.vdot(psi.psi.values, stepped.psi.values) / np.vdot(
            psi.psi.values, psi.psi.values
        )
        assert abs(abs(overlap) - 1.0) <= 1e-10
        assert np.angle(overlap) == pytest.approx(-2 * np.arctan(dt * e0 / 2), abs=1e-10)

    def test_small_dt_expansion(self, harmonic):
        grid, V, eig = harmonic
        x = grid.axis_coordinates(0)
        psi = WaveFunction(
            ComplexSampleField(grid, np.exp(-((x - 9) ** 2)) + 0j), PARAMS
        )
        hpsi = apply_hamiltonian(psi, V).values
        errs = []
        for dt in (2e-3, 1e-3):
            stepped = crank_nicolson_step(psi, V, dt)
            predicted = psi.psi.values + dt * hpsi / (1j * PARAMS.hbar)
            errs.append(np.max(np.abs(stepped.psi.values - predicted)) / dt)
        # error after removing the linear term is O(dt): halves with dt
        assert errs[1] / errs[0] == pytest.approx(0.5, abs=0.1)

    def test_free_plane_wave_phase_advance(self, grid64):
        V = PotentialSpec.zero(grid64)
        psi = plane_wave(grid64, mode=2)
        k = 4 * np.pi / grid64.lengths[0]
        ek = PARAMS.hbar**2 * k**2 / (2 * PARAMS.mass)
        dt = 5e-3
        stepped = crank_nicolson_step(psi, V, dt)
        ratio = stepped.psi.values / psi.psi.values
        assert np.allclose(np.angle(ratio), -2 * np.arctan(dt * ek / (2 * PARAMS.hbar)), atol=1e-10)


def cayley_iterates(eig, psi: WaveFunction, dt: float, steps: int) -> np.ndarray:
    """Exact discrete Cayley iterates ((1 - i a E)/(1 + i a E))^n psi, a = dt / 2 hbar."""
    a = dt / (2.0 * psi.params.hbar)
    ratio = (1.0 - 1j * a * eig.energies) / (1.0 + 1j * a * eig.energies)
    coeffs = eig.vectors.T @ psi.psi.values.ravel()
    return (eig.vectors @ (ratio**steps * coeffs)).reshape(psi.grid.shape)


def cayley_error_limit(psi: WaveFunction, V: PotentialSpec, dt: float, steps: int, method: str):
    """Each solve leaves a residual <= tol ||b|| (default tol 1e-12); the inverse
    Cayley matrix has norm <= 1, so errors add along the steps."""
    h = apply_hamiltonian(psi, V, method).values
    b = psi.psi.values - 1j * dt / (2.0 * psi.params.hbar) * h
    growth = np.linalg.norm(b) / np.linalg.norm(psi.psi.values)
    return 2 * steps * 1e-12 * growth + 1e-11


def count_cayley_iterations(monkeypatch) -> list[int]:
    """One entry per Cayley solve: how often CGLS applied the operator."""
    solves = []
    real = schrodinger.normal_equations_cg

    def counting(apply_op, *args, **kwargs):
        solves.append(0)

        def counted(x):
            solves[-1] += 1
            return apply_op(x)

        return real(counted, *args, **kwargs)

    monkeypatch.setattr(schrodinger, "normal_equations_cg", counting)
    return solves


@pytest.fixture(scope="module")
def fine_harmonic():
    grid = Grid.line(2048, 20.0)
    V = PotentialSpec.from_expression("0.5*(x-10)^2", grid)
    x = grid.axis_coordinates(0)
    packet = ComplexSampleField(grid, np.exp(-((x - 12) ** 2) / 2) + 0j)
    psi = WaveFunction(ComplexSampleField(grid, packet.values / l2_norm(packet)), PARAMS)
    return V, psi, dense_eigensystem(V, PARAMS)


class TestCayleyAgainstDenseIterates:
    @pytest.mark.parametrize("dt", [1e-2, 2e-2, 1e-1])
    def test_moderate_dt_on_fine_grid(self, fine_harmonic, dt):
        V, psi, eig = fine_harmonic
        steps = 10
        state = propagate_cn(psi, V, dt, steps, sink=None)
        exact = cayley_iterates(eig, psi, dt, steps)
        err = l2_norm(ComplexSampleField(psi.grid, state.psi.values - exact))
        assert err <= cayley_error_limit(psi, V, dt, steps, "spectral")

    @pytest.mark.parametrize("method", ["spectral", "central2"])
    def test_cube_with_varying_potential(self, rng, method):
        grid = Grid.cube(8, 2 * np.pi)
        V = PotentialSpec.from_expression("1 + 0.5*cos(x)*cos(y) + 0.3*sin(z)", grid)
        vals = band_limited(grid, rng, 2) + 1j * band_limited(grid, rng, 2)
        field = ComplexSampleField(grid, vals)
        psi = WaveFunction(ComplexSampleField(grid, field.values / l2_norm(field)), PARAMS)
        eig = dense_eigensystem(V, PARAMS, method)
        dt, steps = 0.05, 4
        state = propagate_cn(psi, V, dt, steps, sink=None, method=method)
        exact = cayley_iterates(eig, psi, dt, steps)
        err = l2_norm(ComplexSampleField(grid, state.psi.values - exact))
        assert err <= cayley_error_limit(psi, V, dt, steps, method)


class TestCayleySolverEffort:
    def test_few_iterations_on_fine_grid(self, fine_harmonic, monkeypatch):
        V, psi, _ = fine_harmonic
        solves = count_cayley_iterations(monkeypatch)
        propagate_cn(psi, V, 1e-3, 10, sink=None)
        assert len(solves) == 10
        assert max(solves) <= 5

    @pytest.mark.parametrize("method", ["spectral", "central2"])
    def test_constant_potential_needs_one_iteration(self, grid64, monkeypatch, method):
        V = PotentialSpec.from_expression("3.5", grid64)
        psi = plane_wave(grid64, mode=3)
        solves = count_cayley_iterations(monkeypatch)
        dt = 0.05
        stepped = crank_nicolson_step(psi, V, dt, method)
        assert solves == [1]
        ek = apply_hamiltonian(psi, V, method).values[0] / psi.psi.values[0]
        expected = (1 - 0.5j * dt * ek) / (1 + 0.5j * dt * ek) * psi.psi.values
        assert np.max(np.abs(stepped.psi.values - expected)) <= 1e-13


class TestDenseOracle:
    def test_identity_at_t0(self, harmonic):
        grid, V, eig = harmonic
        x = grid.axis_coordinates(0)
        psi = WaveFunction(ComplexSampleField(grid, np.exp(1j * x) * np.exp(-((x - 10) ** 2))), PARAMS)
        out = exact_propagate_small(psi, V, 0.0, eig=eig)
        assert np.max(np.abs(out.psi.values - psi.psi.values)) <= 1e-12

    def test_unitary_for_any_time(self, harmonic, rng):
        grid, V, eig = harmonic
        vals = band_limited(grid, rng) + 1j * band_limited(grid, rng)
        psi = WaveFunction(ComplexSampleField(grid, vals), PARAMS)
        out = exact_propagate_small(psi, V, 17.3, eig=eig)
        assert abs(norm_functional(out) - norm_functional(psi)) <= 1e-13 * norm_functional(psi)

    def test_cn_converges_at_second_order(self, harmonic):
        grid, V, eig = harmonic
        x = grid.axis_coordinates(0)
        packet = np.exp(-((x - 12) ** 2) / 2).astype(complex)
        packet /= np.sqrt(np.sum(np.abs(packet) ** 2) * grid.cell_volume)
        psi = WaveFunction(ComplexSampleField(grid, packet), PARAMS)
        t_final = 0.5
        exact = exact_propagate_small(psi, V, t_final, eig=eig)
        errs = []
        for steps in (50, 100, 200):
            state = psi
            for _ in range(steps):
                state = crank_nicolson_step(state, V, t_final / steps)
            errs.append(l2_norm(ComplexSampleField(grid, state.psi.values - exact.psi.values)))
        assert 3.5 <= errs[0] / errs[1] <= 4.5
        assert 3.5 <= errs[1] / errs[2] <= 4.5

    @pytest.mark.parametrize("method", ["spectral", "central2"])
    @pytest.mark.parametrize(
        "grid, v",
        [
            (Grid.line(96, 20.0), "0.5*(x-10)^2"),
            (Grid((8, 12), (3.0, 5.0)), "1 + cos(2*pi*x/3)*sin(2*pi*y/5)"),
            (Grid((4, 6, 8), (2.0, 3.0, 4.0)), "1 + cos(2*pi*x/2)*sin(2*pi*z/4) + y"),
        ],
        ids=["1d", "2d", "3d"],
    )
    def test_hamiltonian_is_minus_the_real_closure(self, grid, v, method):
        # one dense L: H is -L for the closure phi-Verlet steps, bit for bit
        V = PotentialSpec.from_expression(v, grid)
        params = QuantumParams(1.3, 0.7)
        lop = schrodinger.real_l_operator(grid, V.sampled.values, params, method)
        mat = lop(np.eye(grid.size).reshape((grid.size,) + grid.shape)).reshape(grid.size, -1)
        expected = -(0.5 * (mat + mat.T))
        assert schrodinger.dense_hamiltonian(V, params, method).tobytes() == expected.tobytes()

    def test_grid_too_large_refused(self):
        grid = Grid.line(8192, 10.0)
        V = PotentialSpec.zero(grid)
        with pytest.raises(ValueError, match="too large"):
            dense_eigensystem(V, PARAMS)


class TestEigenvectorSigns:
    def test_signs_survive_roundoff(self, monkeypatch):
        # modes 1, 3, 5, 7 are odd about the well's centre: two entries of equal
        # magnitude and opposite sign compete for the largest
        grid = Grid.line(256, 20.0)
        V = PotentialSpec.from_expression("0.5*(x-10)^2", grid)
        base = dense_eigensystem(V, PARAMS)
        h = schrodinger.dense_hamiltonian(V, PARAMS)
        r = np.random.default_rng(0).standard_normal(h.shape)
        monkeypatch.setattr(
            schrodinger, "dense_hamiltonian", lambda *args: h + 1e-13 * (r + r.T)
        )
        perturbed = dense_eigensystem(V, PARAMS)
        overlaps = np.sum(base.vectors[:, :8] * perturbed.vectors[:, :8], axis=0)
        assert np.all(overlaps > 0.99), overlaps


def _signed_by_tie_rule(vectors: np.ndarray) -> np.ndarray:
    """Which columns have a positive first entry within _SIGN_TIE of their largest."""
    mag = np.abs(vectors)
    first = np.argmax(mag >= (1.0 - schrodinger._SIGN_TIE) * mag.max(axis=0), axis=0)
    return vectors[first, np.arange(vectors.shape[1])] > 0


REFERENCE_CASES = {
    "harmonic-256-spectral": ((256,), (20.0,), "0.5*(x-10)^2", "spectral"),
    "harmonic-256-central2": ((256,), (20.0,), "0.5*(x-10)^2", "central2"),
    "anisotropic-8x16": ((8, 16), (6.0, 8.0), "0.5*(x-3)^2 + 1.3*(y-4)^2", "spectral"),
}


class TestEigensolverAgainstScipy:
    """numpy's eigh (divide and conquer) against scipy's default driver (MRRR)."""

    @pytest.mark.parametrize("case", REFERENCE_CASES)
    def test_same_spectrum_projectors_and_signs(self, case):
        import scipy.linalg

        points, lengths, potential, method = REFERENCE_CASES[case]
        V = PotentialSpec.from_expression(potential, Grid(points, lengths))
        ref_energies, ref_vectors = scipy.linalg.eigh(schrodinger.dense_hamiltonian(V, PARAMS, method))
        eig = dense_eigensystem(V, PARAMS, method)
        scale = np.max(np.abs(ref_energies))
        assert np.max(np.abs(eig.energies - ref_energies)) <= 1e-13 * scale
        # Each level's projector is basis-free. central2's composed stencil decouples
        # even and odd sites, so its levels come in degenerate pairs.
        starts = [0, *np.flatnonzero(np.diff(ref_energies) > 1e-8 * scale) + 1]
        levels = [slice(a, b) for a, b in zip(starts, starts[1:]) if a < 10]
        assert len(levels) == (5 if method == "central2" else 10)
        for level in levels:
            mine, ref = eig.vectors[:, level], ref_vectors[:, level]
            assert np.max(np.abs(mine @ mine.T - ref @ ref.T)) <= 1e-12, level
        assert np.all(_signed_by_tie_rule(eig.vectors))

    def test_stationary_frame_matches_scipy_pair(self, tmp_path):
        # spectral only: a central2 mode sits in a degenerate pair, whose basis
        # roundoff picks. Mode 1 is odd, so its sign needs the tie rule.
        import scipy.linalg

        from wavepot.scenario import load_scenario, run
        from wavepot.snapshots import read_snapshot
        from wavepot.wavepotential import stationary_phi

        mode, t0 = 1, 0.7
        path = tmp_path / "stationary.scn"
        path.write_text(
            "[scenario]\nkind = phi\n[grid]\npoints = 256\nlengths = 20.0\n"
            "[potential]\nv = 0.5*(x-10)^2\n"
            f"[initial]\ntype = stationary\nmode = {mode}\ntime = {t0}\n"
            "[integrator]\ndt = auto\nsteps = 2\nsnapshot_stride = 1\n"
        )
        run(load_scenario(path), tmp_path / "out")
        frame = read_snapshot(tmp_path / "out" / "snapshots.wps").frames[0]

        grid = Grid.line(256, 20.0)
        V = PotentialSpec.from_expression("0.5*(x-10)^2", grid)
        energies, vectors = scipy.linalg.eigh(schrodinger.dense_hamiltonian(V, PARAMS))
        vec = vectors[:, mode] if _signed_by_tie_rule(vectors[:, [mode]])[0] else -vectors[:, mode]
        psi_n = ScalarSampleField(grid, vec.reshape(grid.shape) / np.sqrt(grid.cell_volume))
        ref = stationary_phi(psi_n, float(energies[mode]), t0, PARAMS, V)
        for name, expected in (("phi", ref.phi.values), ("phi_dot", ref.phi_dot.values)):
            err = np.max(np.abs(frame[name] - expected))
            assert err <= 1e-12 * np.max(np.abs(expected)), (name, err)


class TestEigenpairs:
    def test_free_particle_zero_mode(self, grid64):
        V = PotentialSpec.zero(grid64)
        e0, psi0 = eigenpairs_small(V, PARAMS, 1)[0]
        assert abs(e0) <= 1e-10
        assert np.max(np.abs(psi0.values - psi0.values.mean())) <= 1e-8 * np.abs(
            psi0.values.mean()
        )

    def test_free_particle_dispersion(self, grid64):
        V = PotentialSpec.zero(grid64)
        pairs = eigenpairs_small(V, PARAMS, 5)
        k1 = 2 * np.pi / grid64.lengths[0]
        expected = PARAMS.hbar**2 * k1**2 / (2 * PARAMS.mass)
        # modes 1 and 2 are the degenerate +-k1 pair
        assert pairs[1][0] == pytest.approx(expected, abs=1e-10)
        assert pairs[2][0] == pytest.approx(expected, abs=1e-10)

    def test_harmonic_level_spacing(self, harmonic):
        grid, V, eig = harmonic
        pairs = eigenpairs_small(V, PARAMS, 2, eig=eig)
        assert abs((pairs[1][0] - pairs[0][0]) - 1.0) <= 1e-4

    def test_orthonormal_in_grid_inner_product(self, harmonic):
        grid, V, eig = harmonic
        pairs = eigenpairs_small(V, PARAMS, 3, eig=eig)
        vol = grid.cell_volume
        for i, (_, fi) in enumerate(pairs):
            for j, (_, fj) in enumerate(pairs):
                val = float(np.sum(fi.values * fj.values) * vol)
                assert val == pytest.approx(1.0 if i == j else 0.0, abs=1e-10)


class TestEnergyConservation:
    def test_hamiltonian_drift_over_cn_run(self, harmonic):
        grid, V, eig = harmonic
        x = grid.axis_coordinates(0)
        packet = np.exp(-((x - 12.0) ** 2) / 2).astype(complex)
        psi = WaveFunction(ComplexSampleField(grid, packet), PARAMS)
        h0 = hamiltonian_canonical(psi.psi.real, psi.psi.imag, V, PARAMS)
        state = psi
        dt = 2e-3
        worst = 0.0
        for _ in range(1000):
            state = crank_nicolson_step(state, V, dt)
            h = hamiltonian_canonical(state.psi.real, state.psi.imag, V, PARAMS)
            worst = max(worst, abs(h - h0) / abs(h0))
        assert worst <= 1e-8

    def test_propagate_helper_returns_uniform_times(self, grid64):
        V = PotentialSpec.zero(grid64)
        psi = plane_wave(grid64)
        snaps = {}
        propagate_cn(psi, V, 1e-3, 10, sink=snaps.__setitem__, snapshot_stride=2)
        times = np.array([n * 1e-3 for n in snaps])
        assert len(times) == len(snaps) == 6
        assert np.allclose(np.diff(times), 2e-3)

    def test_max_energy_bound_monotone_in_potential(self, grid64):
        v0 = PotentialSpec.zero(grid64)
        v1 = PotentialSpec.from_expression("2", grid64)
        assert max_energy_bound(v1, PARAMS) > max_energy_bound(v0, PARAMS)
