import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import smooth_scalar, smooth_vector
from test_acceptance import report
from wavepot import expressions, maxwell
from wavepot.errors import ContinuityError, GridMismatchError, NonFiniteSampleError, StabilityError
from wavepot.grids import Grid, ScalarSampleField, VectorSampleField3, l2_norm, max_norm
from wavepot.maxwell import (
    EMState,
    PotentialState,
    SourceSpec,
    constraint_residual,
    coulomb_field_from_charge,
    em_hamiltonians,
    em_rhs,
    field_energy,
    gauge_shift_potential,
    modal_diagnostics,
    potential_acceleration,
    potential_constraint_residual,
    potential_diagnostics,
    potential_dt_bound,
    potential_to_fields,
    riemann_silberstein_residual,
    rk4_dt_bound,
    run_potential_verlet,
    run_rk4,
)
from wavepot.operators import _curl_arrays, curl, divergence, gradient, modes


def mesh(grid):
    return np.meshgrid(*[grid.axis_coordinates(a) for a in range(3)], indexing="ij")


def plane_wave_state(grid, c=1.0):
    """Travelling wave along x: E = cos(x) e_y, B = cos(x) e_z."""
    x, _, _ = mesh(grid)
    zero = np.zeros_like(x)
    e = VectorSampleField3(grid, np.stack([zero, np.cos(x), zero]))
    b = VectorSampleField3(grid, np.stack([zero, zero, np.cos(x)]))
    return EMState(e, b, c)


def plane_wave_potential(grid, c=1.0):
    """A = sin(x) e_y so that E = cos(x) e_y and B = cos(x) e_z at t = 0."""
    x, _, _ = mesh(grid)
    zero = np.zeros_like(x)
    a = VectorSampleField3(grid, np.stack([zero, np.sin(x), zero]))
    a_dot = VectorSampleField3(grid, np.stack([zero, -c * np.cos(x), zero]))
    return PotentialState(a, a_dot, c)


class TestEmRhs:
    def test_zero_state(self, cube16):
        state = EMState(VectorSampleField3.zeros(cube16), VectorSampleField3.zeros(cube16))
        de, db = em_rhs(state, VectorSampleField3.zeros(cube16))
        assert max_norm(de) == 0.0 and max_norm(db) == 0.0

    def test_curl_free_magnetostatic_equilibrium(self, cube16):
        # uniform B has zero curl; with E = 0, J = 0 nothing moves
        b = VectorSampleField3(cube16, np.stack([np.ones(cube16.shape)] * 3))
        state = EMState(VectorSampleField3.zeros(cube16), b)
        de, db = em_rhs(state, VectorSampleField3.zeros(cube16))
        assert max_norm(de) <= 1e-13 and max_norm(db) <= 1e-13

    def test_plane_wave_time_derivative(self, cube16):
        state = plane_wave_state(cube16)
        x, _, _ = mesh(cube16)
        de, db = em_rhs(state, VectorSampleField3.zeros(cube16))
        # E = cos(x - t) e_y at t=0: dE/dt = sin(x - t)*...(-1)' -> +sin? d/dt cos(x-t) = sin(x-t)
        assert np.max(np.abs(de.values[1] - np.sin(x))) <= 1e-11
        assert np.max(np.abs(db.values[2] - np.sin(x))) <= 1e-11

    @given(a=st.floats(-2, 2), b=st.floats(-2, 2), seed=st.integers(0, 2**10))
    def test_linear_in_state(self, a, b, seed):
        rng = np.random.default_rng(seed)
        grid = Grid.cube(8, 2 * np.pi)
        j = VectorSampleField3.zeros(grid)
        e1, b1 = smooth_vector(grid, rng), smooth_vector(grid, rng)
        e2, b2 = smooth_vector(grid, rng), smooth_vector(grid, rng)
        lhs = em_rhs(EMState(a * e1 + b * e2, a * b1 + b * b2), j)
        r1 = em_rhs(EMState(e1, b1), j)
        r2 = em_rhs(EMState(e2, b2), j)
        for i in range(2):
            combo = a * r1[i].values + b * r2[i].values
            assert np.max(np.abs(lhs[i].values - combo)) <= 1e-10 * (abs(a) + abs(b) + 1)


class TestRk4:
    def test_zero_state_stays_zero(self, cube16):
        state = EMState(VectorSampleField3.zeros(cube16), VectorSampleField3.zeros(cube16))
        out = run_rk4(state, SourceSpec.vacuum(), 0.01, 1, sink=None)
        assert max_norm(out.e) == 0.0 and max_norm(out.b) == 0.0

    def test_cfl_refusal(self, cube16):
        state = plane_wave_state(cube16)
        with pytest.raises(StabilityError):
            run_rk4(state, SourceSpec.vacuum(), 10.0, 1, sink=None)

    def test_vacuum_wave_fourth_order(self, cube16):
        state = plane_wave_state(cube16)
        src = SourceSpec.vacuum()
        period = 2 * np.pi
        errs = []
        for steps in (80, 160):
            final = run_rk4(state, src, period / steps, steps, sink=None)
            errs.append(max(l2_norm(final.e - state.e), l2_norm(final.b - state.b)))
        order = np.log2(errs[0] / errs[1])
        assert 3.7 <= order <= 4.3

    def test_energy_drift_small_inside_cfl(self, cube16):
        state = plane_wave_state(cube16)
        src = SourceSpec.vacuum()
        j0 = src.current_at(0.0, cube16)
        dt = 0.2 * rk4_dt_bound(cube16, state.c)
        h0 = em_hamiltonians(state, j0)[1]
        snaps = {}
        run_rk4(state, src, dt, 1000, sink=snaps.__setitem__, snapshot_stride=100)
        drift = max(abs(em_hamiltonians(s, j0)[1] - h0) / h0 for s in snaps.values())
        assert drift <= 1e-9

    def test_sources_sampled_at_the_substage_times(self, cube16):
        # j(t + dt) of step n is sampled again as j(t) of step n + 1: the two
        # times are (n-1)*dt + dt and n*dt, which differ in the last bit for
        # n = 6, 7, 10, ... at dt = 0.04, so the sample cannot be reused
        times = []

        class Recording(SourceSpec):
            def current_modes(self, t, grid, method):
                times.append(t)
                return super().current_modes(t, grid, method)

        dt, steps = 0.04, 12
        src = Recording("0", ("0", "0", "0.5*cos(x+2*y)*sin(t+0.3)"))
        run_rk4(plane_wave_state(cube16), src, dt, steps, sink=None)
        expected = []
        for n in range(1, steps + 1):
            expected += [(n - 1) * dt, (n - 1) * dt + 0.5 * dt, (n - 1) * dt + dt]
        assert times == expected
        assert any((n - 1) * dt + dt != n * dt for n in range(1, steps + 1))

    def test_rk4_dissipation_scaling(self, cube16):
        # amplitude decay per step is (omega dt)^6 / 72; verify the law at 2x dt
        state = plane_wave_state(cube16)
        src = SourceSpec.vacuum()
        j0 = src.current_at(0.0, cube16)
        h0 = em_hamiltonians(state, j0)[1]
        drifts = []
        for factor in (0.2, 0.4):
            dt = factor * rk4_dt_bound(cube16, state.c)
            final = run_rk4(state, src, dt, 200, sink=None)
            per_step = abs(em_hamiltonians(final, j0)[1] - h0) / h0 / 200
            drifts.append(per_step)
        measured = np.log2(drifts[1] / drifts[0])
        assert 5.5 <= measured <= 6.5


def sampled_rk4(state, sources, dt, steps, method):
    """RK4 on the sampled fields, each curl through its own transform pair: the
    stage formula run_rk4 applied before it kept its state as spectra. Returns
    the stacked (E, B) arrays of every step."""
    grid, c = state.grid, state.c
    e, b = state.e.values.copy(), state.b.values.copy()

    def rhs(e, b, j):
        return c * _curl_arrays(b, grid, method) - j, -c * _curl_arrays(e, grid, method)

    out = [np.stack((e, b))]
    for n in range(1, steps + 1):
        t = (n - 1) * dt
        j0 = sources.current_at(t, grid).values
        j_half = sources.current_at(t + 0.5 * dt, grid).values
        j1 = sources.current_at(t + dt, grid).values
        ke1, kb1 = rhs(e, b, j0)
        ke2, kb2 = rhs(e + 0.5 * dt * ke1, b + 0.5 * dt * kb1, j_half)
        ke3, kb3 = rhs(e + 0.5 * dt * ke2, b + 0.5 * dt * kb2, j_half)
        ke4, kb4 = rhs(e + dt * ke3, b + dt * kb3, j1)
        e += (dt / 6.0) * (ke1 + 2.0 * ke2 + 2.0 * ke3 + ke4)
        b += (dt / 6.0) * (kb1 + 2.0 * kb2 + 2.0 * kb3 + kb4)
        out.append(np.stack((e, b)))
    return out


def sampled_potential_verlet(state, sources, dt, steps, method):
    """Velocity-Verlet on the sampled (A, dA/dt), each acceleration through its
    own transform pair: the step run_potential_verlet took before it kept its
    state as spectra. Returns the stacked (A, dA/dt) arrays of every step."""
    grid, c = state.grid, state.c
    a, vel = state.a.values.copy(), state.a_dot.values.copy()

    def accel(t):
        j = sources.current_at(t, grid).values
        return maxwell._potential_accel_arrays(a, j, c, grid, method)

    acc = accel(0.0)
    out = [np.stack((a, vel))]
    for n in range(1, steps + 1):
        vel += 0.5 * dt * acc
        a += dt * vel
        acc = accel(n * dt)
        vel += 0.5 * dt * acc
        out.append(np.stack((a, vel)))
    return out


def samples_of(hat, grid):
    """The real samples of a half spectrum over the three grid axes: the inverse
    transform a Maxwell integrator makes for its sink."""
    return np.fft.irfftn(hat, s=grid.shape, axes=(-3, -2, -1))


# a non-cubic box whose last axis, the one the real transform halves, has 10 points:
# n/2 = 5 is odd (point counts themselves must be even)
ODD_BOX = Grid((8, 12, 10), (2 * np.pi, 5.0, 3.7))


class SpectralRun:
    """An integrator that keeps its state as half spectra must step as its
    sampled scheme does, hand its observer blocks of the spectrum and
    transform only what it must. A subclass names the integrator: ``run``,
    ``sampled`` (the scheme on samples), ``make_state``, ``halves`` (the
    state's two vector fields), ``budget`` (its dt bound) and ``source_times``
    (how many times a run of n steps asks for the current)."""

    @classmethod
    def driven(cls, grid, seed, drive="0.5*cos({kx!r}*x+{ky2!r}*y)*sin(t+0.3)"):
        rng = np.random.default_rng(seed)
        state = cls.make_state(smooth_vector(grid, rng), smooth_vector(grid, rng), 1.3)
        kx, ky = (2 * np.pi / length for length in grid.lengths[:2])
        src = SourceSpec("0", ("0", "0", drive.format(kx=kx, ky2=2 * ky)))
        return state, src, 0.3 * cls.budget(grid, state.c)

    @pytest.mark.parametrize("method", ["spectral", "central2"])
    @pytest.mark.parametrize("box", ["cube16", "odd_box"])
    def test_matches_the_sampled_scheme(self, cube16, box, method):
        grid = cube16 if box == "cube16" else ODD_BOX
        state, src, dt = self.driven(grid, 3)
        steps = 24
        seen, frames = [], {}
        self.run(state, src, dt, steps, sink=frames.__setitem__, snapshot_stride=steps,
                 method=method, observer=lambda ns, hats: seen.extend(samples_of(hats, grid)))
        expected = self.sampled(state, src, dt, steps, method)
        assert len(seen) == steps + 1
        scale = max(np.max(np.abs(pair)) for pair in expected)
        worst = max(np.max(np.abs(got - want)) for got, want in zip(seen, expected))
        assert worst <= 1e-14 * scale
        # frame 0 is the initial state itself, not a transform round trip
        assert frames[0] is state

    def test_frames_without_an_observer(self, cube16):
        state, src, dt = self.driven(cube16, 4)
        watched, seen, unwatched = {}, {}, {}

        def observer(ns, hats):
            seen.update(zip(ns.tolist(), samples_of(hats, cube16)))

        self.run(state, src, dt, 23, sink=watched.__setitem__, snapshot_stride=5,
                 observer=observer)
        final = self.run(state, src, dt, 23, sink=unwatched.__setitem__, snapshot_stride=5)
        assert list(unwatched) == list(watched) == [0, 5, 10, 15, 20, 23]
        for n, frame in unwatched.items():
            pairs = zip(self.halves(frame), self.halves(watched[n]), seen[n], self.halves(state))
            for got, other, observed, initial in pairs:
                assert got.values.tobytes() == other.values.tobytes()
                # a frame is the sink's one inverse transform of the observed spectrum
                want = observed if n else initial.values
                assert got.values.tobytes() == want.tobytes()
        for got, last in zip(self.halves(final), self.halves(unwatched[23])):
            assert got.values.tobytes() == last.values.tobytes()

    def test_transforms_a_step(self, cube16, maxwell_transforms):
        # the fixture refuses a sampled curl or potential acceleration; with an
        # observer only, no inverse transform runs while stepping, and one makes
        # the returned state. The current's three spatial factors are
        # transformed once, at its first time, and kept by the sources.
        calls = maxwell_transforms
        state, src, dt = self.driven(cube16, 5)
        inverses = []
        self.run(state, src, dt, 7, sink=None,
                 observer=lambda ns, hats: inverses.extend([len(calls["inverse"])] * len(ns)))
        assert calls == {"forward": [6, 3], "inverse": [6]}
        assert inverses == [0] * 8
        calls["forward"].clear()
        calls["inverse"].clear()
        self.run(state, src, dt, 7, sink=lambda n, st: None, snapshot_stride=3)
        assert calls == {"forward": [6], "inverse": [6] * 3}  # frames 3, 6, 7

    def test_non_separable_drive(self, cube16, maxwell_transforms):
        # t and x do not separate in j_z: it is sampled and transformed alone at
        # each time, and the static j_x, j_y once
        drive = "0.5*cos({kx!r}*x+{ky2!r}*y-t)"
        state, src, dt = self.driven(cube16, 6, drive)
        self.run(state, src, dt, 7, sink=None)
        assert maxwell_transforms["forward"] == [6, 2] + [1] * self.source_times(7)
        for t in (0.0, 0.5 * dt, 7 * dt):
            want = modes(src.current_at(t, cube16).values, cube16, "spectral").hat
            assert src.current_modes(t, cube16, "spectral").tobytes() == want.tobytes()

    def test_non_finite_drive_raises_at_step_one(self, cube16):
        # the time factor 1/(t - 0.04) is infinite at t = dt while (2 + cos x) stays finite
        wave = plane_wave_state(cube16)
        state = self.make_state(wave.e, wave.b)
        src = SourceSpec("0", ("0", "0", "(2+cos(x))/(t-0.04)"))
        seen = []
        with pytest.raises(NonFiniteSampleError, match="not finite"):
            self.run(state, src, 0.04, 3, sink=None, observer=lambda ns, hats: seen.extend(ns))
        assert seen == [0]  # a 16^3 spectrum fills a block on its own


class TestRk4Spectra(SpectralRun):
    run = staticmethod(run_rk4)
    sampled = staticmethod(sampled_rk4)
    make_state = EMState
    halves = staticmethod(lambda st: (st.e, st.b))
    budget = staticmethod(rk4_dt_bound)

    @staticmethod
    def source_times(steps):
        return 3 * steps  # each step's three substage times


class TestPotentialVerletSpectra(SpectralRun):
    run = staticmethod(run_potential_verlet)
    sampled = staticmethod(sampled_potential_verlet)
    make_state = PotentialState
    halves = staticmethod(lambda st: (st.a, st.a_dot))
    budget = staticmethod(potential_dt_bound)

    @staticmethod
    def source_times(steps):
        return steps + 1  # J(0), then J(n dt) at each step


class TestPotentialVerletLeapfrogOnFields:
    @pytest.mark.parametrize("method", ["spectral", "central2"])
    @pytest.mark.parametrize("box", ["cube16", "odd_box"])
    def test_field_map_commutes_with_stepping(self, cube16, box, method):
        # with E = -(dA/dt)/c and B = curl A, velocity-Verlet on A is the leapfrog on
        # (E, B): the kick E += (h/2)(c curl B - J), with J at the start of the step,
        # the drift B -= h c curl E, and the kick again with J at its end
        grid = cube16 if box == "cube16" else ODD_BOX
        state, src, h = TestPotentialVerletSpectra.driven(grid, 7)
        c = state.c
        frames = {}
        run_potential_verlet(state, src, h, 200, sink=frames.__setitem__, snapshot_stride=50,
                             method=method)
        fields = potential_to_fields(state, method)
        e, b = fields.e.values, fields.b.values

        def kick(e, b, t):
            j = src.current_at(t, grid).values
            return e + 0.5 * h * (c * _curl_arrays(b, grid, method) - j)

        gaps = {}
        for n in range(1, 201):
            e = kick(e, b, (n - 1) * h)
            b = b - h * c * _curl_arrays(e, grid, method)
            e = kick(e, b, n * h)
            if n in frames:
                mapped = potential_to_fields(frames[n], method)
                want = np.stack((e, b))
                got = np.stack((mapped.e.values, mapped.b.values))
                gaps[n] = np.max(np.abs(got - want)) / np.max(np.abs(want))
        worst = max(gaps.values())
        report(
            "A-Verlet is the leapfrog on (E, B)",
            worst <= 1e-12,
            f"{grid.shape} {method}: worst relative gap {worst:.3e} over 200 driven steps "
            "(tol 1e-12)",
        )
        assert worst <= 1e-12, gaps


class TestConstraints:
    def test_coulomb_initial_data(self, cube16):
        x, y, _ = mesh(cube16)
        rho = ScalarSampleField(cube16, np.sin(x) * np.cos(y))
        e = coulomb_field_from_charge(rho)
        state = EMState(e, VectorSampleField3.zeros(cube16))
        div_e_res, div_b_res = constraint_residual(state, rho)
        assert div_e_res <= 1e-10
        assert div_b_res == 0.0

    def test_plane_wave_residuals_roundoff(self, cube16):
        state = plane_wave_state(cube16)
        res = constraint_residual(state, ScalarSampleField.zeros(cube16))
        assert res[0] <= 1e-12 and res[1] <= 1e-12

    def test_injected_violation_constant_in_time(self, cube16):
        # add a longitudinal mode to E: div E != 0, J = rho = 0 keeps it frozen
        state = plane_wave_state(cube16)
        x, _, _ = mesh(cube16)
        bad_e = VectorSampleField3(
            cube16, state.e.values + np.stack([np.sin(x), np.zeros_like(x), np.zeros_like(x)])
        )
        state = EMState(bad_e, state.b)
        src = SourceSpec.vacuum()
        rho0 = ScalarSampleField.zeros(cube16)
        res0 = constraint_residual(state, rho0)[0]
        dt = 0.3 * rk4_dt_bound(cube16, state.c)
        snaps = {}
        run_rk4(state, src, dt, 300, sink=snaps.__setitem__, snapshot_stride=100)
        for s in snaps.values():
            res_t = constraint_residual(s, rho0)[0]
            assert abs(res_t - res0) <= 1e-12 * res0

    def test_persistence_with_static_charge(self, cube16):
        x, y, _ = mesh(cube16)
        rho = ScalarSampleField(cube16, 0.3 * np.sin(x) * np.cos(y))
        e_static = coulomb_field_from_charge(rho)
        wave = plane_wave_state(cube16)
        state = EMState(
            VectorSampleField3(cube16, e_static.values + wave.e.values), wave.b
        )
        src = SourceSpec("0.3*sin(x)*cos(y)", ("0", "0", "0"))
        dt = 0.3 * rk4_dt_bound(cube16, state.c)
        scale = max_norm(state.e) / cube16.spacings[0] + max_norm(rho)
        snaps = {}
        run_rk4(state, src, dt, 400, sink=snaps.__setitem__, snapshot_stride=200)
        for s in snaps.values():
            div_e_res, div_b_res = constraint_residual(s, rho)
            assert div_e_res <= 1e-9 * scale
            assert div_b_res <= 1e-9 * scale


class TestRiemannSilberstein:
    def test_zero_everything(self, cube16):
        state = EMState(VectorSampleField3.zeros(cube16), VectorSampleField3.zeros(cube16))
        res, scale = riemann_silberstein_residual(state, SourceSpec.vacuum(), 0.0)
        assert res == 0.0

    def test_plane_wave(self, cube16):
        res, scale = riemann_silberstein_residual(plane_wave_state(cube16), SourceSpec.vacuum(), 0.0)
        assert res <= 1e-12 * scale

    @given(seed=st.integers(0, 2**12))
    def test_random_state_identity(self, seed):
        rng = np.random.default_rng(seed)
        grid = Grid.cube(8, 2 * np.pi)
        state = EMState(smooth_vector(grid, rng), smooth_vector(grid, rng), c=2.0)
        src = SourceSpec("0", ("cos(y)", "sin(z)", "0"))
        res, scale = riemann_silberstein_residual(state, src, 0.0)
        assert res <= 1e-12 * scale


class TestPotentialDynamics:
    def test_pure_gauge_is_static(self, cube16, rng):
        alpha = smooth_scalar(cube16, rng)
        a = gradient(alpha)
        state = PotentialState(a, VectorSampleField3.zeros(cube16))
        acc = potential_acceleration(state, VectorSampleField3.zeros(cube16))
        assert max_norm(acc) <= 1e-11
        dt = 0.3 * potential_dt_bound(cube16, state.c)
        final = run_potential_verlet(state, SourceSpec.vacuum(), dt, 50, sink=None)
        assert max_norm(final.a - a) <= 1e-11
        assert max_norm(final.a_dot) <= 1e-11

    def test_transverse_mode_acceleration(self, cube16):
        x, _, _ = mesh(cube16)
        zero = np.zeros_like(x)
        a = VectorSampleField3(cube16, np.stack([zero, np.cos(x), zero]))
        state = PotentialState(a, VectorSampleField3.zeros(cube16), c=2.0)
        acc = potential_acceleration(state, VectorSampleField3.zeros(cube16))
        assert np.max(np.abs(acc.values - (-4.0) * a.values)) <= 1e-11

    def test_current_drives_acceleration(self, cube16):
        state = PotentialState(
            VectorSampleField3.zeros(cube16), VectorSampleField3.zeros(cube16), c=3.0
        )
        j = VectorSampleField3(cube16, np.ones((3,) + cube16.shape))
        acc = potential_acceleration(state, j)
        assert np.allclose(acc.values, 3.0, atol=1e-12)

    def test_acceleration_equals_curl_curl_form(self, cube16, rng):
        a = smooth_vector(cube16, rng)
        state = PotentialState(a, VectorSampleField3.zeros(cube16), c=1.5)
        j = smooth_vector(cube16, rng)
        acc = potential_acceleration(state, j)
        alt = -(1.5**2) * curl(curl(a)).values + 1.5 * j.values
        assert np.max(np.abs(acc.values - alt)) <= 1e-11

    def test_verlet_dispersion(self, cube16):
        state = plane_wave_potential(cube16)
        dt = 0.4 * potential_dt_bound(cube16, state.c)
        stepped = run_potential_verlet(state, SourceSpec.vacuum(), dt, 1, sink=None)
        ratio = float(
            np.vdot(state.a.values, stepped.a.values) / np.vdot(state.a.values, state.a.values)
        )
        # a-projection advances like a cos(Omega t) + (a_dot-part) sin; isolate via symmetric combo
        back = PotentialState(state.a, -1.0 * state.a_dot, state.c)
        stepped_back = run_potential_verlet(back, SourceSpec.vacuum(), dt, 1, sink=None)
        ratio_sym = 0.5 * (
            ratio
            + float(
                np.vdot(state.a.values, stepped_back.a.values)
                / np.vdot(state.a.values, state.a.values)
            )
        )
        omega = (2.0 / dt) * np.arcsin(dt * state.c * 1.0 / 2)  # |k| = 1
        assert ratio_sym == pytest.approx(np.cos(omega * dt), abs=1e-12)

    def test_reversal(self, cube16, rng):
        state = PotentialState(smooth_vector(cube16, rng), smooth_vector(cube16, rng))
        dt = 0.3 * potential_dt_bound(cube16, state.c)
        forward = run_potential_verlet(state, SourceSpec.vacuum(), dt, 10, sink=None)
        back = PotentialState(forward.a, -1.0 * forward.a_dot, state.c)
        back = run_potential_verlet(back, SourceSpec.vacuum(), dt, 10, sink=None)
        scale = max(max_norm(state.a), max_norm(state.a_dot))
        assert max_norm(back.a - state.a) <= 1e-12 * scale


class TestFieldMap:
    def test_zero_potential(self, cube16):
        state = PotentialState(VectorSampleField3.zeros(cube16), VectorSampleField3.zeros(cube16))
        fields = potential_to_fields(state)
        assert max_norm(fields.e) == 0.0 and max_norm(fields.b) == 0.0

    def test_plane_wave_fields(self, cube16):
        state = plane_wave_potential(cube16)
        fields = potential_to_fields(state)
        ref = plane_wave_state(cube16)
        assert max_norm(fields.e - ref.e) <= 1e-12
        assert max_norm(fields.b - ref.b) <= 1e-12

    def test_gauge_shift_leaves_fields(self, cube16, rng):
        state = PotentialState(smooth_vector(cube16, rng), smooth_vector(cube16, rng))
        alpha = smooth_scalar(cube16, rng)
        shifted = gauge_shift_potential(state, alpha)
        f0 = potential_to_fields(state)
        f1 = potential_to_fields(shifted)
        assert max_norm(f1.e - f0.e) == 0.0
        assert max_norm(f1.b - f0.b) <= 1e-12

    def test_gauge_mode_static_under_evolution(self, cube16, rng):
        state = plane_wave_potential(cube16)
        alpha = smooth_scalar(cube16, rng)
        shifted = gauge_shift_potential(state, alpha)
        dt = 0.2 * potential_dt_bound(cube16, state.c)
        src = SourceSpec.vacuum()
        snaps_a = {}
        run_potential_verlet(state, src, dt, 100, sink=snaps_a.__setitem__, snapshot_stride=50)
        snaps_b = {}
        run_potential_verlet(shifted, src, dt, 100, sink=snaps_b.__setitem__, snapshot_stride=50)
        for sa, sb in zip(snaps_a.values(), snaps_b.values()):
            fa, fb = potential_to_fields(sa), potential_to_fields(sb)
            assert max_norm(fb.e - fa.e) <= 1e-10
            assert max_norm(fb.b - fa.b) <= 1e-10

    def test_div_b_structural(self, cube16, rng):
        state = PotentialState(smooth_vector(cube16, rng), smooth_vector(cube16, rng))
        fields = potential_to_fields(state)
        assert max_norm(divergence(fields.b)) <= 1e-11


class TestPotentialConstraint:
    def test_vacuum_transverse_wave(self, cube16):
        state = plane_wave_potential(cube16)
        res = potential_constraint_residual(state, ScalarSampleField.zeros(cube16))
        assert res <= 1e-12

    def test_violation_constant_for_static_charge(self, cube16):
        x, y, _ = mesh(cube16)
        rho = ScalarSampleField(cube16, 0.2 * np.sin(x) * np.cos(y))
        state = plane_wave_potential(cube16)  # div a_dot = 0, so residual = c*max|rho|
        res0 = potential_constraint_residual(state, rho)
        src = SourceSpec("0.2*sin(x)*cos(y)", ("0", "0", "0"))
        dt = 0.3 * potential_dt_bound(cube16, state.c)
        snaps = {}
        run_potential_verlet(state, src, dt, 200, sink=snaps.__setitem__, snapshot_stride=100)
        for s in snaps.values():
            res_t = potential_constraint_residual(s, rho)
            assert abs(res_t - res0) <= 1e-10 * res0

    def test_satisfied_constraint_persists(self, cube16):
        # transverse wave with zero charge: residual stays at roundoff
        state = plane_wave_potential(cube16)
        rho0 = ScalarSampleField.zeros(cube16)
        dt = 0.3 * potential_dt_bound(cube16, state.c)
        snaps = {}
        run_potential_verlet(
            state, SourceSpec.vacuum(), dt, 1000, sink=snaps.__setitem__, snapshot_stride=250
        )
        scale = state.c * max_norm(state.a_dot) / cube16.spacings[0]
        for s in snaps.values():
            assert potential_constraint_residual(s, rho0) <= 1e-8 * scale

    def test_charged_initial_data_persists(self, cube16):
        # static charge: A_dot(0) = -cE(0) with a Coulomb part satisfies
        # div A_dot + c rho = 0; the evolution keeps it there
        from wavepot.reconstruction import curl_inverse

        x, y, _ = mesh(cube16)
        rho = ScalarSampleField(cube16, 0.25 * np.sin(x) * np.cos(y))
        wave = plane_wave_state(cube16)
        e0 = VectorSampleField3(cube16, coulomb_field_from_charge(rho).values + wave.e.values)
        a0 = curl_inverse(wave.b)
        state = PotentialState(a0, -1.0 * e0, 1.0)
        src = SourceSpec("0.25*sin(x)*cos(y)", ("0", "0", "0"))
        res0 = potential_constraint_residual(state, rho)
        scale = state.c * max_norm(state.a_dot) / cube16.spacings[0]
        assert res0 <= 1e-10 * scale
        dt = 0.3 * potential_dt_bound(cube16, state.c)
        snaps = {}
        run_potential_verlet(state, src, dt, 1000, sink=snaps.__setitem__, snapshot_stride=250)
        for s in snaps.values():
            assert potential_constraint_residual(s, rho) <= 1e-8 * scale


class TestPotentialDiagnostics:
    def test_equal_to_the_separate_maps(self, cube16, rng):
        state = PotentialState(smooth_vector(cube16, rng), smooth_vector(cube16, rng), 1.7)
        rho = ScalarSampleField(cube16, -divergence(state.a_dot).values / state.c)
        for method in ("spectral", "central2"):
            h_prime, con, div_b = potential_diagnostics(state, rho, method)
            # H' comes from Parseval's identity on the spectrum, so it meets the
            # sampled sum at roundoff rather than bit for bit
            energy = field_energy(potential_to_fields(state, method))
            assert abs(h_prime - energy) <= 1e-14 * energy
            assert con == potential_constraint_residual(state, rho, method)
            assert div_b <= 1e-13 * max_norm(potential_to_fields(state, method).b)

    def test_rho_on_another_grid_rejected(self, cube16):
        state = plane_wave_potential(cube16)
        with pytest.raises(GridMismatchError):
            potential_diagnostics(state, ScalarSampleField.zeros(Grid.cube(8, 2 * np.pi)))


class TestModalDiagnostics:
    """modal_diagnostics, the Maxwell rows' one map, against the sample-space maps."""

    @pytest.mark.parametrize("method", ["spectral", "central2"])
    @pytest.mark.parametrize("box", ["cube16", "odd_box"])
    @pytest.mark.parametrize("potential", [False, True], ids=["fields", "potential"])
    def test_matches_the_sampled_maps(self, cube16, box, method, potential):
        grid = cube16 if box == "cube16" else ODD_BOX
        rng = np.random.default_rng(7)
        first, second = smooth_vector(grid, rng), smooth_vector(grid, rng)
        rho = smooth_scalar(grid, rng)
        c = 1.7
        hat = np.fft.rfftn(np.stack((first.values, second.values)), axes=(-3, -2, -1))
        got = modal_diagnostics(hat, rho, c, method, potential)
        if potential:
            state = PotentialState(first, second, c)
            fields = potential_to_fields(state, method)
            want = (field_energy(fields), potential_constraint_residual(state, rho, method))
            # div curl A vanishes: both maps leave only roundoff of the size of its terms
            scale = max_norm(fields.b) * max(np.pi / dx for dx in grid.spacings)
            assert got[2] <= 1e-14 * scale
            assert constraint_residual(fields, rho, method)[1] <= 1e-14 * scale
        else:
            state = EMState(first, second, c)
            want = (field_energy(state), *constraint_residual(state, rho, method))
        for value, oracle in zip(got, want):
            assert abs(value - oracle) <= 1e-14 * oracle


class TestHamiltonians:
    def test_zero_state(self, cube16):
        state = EMState(VectorSampleField3.zeros(cube16), VectorSampleField3.zeros(cube16))
        assert em_hamiltonians(state, VectorSampleField3.zeros(cube16)) == (0.0, 0.0)

    def test_circular_mode_canonical_value(self, cube16):
        # E = E0 (cos(kx) e_y + sin(kx) e_z) gives E . curl E = -k E0^2 pointwise
        x, _, _ = mesh(cube16)
        e0, b0, c = 0.7, 0.4, 1.3
        zero = np.zeros_like(x)
        e = VectorSampleField3(cube16, e0 * np.stack([zero, np.cos(x), np.sin(x)]))
        b = VectorSampleField3(cube16, b0 * np.stack([zero, np.cos(x), np.sin(x)]))
        state = EMState(e, b, c)
        vol_box = float(np.prod(cube16.lengths))
        expected_h = -0.5 * c * (e0**2 + b0**2) * vol_box
        h, h_prime = em_hamiltonians(state, VectorSampleField3.zeros(cube16))
        assert h == pytest.approx(expected_h, rel=1e-12)
        assert h_prime == pytest.approx(0.5 * c * (e0**2 + b0**2) * vol_box, rel=1e-12)

    def test_h_prime_conserved_over_period(self, cube16):
        state = plane_wave_state(cube16)
        src = SourceSpec.vacuum()
        j0 = src.current_at(0.0, cube16)
        period = 2 * np.pi
        steps = 600
        snaps = {}
        run_rk4(state, src, period / steps, steps, sink=snaps.__setitem__, snapshot_stride=60)
        h0 = em_hamiltonians(state, j0)[1]
        worst = max(abs(em_hamiltonians(s, j0)[1] - h0) / h0 for s in snaps.values())
        assert worst <= 1e-9

    def test_canonical_h_conserved_with_static_current(self, cube16):
        x, y, _ = mesh(cube16)
        zero = np.zeros_like(x)
        e = VectorSampleField3(cube16, 0.7 * np.stack([zero, np.cos(x), np.sin(x)]))
        b = VectorSampleField3(cube16, 0.4 * np.stack([zero, np.cos(x), np.sin(x)]))
        state = EMState(e, b)
        src = SourceSpec("0", ("0.2*cos(y)", "0", "0.1*sin(y)"))
        src.validate_continuity(cube16, 0.01, 1.0)
        j0 = src.current_at(0.0, cube16)
        h0 = em_hamiltonians(state, j0)[0]
        dt = 0.1 * rk4_dt_bound(cube16, state.c)
        snaps = {}
        run_rk4(state, src, dt, 500, sink=snaps.__setitem__, snapshot_stride=100)
        worst = max(abs(em_hamiltonians(s, j0)[0] - h0) / abs(h0) for s in snaps.values())
        assert worst <= 1e-10


class TestContinuityGate:
    def test_consistent_sources_accepted(self, cube16):
        # rho = sin(x) cos(t), J_x = -cos(x) sin(t): d rho/dt + div J = 0
        src = SourceSpec("sin(x)*cos(t)", ("0-cos(x)*sin(t)", "0", "0"))
        src.validate_continuity(cube16, 1e-2, 1.0)

    def test_violating_sources_rejected(self, cube16):
        src = SourceSpec("sin(x)*cos(t)", ("0", "0", "0"))
        with pytest.raises(ContinuityError, match="continuity"):
            src.validate_continuity(cube16, 1e-2, 1.0)

    def test_static_divergence_free_accepted(self, cube16):
        src = SourceSpec("0.5*sin(x)", ("cos(y)", "0", "sin(x)"))
        src.validate_continuity(cube16, 1e-2, 1.0)

    def test_static_charge_oblique_divergence_free_current_accepted(self, cube16):
        # d_x J_x and d_y J_y cancel exactly, so div J is pure roundoff; the
        # gate must compare it with the size of the terms, not with itself
        src = SourceSpec(
            "0", ("0.3*cos(x+y+z)*sin(t+0.3)", "0-0.3*cos(x+y+z)*sin(t+0.3)", "0")
        )
        src.validate_continuity(cube16, 1e-2, 1.0)

    def test_static_divergent_current_rejected(self, cube16):
        src = SourceSpec("0", ("sin(x)", "0", "0"))
        with pytest.raises(ContinuityError):
            src.validate_continuity(cube16, 1e-2, 1.0)


class TestSourceCache:
    @staticmethod
    def count_samples(monkeypatch) -> list:
        calls = []
        sample = expressions.sample

        def counting(node, grid, bindings=None, t=0.0):
            calls.append((node, grid, t))
            return sample(node, grid, bindings, t)

        monkeypatch.setattr(expressions, "sample", counting)
        return calls

    def test_static_components_sampled_once_per_grid(self, cube16, monkeypatch):
        calls = self.count_samples(monkeypatch)
        src = SourceSpec("0", ("0", "cos(x)", "0.5*cos(x+2*y)*sin(t+0.3)"))
        grids = (cube16, Grid.cube(8, 2 * np.pi))
        for t in (0.0, 0.02, 0.04):
            for grid in grids:
                src.rho_at(t, grid)
                src.current_at(t, grid)
        timed = [(grid, t) for node, grid, t in calls if expressions.references_time(node)]
        assert timed == [(grid, t) for t in (0.0, 0.02, 0.04) for grid in grids]
        static = [(id(node), grid.points) for node, grid, _ in calls if node is not src.j[2]]
        once = [(id(node), grid.points) for node in (src.rho, *src.j[:2]) for grid in grids]
        assert sorted(static) == sorted(once)
        assert not src.is_static

    def test_samples_equal_a_fresh_sample(self, cube16):
        src = SourceSpec(
            "0.1*sin(x)*cos(t)", ("0-0.1*cos(x)*sin(t)", "cos(z)", "0"), {"unused": 2.0}
        )
        for t in (0.0, 0.37, 1.25):
            for _ in range(2):
                j = src.current_at(t, cube16).values
                for comp, node in enumerate(src.j):
                    fresh = expressions.sample(node, cube16, src.bindings, t).values
                    assert j[comp].tobytes() == fresh.tobytes()
                fresh_rho = expressions.sample(src.rho, cube16, src.bindings, t).values
                assert src.rho_at(t, cube16).values.tobytes() == fresh_rho.tobytes()

    def test_static_current_spectrum_is_the_transformed_sample(self, cube16):
        # a static component is one term with factor 1: its kept spectrum, bit for bit
        src = SourceSpec("0", ("cos(y)", "0", "0.3*sin(x)*cos(z)"))
        want = modes(src.current_at(0.0, cube16).values, cube16, "central2").hat
        for t in (0.0, 0.37):
            assert src.current_modes(t, cube16, "central2").tobytes() == want.tobytes()

    @given(
        terms=st.lists(
            st.tuples(
                st.floats(0.25, 2.0), st.sampled_from(["", "-"]),
                st.lists(st.tuples(st.sampled_from(["sin", "cos"]), st.integers(-3, 3),
                                   st.integers(-3, 3), st.sampled_from(["x", "y", "t"])),
                         min_size=1, max_size=3),
            ),
            min_size=1, max_size=3,
        ),
        scale=st.sampled_from(["", "cos(2*t+0.5)*", "(1+sin(t))*", "sin(x-y)*"]),
        t=st.floats(0.0, 10.0),
    )
    def test_separable_spectrum_matches_the_transformed_sample(self, terms, scale, t):
        # sums and products of sin/cos factors in x, y and t separate into S_i(x) g_i(t);
        # term i also carries cos((i+1) z), so the terms cannot cancel one another
        grid = Grid.cube(8, 2 * np.pi)
        factors = lambda fs: "".join(f"*{fn}({a}*{v}+{b})" for fn, a, b, v in fs)
        j_z = scale + "(" + " + ".join(
            f"{sign}{coef!r}*cos({i + 1}*z){factors(fs)}"
            for i, (coef, sign, fs) in enumerate(terms)
        ) + ")"
        assert expressions.separate(expressions.parse(j_z)) is not None
        src = SourceSpec("0", ("0", "0", j_z))
        got = src.current_modes(t, grid, "spectral")
        want = modes(src.current_at(t, grid).values, grid, "spectral").hat
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(got))

    def test_is_static_only_when_no_component_references_t(self):
        assert SourceSpec("sin(x)", ("0", "cos(y)", "0")).is_static
        assert not SourceSpec("0", ("0", "0", "sin(t)")).is_static
        assert not SourceSpec("t", ("0", "0", "0")).is_static


class TestEquivalence:
    def test_rk4_and_potential_verlet_agree(self, cube16):
        c = 1.0
        field_state = plane_wave_state(cube16, c)
        pot_state = plane_wave_potential(cube16, c)
        src = SourceSpec.vacuum()
        period = 2 * np.pi
        f_snaps = {}
        run_rk4(field_state, src, period / 600, 600, sink=f_snaps.__setitem__, snapshot_stride=60)
        p_snaps = {}
        run_potential_verlet(
            pot_state, src, period / 6000, 6000, sink=p_snaps.__setitem__, snapshot_stride=600
        )
        ref = l2_norm(field_state.e)
        worst = 0.0
        for fs, ps in zip(f_snaps.values(), p_snaps.values()):
            mapped = potential_to_fields(ps)
            worst = max(
                worst,
                l2_norm(mapped.e - fs.e) / ref,
                l2_norm(mapped.b - fs.b) / ref,
            )
        assert worst <= 1e-6


class TestPotentialVerletModifiedEnergy:
    @pytest.mark.parametrize("method", ["spectral", "central2"])
    def test_modified_energy_conserved_to_roundoff(self, cube16, method):
        # velocity-Verlet on A'' = -Omega^2 A conserves A'^2 + A.Omega^2(1 - h^2 Omega^2/4)A
        # exactly (Hairer, Lubich & Wanner, Geometric Numerical Integration, 2nd ed.,
        # 2006); with Omega^2 = c^2 curl curl, in vacuum, that is
        # H'_h = H' - (c/2)(c h/2)^2 ||curl B||^2, while H' itself moves at O(h^2)
        rng = np.random.default_rng(5)
        c = 1.3
        state = PotentialState(smooth_vector(cube16, rng), smooth_vector(cube16, rng), c)
        h = 0.9 * potential_dt_bound(cube16, c)

        def energies(st):
            fields = potential_to_fields(st, method)
            curl_b = _curl_arrays(fields.b.values, cube16, method)
            h_prime = field_energy(fields)
            curl_b_sq = float(np.sum(curl_b * curl_b)) * cube16.cell_volume
            shift = 0.5 * c * (0.5 * c * h) ** 2 * curl_b_sq
            return h_prime, h_prime - shift

        snaps = {}
        run_potential_verlet(state, SourceSpec.vacuum(), h, 1000, sink=snaps.__setitem__,
                             snapshot_stride=100, method=method)
        (h0, modified0), *rest = [energies(s) for s in snaps.values()]
        modified_drift = max(abs(m - modified0) for _, m in rest) / modified0
        energy_drift = max(abs(e - h0) for e, _ in rest) / h0
        report(
            "A-Verlet modified energy",
            modified_drift <= 1e-11 and energy_drift >= 1e-3,
            f"{method}: modified energy drift {modified_drift:.3e} (tol 1e-11), "
            f"H' drift {energy_drift:.3e} (need >= 1e-3) over 1000 steps",
        )
        assert modified_drift <= 1e-11
        assert energy_drift >= 1e-3
