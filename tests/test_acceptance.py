"""End-to-end verification matrix.

Each test here exercises one contract of the library at its pinned tolerance
and prints a PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``
to see them stream). The heavy forward-map check (criterion 1) runs a few
million integrator steps and dominates the suite's runtime.

Bundled scenario files under scenarios/ reproduce the runnable criteria from
the command line; the determinism criterion re-runs them (step counts reduced
via overrides) and byte-compares the outputs.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import band_limited
from wavepot.cli import main as cli_main
from wavepot.errors import ContinuityError, GaugeError
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
    PotentialState,
    SourceSpec,
    constraint_residual,
    coulomb_field_from_charge,
    potential_to_fields,
    riemann_silberstein_residual,
    run_potential_verlet,
    run_rk4,
)
from wavepot.operators import (
    curl,
    curl_curl_identity_residual,
    divergence,
    gradient,
)
from wavepot.reconstruction import _ELLIPTIC_TOL, reconstruct_phi, reconstruct_vector_potential
from wavepot.schrodinger import (
    _CAYLEY_TOL,
    PotentialSpec,
    QuantumParams,
    WaveFunction,
    canonical_rhs,
    crank_nicolson_step,
    dense_eigensystem,
    exact_propagate_small,
    generalized_rhs,
    hamiltonian_array,
    l_operator_array,
    max_energy_bound,
    propagate_cn,
)
from wavepot.wavepotential import (
    PhiState,
    gauge_shift,
    phi_acceleration,
    run_verlet,
    stable_dt,
    stationary_phi,
    to_wavefunction,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
PARAMS = QuantumParams(1.0, 1.0)


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def harmonic_256():
    grid = Grid.line(256, 20.0)
    V = PotentialSpec.from_expression("0.5*(x-10)^2", grid)
    eig = dense_eigensystem(V, PARAMS)
    return grid, V, eig


@pytest.fixture(scope="module")
def harmonic_128():
    grid = Grid.line(128, 20.0)
    V = PotentialSpec.from_expression("0.5*(x-10)^2", grid)
    eig = dense_eigensystem(V, PARAMS)
    return grid, V, eig


def cube(n=16):
    return Grid.cube(n, 2 * np.pi)


def plane_wave_fields(grid, c=1.0):
    x = np.meshgrid(*[grid.axis_coordinates(a) for a in range(3)], indexing="ij")[0]
    zero = np.zeros_like(x)
    e = VectorSampleField3(grid, np.stack([zero, np.cos(x), zero]))
    b = VectorSampleField3(grid, np.stack([zero, zero, np.cos(x)]))
    return EMState(e, b, c)


def plane_wave_potential(grid, c=1.0):
    x = np.meshgrid(*[grid.axis_coordinates(a) for a in range(3)], indexing="ij")[0]
    zero = np.zeros_like(x)
    a = VectorSampleField3(grid, np.stack([zero, np.sin(x), zero]))
    a_dot = VectorSampleField3(grid, np.stack([zero, -c * np.cos(x), zero]))
    return PotentialState(a, a_dot, c)


# Criteria 1 and 2 beyond 1D. Unequal sides and curvatures leave no level
# degenerate, and at most DENSE_L_LIMIT points make phi-Verlet step the modes.
BOXES = {
    "2d-16x16": (Grid((16, 16), (7.0, 9.0)), "0.5*(x-3.5)^2 + 1.3*(y-4.5)^2"),
    "3d-8x8x4": (Grid((8, 8, 4), (3.0, 4.0, 2.5)), "0.5*(x-1.5)^2 + 0.8*(y-2)^2 + 1.3*(z-1.25)^2"),
}


def check_forward_equivalence(tag: str, state0: PhiState, eig) -> None:
    """Criterion 1: phi-Verlet from ``state0`` over four periods of the lowest
    energy, against the dense propagator, at two step sizes."""
    V = state0.potential
    grid = state0.grid
    psi_init = to_wavefunction(state0)
    dt = 0.1 * stable_dt(V, PARAMS)
    total_time = 4.0 * (2.0 * np.pi * PARAMS.hbar / float(eig.energies[0]))

    def sup_error(step_count: int, stride: int) -> float:
        step_dt = total_time / step_count
        snaps = {}
        run_verlet(state0, step_dt, step_count, sink=snaps.__setitem__, snapshot_stride=stride)
        worst = 0.0
        for n, snap in snaps.items():
            mapped = to_wavefunction(snap).psi
            ref = exact_propagate_small(psi_init, V, n * step_dt, eig=eig).psi
            worst = max(worst, l2_norm(ComplexSampleField(grid, mapped.values - ref.values)))
        return worst

    steps = int(round(total_time / dt))
    err = sup_error(steps, steps // 20)
    err_half = sup_error(2 * steps, steps // 10)
    ratio = err / err_half
    ok = err <= 1e-5 and ratio >= 3.6
    report(
        tag,
        ok,
        f"sup L2 error {err:.3e} (tol 1e-5), halving ratio {ratio:.2f} (need >= 3.6)",
    )
    assert err <= 1e-5
    assert ratio >= 3.6


def test_c01_forward_equivalence(harmonic_256):
    """Wave-potential trajectory reproduces the dense reference propagator."""
    grid, V, eig = harmonic_256
    e0, psi0 = float(eig.energies[0]), eig.eigenfield(0)
    state0 = stationary_phi(psi0, e0, 0.0, PARAMS, V)
    check_forward_equivalence("criterion 01 forward equivalence", state0, eig)


@pytest.mark.parametrize("box", BOXES)
def test_c01_forward_equivalence_in_boxes(box):
    """Criterion 1 in 2D and 3D, from a superposition of two stationary states."""
    grid, potential = BOXES[box]
    V = PotentialSpec.from_expression(potential, grid)
    eig = dense_eigensystem(V, PARAMS)
    e0, e1 = eig.energies[:2].tolist()
    psi0, psi1 = eig.eigenfield(0), eig.eigenfield(1)
    assert e1 - e0 > 0.1 * e0
    s0, s1 = (stationary_phi(psi, e, 0.0, PARAMS, V) for e, psi in ((e0, psi0), (e1, psi1)))
    state0 = PhiState(s0.phi + s1.phi, s0.phi_dot + s1.phi_dot, PARAMS, V)
    check_forward_equivalence(f"criterion 01 forward equivalence {box}", state0, eig)


def check_reverse_equivalence(tag: str, V: PotentialSpec, packet: np.ndarray) -> None:
    """Criterion 2: phi reconstructed from a Cayley run of the normalised
    ``packet`` maps back to it and solves the field equation."""
    grid = V.grid
    packet = packet.astype(complex) / np.sqrt(np.sum(packet**2) * grid.cell_volume)
    psi = WaveFunction(ComplexSampleField(grid, packet), PARAMS)
    dt = 1e-3
    steps = 6283
    frames = {}
    propagate_cn(psi, V, dt, steps, sink=frames.__setitem__)
    psis = [w.psi for w in frames.values()]
    states = list(reconstruct_phi([n * dt for n in frames], psis, V, PARAMS))

    sup_l2 = max(
        l2_norm(ComplexSampleField(grid, to_wavefunction(st).psi.values - fr.values))
        for st, fr in zip(states[:: steps // 40], psis[:: steps // 40])
    )

    # field-equation residual via centered second differences in time
    sample_idx = range(10, steps - 10, steps // 50)
    res_worst, scale_worst = 0.0, 0.0
    for n in sample_idx:
        second = (states[n + 1].phi.values - 2 * states[n].phi.values
                  + states[n - 1].phi.values) / dt**2
        accel = phi_acceleration(states[n]).values
        res_worst = max(res_worst, float(np.max(np.abs(second - accel))))
        scale_worst = max(scale_worst, float(np.max(np.abs(accel))))
    rel_res = res_worst / scale_worst
    ok = sup_l2 <= 1e-5 and rel_res <= 1e-4
    report(
        tag,
        ok,
        f"sup L2 round trip {sup_l2:.3e} (tol 1e-5), "
        f"field-equation residual {rel_res:.3e} (tol 1e-4)",
    )
    assert sup_l2 <= 1e-5
    assert rel_res <= 1e-4


def test_c02_reverse_equivalence(harmonic_128):
    """Reconstructed potential closes the round trip and solves the field equation."""
    grid, V, eig = harmonic_128
    x = grid.axis_coordinates(0)
    check_reverse_equivalence("criterion 02 reverse equivalence", V, np.exp(-((x - 12.0) ** 2) / 2))


@pytest.mark.parametrize("box", BOXES)
def test_c02_reverse_equivalence_in_boxes(box):
    """Criterion 2 in 2D and 3D, from a narrow packet off the well's centre."""
    grid, potential = BOXES[box]
    V = PotentialSpec.from_expression(potential, grid)
    coords = np.meshgrid(*(grid.axis_coordinates(a) for a in range(grid.dims)), indexing="ij")
    centre = 0.5 * np.array(grid.lengths) + np.array([0.4, -0.3, 0.2][: grid.dims])
    r2 = sum((x - c) ** 2 for x, c in zip(coords, centre))
    check_reverse_equivalence(f"criterion 02 reverse equivalence {box}", V, np.exp(-r2 / 0.5))


def test_c03_probability_energy_identity(harmonic_128):
    """|Psi|^2 = 2 hbar (T + U) pointwise; norm drift bounded with no secular trend."""
    grid, V, eig = harmonic_128
    e0, psi0 = float(eig.energies[0]), eig.eigenfield(0)
    state0 = stationary_phi(psi0, e0, 0.0, PARAMS, V)
    dt = stable_dt(V, PARAMS)
    steps = 10_000
    hbar = PARAMS.hbar
    vol = grid.cell_volume
    norms, identity_rel = [], []
    # on 128 points the observer sees mode coordinates of L; the identity is
    # pointwise, so each step is mapped to samples through Q first
    qt = eig.vectors.T

    def observer(steps, lphis, vels):
        for lphi, vel in zip(lphis @ qt, vels @ qt):
            psi = -lphi + 1j * hbar * vel
            psi_sq = np.abs(psi) ** 2
            dens2 = 2.0 * hbar * (0.5 * hbar * vel**2 + 0.5 / hbar * lphi**2)
            norms.append(float(psi_sq.sum() * vol))
            identity_rel.append(float(np.max(np.abs(psi_sq - dens2)) / psi_sq.max()))

    run_verlet(state0, dt, steps, sink=None, observer=observer)
    norms = np.array(norms)
    drift = float(np.max(np.abs(norms - norms[0])) / norms[0])
    worst_identity = max(identity_rel)
    # secular trend: fitted slope over the run must vanish at the oscillation scale
    ts = np.arange(norms.size) * dt
    slope = float(np.polyfit(ts, norms, 1)[0])
    oscillation = float(norms.max() - norms.min()) + 1e-300
    secular = abs(slope) * (ts[-1] - ts[0]) / oscillation
    ok = worst_identity <= 1e-12 and drift <= 1e-6 and secular <= 1.0
    report(
        "criterion 03 probability-energy identity",
        ok,
        f"pointwise identity {worst_identity:.3e} (tol 1e-12), norm drift {drift:.3e} "
        f"(tol 1e-6), secular/oscillation {secular:.3f} (need <= 1)",
    )
    assert worst_identity <= 1e-12
    assert drift <= 1e-6
    assert secular <= 1.0


def test_c04_gauge_freedom(harmonic_128, rng):
    """Kernel shifts leave Psi; anything else is rejected with its residual."""
    grid = Grid.line(128, 20.0)
    v0 = PotentialSpec.zero(grid)
    state = PhiState(
        ScalarSampleField(grid, band_limited(grid, rng)),
        ScalarSampleField(grid, band_limited(grid, rng)),
        PARAMS,
        v0,
    )
    shifted = gauge_shift(state, ScalarSampleField.full(grid, 1.7))
    psi_a = to_wavefunction(state).psi.values
    psi_b = to_wavefunction(shifted).psi.values
    shift_err = float(np.max(np.abs(psi_a - psi_b)) / np.max(np.abs(psi_a)))

    _, V, eig = harmonic_128
    e0, psi0 = float(eig.energies[0]), eig.eigenfield(0)
    harm_state = stationary_phi(psi0, e0, 0.0, PARAMS, V)
    rejected, residual = False, 0.0
    try:
        gauge_shift(harm_state, ScalarSampleField.full(grid, 1.0))
    except GaugeError as err:
        rejected = True
        residual = err.residual
    ok = shift_err <= 1e-13 and rejected and residual > 0
    report(
        "criterion 04 gauge freedom",
        ok,
        f"constant-shift Psi change {shift_err:.3e} (tol 1e-13); non-kernel shift "
        f"rejected with residual {residual:.3e}",
    )
    assert shift_err <= 1e-13
    assert rejected and residual > 0


def test_c05_oracle_cross_validation(harmonic_128):
    """Two Hamiltonian descriptions agree; two propagators converge at order 2."""
    grid = Grid.line(64, 2 * np.pi)
    params = QuantumParams(0.7, 1.3)
    V = PotentialSpec.from_expression("1+0.5*cos(2*pi*x/L)", grid, {"L": grid.lengths[0]})
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        varphi = ScalarSampleField(grid, band_limited(grid, rng))
        p = ScalarSampleField(grid, band_limited(grid, rng))
        a = canonical_rhs(varphi, p, V, params)
        b = generalized_rhs(varphi, p, V, params)
        scale = max(max_norm(a[0]), max_norm(a[1]), 1.0)
        worst = max(
            worst,
            max_norm(a[0] - b[0]) / scale,
            max_norm(a[1] - b[1]) / scale,
        )

    grid2, V2, eig2 = harmonic_128
    x = grid2.axis_coordinates(0)
    packet = np.exp(-((x - 12.0) ** 2) / 2).astype(complex)
    psi = WaveFunction(ComplexSampleField(grid2, packet), PARAMS)
    t_final = 0.4
    ref = exact_propagate_small(psi, V2, t_final, eig=eig2)
    errs = []
    for steps in (100, 200, 400):
        state = psi
        for _ in range(steps):
            state = crank_nicolson_step(state, V2, t_final / steps)
        errs.append(
            l2_norm(ComplexSampleField(grid2, state.psi.values - ref.psi.values))
        )
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    ok = worst <= 1e-13 and 3.5 <= r1 <= 4.5 and 3.5 <= r2 <= 4.5
    report(
        "criterion 05 oracle cross-validation",
        ok,
        f"bracket-vs-canonical max diff {worst:.3e} (tol 1e-13); CN order ratios "
        f"{r1:.2f}, {r2:.2f} (need ~4)",
    )
    assert worst <= 1e-13
    assert 3.5 <= r1 <= 4.5
    assert 3.5 <= r2 <= 4.5


def test_c06_maxwell_equivalence():
    """Field and potential formulations produce matching trajectories; the
    potential reconstruction round-trips the recorded fields."""
    grid = cube(16)
    c = 1.0
    src = SourceSpec.vacuum()
    period = 2 * np.pi
    dt_rk4 = period / 600
    dt_verlet = period / 6000
    assert dt_rk4 <= 0.5 * (2.8 / (c * np.sqrt(3) * (np.pi / grid.spacings[0])))
    f_snaps, p_snaps = {}, {}
    run_rk4(plane_wave_fields(grid, c), src, dt_rk4, 600, sink=f_snaps.__setitem__,
            snapshot_stride=60)
    run_potential_verlet(
        plane_wave_potential(grid, c), src, dt_verlet, 6000, sink=p_snaps.__setitem__,
        snapshot_stride=600,
    )
    ref = l2_norm(f_snaps[0].e)
    worst = 0.0
    for fs, ps in zip(f_snaps.values(), p_snaps.values()):
        mapped = potential_to_fields(ps)
        worst = max(worst, l2_norm(mapped.e - fs.e) / ref, l2_norm(mapped.b - fs.b) / ref)

    window_steps = 341
    dt_win = 0.15 / window_steps
    frames = {}
    run_rk4(plane_wave_fields(grid, c), src, dt_win, window_steps, sink=frames.__setitem__)
    snaps = list(frames.values())
    pstates = reconstruct_vector_potential([n * dt_win for n in frames], snaps)
    round_worst = 0.0
    for ps, fr in zip(pstates, snaps):
        mapped = potential_to_fields(ps)
        round_worst = max(
            round_worst,
            l2_norm(mapped.e - fr.e) / ref,
            l2_norm(mapped.b - fr.b) / ref,
        )
    ok = worst <= 1e-6 and round_worst <= 1e-8
    report(
        "criterion 06 maxwell equivalence",
        ok,
        f"field-vs-potential L2 difference {worst:.3e} (tol 1e-6); reconstruction "
        f"round trip {round_worst:.3e} (tol 1e-8)",
    )
    assert worst <= 1e-6
    assert round_worst <= 1e-8


def test_c07_constraint_persistence():
    """Divergence conditions persist along the flow; injected violations freeze."""
    grid = cube(16)
    x, y, _ = np.meshgrid(*[grid.axis_coordinates(a) for a in range(3)], indexing="ij")
    rho = ScalarSampleField(grid, 0.3 * np.sin(x) * np.cos(y))
    wave = plane_wave_fields(grid)
    e0 = VectorSampleField3(grid, coulomb_field_from_charge(rho).values + wave.e.values)
    state = EMState(e0, wave.b)
    src = SourceSpec("0.3*sin(x)*cos(y)", ("0", "0", "0"))
    src.validate_continuity(grid, 0.02, 8.0)
    dx = grid.spacings[0]
    scale = max_norm(state.e) / dx + max_norm(rho)
    snaps = {}
    run_rk4(state, src, 0.02, 400, sink=snaps.__setitem__, snapshot_stride=50)
    worst_e = max(constraint_residual(s, rho)[0] for s in snaps.values()) / scale
    worst_b = max(constraint_residual(s, rho)[1] for s in snaps.values()) / scale

    # inject a longitudinal violation with vacuum sources: it must stay frozen
    bad = EMState(
        VectorSampleField3(
            grid, wave.e.values + np.stack([np.sin(x), np.zeros_like(x), np.zeros_like(x)])
        ),
        wave.b,
    )
    rho0 = ScalarSampleField.zeros(grid)
    res0 = constraint_residual(bad, rho0)[0]
    bad_snaps = {}
    run_rk4(bad, SourceSpec.vacuum(), 0.02, 400, sink=bad_snaps.__setitem__, snapshot_stride=100)
    frozen = max(abs(constraint_residual(s, rho0)[0] - res0) for s in bad_snaps.values()) / res0
    ok = worst_e <= 1e-9 and worst_b <= 1e-9 and frozen <= 1e-12
    report(
        "criterion 07 constraint persistence",
        ok,
        f"div E - rho residual {worst_e:.3e}, div B residual {worst_b:.3e} "
        f"(tol 1e-9 x scale); injected violation drift {frozen:.3e} (tol 1e-12)",
    )
    assert worst_e <= 1e-9
    assert worst_b <= 1e-9
    assert frozen <= 1e-12


def test_c08_structural_identities(rng):
    """Discrete vector-calculus identities hold at roundoff for both backends."""
    grid = cube(16)
    worst_curl_grad = worst_div_curl = worst_curl_curl = 0.0
    for method in ("spectral", "central2"):
        f = ScalarSampleField(grid, band_limited(grid, rng))
        v = VectorSampleField3(grid, np.stack([band_limited(grid, rng) for _ in range(3)]))
        worst_curl_grad = max(worst_curl_grad, max_norm(curl(gradient(f, method), method)))
        worst_div_curl = max(worst_div_curl, max_norm(divergence(curl(v, method), method)))
        worst_curl_curl = max(worst_curl_curl, curl_curl_identity_residual(v, method))

    state = EMState(
        VectorSampleField3(grid, np.stack([band_limited(grid, rng) for _ in range(3)])),
        VectorSampleField3(grid, np.stack([band_limited(grid, rng) for _ in range(3)])),
        c=1.7,
    )
    src = SourceSpec("0", ("cos(y)", "sin(z)", "0"))
    rs_res, rs_scale = riemann_silberstein_residual(state, src, 0.0)
    rs_rel = rs_res / rs_scale

    pot = PotentialState(
        VectorSampleField3(grid, np.stack([band_limited(grid, rng) for _ in range(3)])),
        VectorSampleField3(grid, np.stack([band_limited(grid, rng) for _ in range(3)])),
    )
    div_b = max_norm(divergence(potential_to_fields(pot).b))
    ok = (
        worst_curl_grad <= 1e-11
        and worst_div_curl <= 1e-11
        and worst_curl_curl <= 1e-11
        and rs_rel <= 1e-12
        and div_b <= 1e-11
    )
    report(
        "criterion 08 structural identities",
        ok,
        f"curl grad {worst_curl_grad:.2e}, div curl {worst_div_curl:.2e}, curl-curl "
        f"{worst_curl_curl:.2e} (tol 1e-11); compact-form residual {rs_rel:.2e} "
        f"(tol 1e-12); div B from potential {div_b:.2e} (tol 1e-11)",
    )
    assert worst_curl_grad <= 1e-11
    assert worst_div_curl <= 1e-11
    assert worst_curl_curl <= 1e-11
    assert rs_rel <= 1e-12
    assert div_b <= 1e-11


def test_c09_continuity_gate(tmp_path):
    """Inconsistent sources are rejected before any stepping, library and CLI."""
    grid = cube(8)
    src = SourceSpec("sin(x)*cos(t)", ("0", "0", "0"))
    raised = False
    try:
        src.validate_continuity(grid, 0.02, 1.0)
    except ContinuityError:
        raised = True

    code = cli_main(
        [
            "maxwell-fields",
            "--scenario", str(SCENARIO_DIR / "c09_bad_continuity.scn"),
            "--out", str(tmp_path / "bad"),
        ]
    )
    no_outputs = not (tmp_path / "bad" / "snapshots.wps").exists()
    ok = raised and code == 1 and no_outputs
    report(
        "criterion 09 continuity gate",
        ok,
        f"library raised={raised}, CLI exit={code} (need 1), no outputs written={no_outputs}",
    )
    assert raised
    assert code == 1
    assert no_outputs


def test_c10_rescaling():
    """hbar can be absorbed into the background as a coupling constant."""
    hbar = 1.5
    n, length = 128, 16.0
    params = QuantumParams(hbar, 1.0)
    grid = Grid.line(n, length)
    V = PotentialSpec.from_expression("0.5*(x-8)^2", grid)
    x = grid.axis_coordinates(0)
    state = PhiState(
        ScalarSampleField(grid, np.exp(-((x - 8.0) ** 2) / 2.0)),
        ScalarSampleField.zeros(grid),
        params,
        V,
    )

    params_r = QuantumParams(1.0, 1.0)
    grid_r = Grid.line(n, length / hbar)
    V_r = PotentialSpec.from_expression("0.5*(hb*x-8)^2", grid_r, {"hb": hbar})
    y = grid_r.axis_coordinates(0)
    state_r = PhiState(
        ScalarSampleField(grid_r, np.exp(-((hbar * y - 8.0) ** 2) / 2.0) / np.sqrt(hbar)),
        ScalarSampleField.zeros(grid_r),
        params_r,
        V_r,
    )

    dt = 0.5 * stable_dt(V, params)
    steps = 400
    snaps, snaps_r = {}, {}
    run_verlet(state, dt, steps, sink=snaps.__setitem__, snapshot_stride=100)
    run_verlet(state_r, dt / hbar, steps, sink=snaps_r.__setitem__, snapshot_stride=100)
    scale = max_norm(state.phi)
    traj_err = max(
        np.max(np.abs(np.sqrt(hbar) * sr.phi.values - s.phi.values)) / scale
        for s, sr in zip(snaps.values(), snaps_r.values())
    )

    dense = {}
    run_verlet(state_r, dt / hbar, 2, sink=dense.__setitem__)
    phi_m = [np.sqrt(hbar) * s.phi.values for s in dense.values()]
    second = (phi_m[2] - 2 * phi_m[1] + phi_m[0]) / dt**2
    mid = PhiState(ScalarSampleField(grid, phi_m[1]), ScalarSampleField.zeros(grid), params, V)
    residual = float(np.max(np.abs(second - phi_acceleration(mid).values)))
    tol_res = 1e-12 * (max_energy_bound(V, params) / hbar) ** 2 * scale
    ok = traj_err <= 1e-10 and residual <= tol_res
    report(
        "criterion 10 rescaling",
        ok,
        f"mapped-trajectory mismatch {traj_err:.3e} (tol 1e-10); discrete recurrence "
        f"residual {residual:.3e} (tol {tol_res:.3e})",
    )
    assert traj_err <= 1e-10
    assert residual <= tol_res


# reduced step counts so the determinism probe re-runs every scenario quickly
_DETERMINISM_OVERRIDES = {
    "c01_forward_equivalence.scn": ["integrator.steps=120", "integrator.snapshot_stride=30"],
    "c02_gaussian_cn.scn": ["integrator.steps=60"],
    "c03_identity_drift.scn": ["integrator.steps=120", "integrator.snapshot_stride=30"],
    "c06_maxwell_fields.scn": ["integrator.steps=60", "integrator.snapshot_stride=20"],
    "c06_maxwell_potential.scn": ["integrator.steps=60", "integrator.snapshot_stride=20"],
    "c06_reconstruct_window.scn": ["integrator.steps=40"],
    "c07_charged_persistence.scn": ["integrator.steps=40", "integrator.snapshot_stride=20"],
    "c10_rescaling_base.scn": ["integrator.steps=80", "integrator.snapshot_stride=40"],
    "c10_rescaling_mapped.scn": ["integrator.steps=80", "integrator.snapshot_stride=40"],
}


def test_c11_determinism(tmp_path):
    """Identical scenario + seed produce byte-identical outputs, twice over."""
    mismatches = []
    for name, overrides in _DETERMINISM_OVERRIDES.items():
        scn_path = SCENARIO_DIR / name
        kind = None
        for line in scn_path.read_text().splitlines():
            if line.startswith("kind"):
                kind = line.split("=")[1].strip()
                break
        outs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{name}-{attempt}"
            argv = [kind, "--scenario", str(scn_path), "--out", str(out)]
            for ov in overrides:
                argv += ["--override", ov]
            code = cli_main(argv)
            assert code == 0, f"{name} failed with exit {code}"
            outs.append(out)
        for artifact in ("snapshots.wps", "diagnostics.csv"):
            b1 = (outs[0] / artifact).read_bytes()
            b2 = (outs[1] / artifact).read_bytes()
            if b1 != b2:
                mismatches.append(f"{name}:{artifact}")

    # chain the reconstruction and comparison scenarios off the fresh runs
    sch_out = tmp_path / "c02_gaussian_cn.scn-a"
    rec_outs = []
    for attempt in ("a", "b"):
        out = tmp_path / f"rec-{attempt}"
        code = cli_main(
            [
                "reconstruct-phi",
                "--scenario", str(SCENARIO_DIR / "c02_reconstruct.scn"),
                "--override", f"inputs.source={sch_out}",
                "--out", str(out),
            ]
        )
        assert code == 0
        rec_outs.append(out)
    if (rec_outs[0] / "snapshots.wps").read_bytes() != (rec_outs[1] / "snapshots.wps").read_bytes():
        mismatches.append("c02_reconstruct:snapshots.wps")

    cmp_out = tmp_path / "cmp"
    code = cli_main(
        [
            "compare",
            "--scenario", str(SCENARIO_DIR / "c02_compare.scn"),
            "--override", f"inputs.run_a={rec_outs[0]}",
            "--override", f"inputs.run_b={sch_out}",
            "--out", str(cmp_out),
        ]
    )
    assert code == 0
    summary = json.loads((cmp_out / "summary.json").read_text())

    ok = not mismatches
    report(
        "criterion 11 determinism",
        ok,
        f"{len(_DETERMINISM_OVERRIDES)} scenarios re-run byte-identical"
        + (f"; mismatches: {mismatches}" if mismatches else "")
        + f"; chained compare max L2 {summary['max_l2_diff']:.3e}",
    )
    assert not mismatches


# The roundoff allowance of criterion 13, in units of eps times the norm of the
# operator applied: an FFT-based apply errs by a few eps times log2 of the point
# count, and the running trapezoid adds a few eps a frame. It makes up under a
# tenth of either bound on the grids below.
_ROUNDOFF = 100 * np.finfo(float).eps


@pytest.mark.parametrize("method", ["spectral", "central2"])
@pytest.mark.parametrize("dims", [1, 2])
def test_c13_discrete_reverse_equivalence(dims, method):
    """A Cayley record rebuilt by ``reconstruct_phi`` is the trapezoidal phi scheme, at any dt.

    ``reconstruct_phi`` solves L phi^0 = -Re Psi^0 to ``_ELLIPTIC_TOL`` and sets
    phi^{n+1} - phi^n = a (Im Psi^n + Im Psi^{n+1}), a = dt / 2 hbar. Each Cayley
    step solves (1 + i a H) Psi^{n+1} = b_n + r_n, b_n = (1 - i a H) Psi^n, with
    H = -L and ||r_n|| <= ``_CAYLEY_TOL`` ||b_n||. Its real part gives
    e^{n+1} = e^n + Re r_n for e^n = Re Psi^n + L phi^n, so Re Psi^n = -L phi^n
    holds at every frame to

        B_n = _ELLIPTIC_TOL ||Re Psi^0|| + _CAYLEY_TOL sum_{k<n} ||b_k||.

    Its imaginary part then makes phi the trapezoidal rule (Newmark beta = 1/4,
    gamma = 1/2) for hbar^2 phi'' = -L^2 phi: the residual

        R_n = hbar^2 (phi^{n+1} - 2 phi^n + phi^{n-1}) / dt^2
              + L^2 (phi^{n+1} + 2 phi^n + phi^{n-1}) / 4
            = L (e^{n+1} + 2 e^n + e^{n-1}) / 4 + (hbar / 2 dt) Im (r_n + r_{n-1})

    is at most E_max (B_{n+1} + 2 B_n + B_{n-1}) / 4
    + (hbar / 2 dt) _CAYLEY_TOL (||b_n|| + ||b_{n-1}||), E_max bounding ||L||.
    Norms are 2-norms of the sample arrays, as the solvers measure residuals,
    and each bound adds ``_ROUNDOFF`` times the norms it applies L to. Neither
    bound depends on the dt^2 error that c02's field-equation residual measures,
    so the check runs at 50 times c02's dt. The Maxwell reverse map is not exact
    in this sense: RK4 is not the trapezoidal rule, and the trapezoid of E keeps
    a dt^2 error.
    """
    points, dt, steps = {1: ((128,), 0.05, 60), 2: ((32, 32), 0.05, 40)}[dims]
    grid = Grid(points, (20.0,) * dims)
    V = PotentialSpec.from_expression(
        "0.5*((x-10)^2 + (y-10)^2)" if dims == 2 else "0.5*(x-10)^2", grid
    )
    identity_ratio, newmark_ratio, largest = _c13_ratios(grid, V, dt, steps, method)
    ok = identity_ratio <= 1.0 and newmark_ratio <= 1.0
    report(
        f"criterion 13 discrete reverse equivalence ({dims}D {method})",
        ok,
        f"Re Psi + L phi at {identity_ratio:.2f} of its bound (largest "
        f"{largest:.3e}), Newmark residual at {newmark_ratio:.2f} of its bound, "
        f"dt = {dt} over {steps} steps",
    )
    assert identity_ratio <= 1.0
    assert newmark_ratio <= 1.0


def _c13_ratios(grid, V, dt, steps, method):
    """Criterion 13 on a Gaussian packet, ``steps`` Cayley steps of ``dt``: the
    largest ||Re Psi + L phi|| over its bound, the largest Newmark residual over
    its bound, and the largest ||Re Psi + L phi||."""
    dims = grid.dims
    coords = np.meshgrid(*(grid.axis_coordinates(a) for a in range(dims)), indexing="ij")
    v = V.sampled.values
    packet = np.exp(-((coords[0] - 12.0) ** 2 + sum((c - 10.0) ** 2 for c in coords[1:])) / 2)
    packet = packet / np.sqrt(np.sum(packet**2) * grid.cell_volume)
    frames = {}
    propagate_cn(
        WaveFunction(ComplexSampleField(grid, packet.astype(complex)), PARAMS), V, dt, steps,
        sink=frames.__setitem__, method=method,
    )
    psis = [frames[n].psi.values for n in range(steps + 1)]
    states = reconstruct_phi(
        [n * dt for n in range(steps + 1)], (frames[n].psi for n in range(steps + 1)),
        V, PARAMS, method,
    )
    phis = [state.phi.values for state in states]

    def apply_l(f):
        return l_operator_array(f, v, grid, PARAMS, method)

    hbar, a = PARAMS.hbar, dt / (2.0 * PARAMS.hbar)
    e_max = max_energy_bound(V, PARAMS, method)
    b_norms = np.array([
        np.linalg.norm(p - 1j * a * hamiltonian_array(p, v, grid, PARAMS, method)) for p in psis
    ])
    phi_norms = np.array([np.linalg.norm(f) for f in phis])
    bounds = (_ELLIPTIC_TOL * np.linalg.norm(psis[0].real)
              + _CAYLEY_TOL * np.concatenate([[0.0], np.cumsum(b_norms[:-1])])
              + _ROUNDOFF * e_max * phi_norms)
    identity = np.array([np.linalg.norm(p.real + apply_l(f)) for p, f in zip(psis, phis)])

    newmark = []
    for n in range(1, steps):
        second = hbar**2 * (phis[n + 1] - 2.0 * phis[n] + phis[n - 1]) / dt**2
        residual = second + apply_l(apply_l(phis[n + 1] + 2.0 * phis[n] + phis[n - 1])) / 4.0
        bound = (e_max * (bounds[n + 1] + 2.0 * bounds[n] + bounds[n - 1]) / 4.0
                 + hbar / (2.0 * dt) * _CAYLEY_TOL * (b_norms[n] + b_norms[n - 1])
                 + _ROUNDOFF * (4.0 * hbar**2 / dt**2 + e_max**2) * phi_norms[n - 1 : n + 2].sum())
        newmark.append(np.linalg.norm(residual) / bound)
    return float(np.max(identity / bounds)), float(np.max(newmark)), float(identity.max())


@pytest.mark.parametrize("dims", [1, 2])
def test_c13_property_over_band_limited_potentials(dims):
    """Criterion 13's two bounds hold for any grid, dt, backend and band-limited
    potential, V = 0.5 + a (1 + f) with f from ``conftest.band_limited`` (so
    V >= 0.5 and L has no kernel)."""
    worst = {"identity": 0.0, "newmark": 0.0}
    examples = []
    grids = [(64,), (128,), (256,)] if dims == 1 else [(16, 16), (32, 16), (16, 32)]

    @given(
        points=st.sampled_from(grids),
        dt=st.floats(0.005, 0.25),
        method=st.sampled_from(["spectral", "central2"]),
        amplitude=st.floats(0.0, 20.0),
        seed=st.integers(0, 2**16),
    )
    def check(points, dt, method, amplitude, seed):
        grid = Grid(points, (20.0,) * dims)
        f = band_limited(grid, np.random.default_rng(seed))
        V = PotentialSpec(ScalarSampleField(grid, 0.5 + amplitude * (1.0 + f)))
        identity_ratio, newmark_ratio, _ = _c13_ratios(grid, V, dt, 20, method)
        examples.append(points)
        worst["identity"] = max(worst["identity"], identity_ratio)
        worst["newmark"] = max(worst["newmark"], newmark_ratio)
        assert identity_ratio <= 1.0
        assert newmark_ratio <= 1.0

    try:
        check()
    finally:
        report(
            f"criterion 13 property ({dims}D)",
            max(worst.values()) <= 1.0,
            f"{len(examples)} drawn grids, dt, backends and potentials: Re Psi + L phi at "
            f"most {worst['identity']:.2f} of its bound, Newmark residual at most "
            f"{worst['newmark']:.2f} of its bound, 20 steps each",
        )
