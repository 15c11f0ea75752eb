"""Quick self-test of the benchmark's oracles (a few seconds).

Usage (from the repository root): python3 perfbench/selftest.py

Checks that the numpy dense Hamiltonian and its eigensystem agree with
``wavepot.schrodinger.dense_eigensystem`` on a small grid to ~1e-10, that the
snapshot reader agrees with ``wavepot.snapshots.read_snapshot``, and that the
closed-form forced plane wave satisfies the field equations. Exit code 0 when
every check passes, 1 otherwise.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path.cwd() / "src"))
import oracles  # noqa: E402
from wavepot import operators, schrodinger, snapshots  # noqa: E402
from wavepot.grids import ComplexSampleField, Grid, VectorSampleField3  # noqa: E402

TOL = 1e-10


def dense_eigensystem_matches() -> list[tuple[str, float]]:
    points, length = 64, 20.0
    grid = Grid.line(points, length)
    V = schrodinger.PotentialSpec.from_expression("0.5*(x-10)^2", grid)
    params = schrodinger.QuantumParams()
    ref = schrodinger.dense_eigensystem(V, params)
    x = np.arange(points) * (length / points)
    ours = oracles.DenseOracle(points, length, 0.5 * (x - 10.0) ** 2)
    emax = float(np.max(np.abs(ref.energies)))
    h_ref = schrodinger.dense_hamiltonian(V, params)
    low = 10  # well-separated low modes; high ones come in near-degenerate pairs
    # mirror-symmetric modes tie on their largest entry, so compare up to sign
    u, w = ours.vectors[:, :low], ref.vectors[:, :low]
    vec_diff = np.minimum(np.abs(u - w).max(axis=0), np.abs(u + w).max(axis=0)).max()
    rng = np.random.default_rng(0)
    psi = rng.normal(size=points) + 1j * rng.normal(size=points)
    wave = schrodinger.WaveFunction(ComplexSampleField(grid, psi), params)
    t = 0.7
    prop_ref = schrodinger.exact_propagate_small(wave, V, t, eig=ref).psi.values
    prop = ours.vectors @ (np.exp(-1j * ours.energies * t) * (ours.vectors.T @ psi))
    return [
        ("dense H, max |entry diff| / E_max", float(np.max(np.abs(ours.h - h_ref))) / emax, TOL),
        ("energies, max |diff| / E_max",
         float(np.max(np.abs(ours.energies - ref.energies))) / emax, TOL),
        ("lowest 10 eigenvectors up to sign, max |diff|", float(vec_diff), TOL),
        ("propagated state, max |diff| / max |psi|",
         float(np.max(np.abs(prop - prop_ref)) / np.max(np.abs(psi))), TOL),
    ]


def reader_matches() -> list[tuple[str, float]]:
    grid = Grid((4, 6, 8), (1.0, 2.0, 3.0))
    rng = np.random.default_rng(1)
    frames = [[rng.normal(size=grid.shape) for _ in range(2)] for _ in range(3)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.wps"
        snapshots.write_snapshot(path, kind="phi", grid=grid, fields=("phi", "phi_dot"),
                                 times=[0.0, 0.5, 1.0], frames=frames, provenance={})
        ref = snapshots.read_snapshot(path)
        _, times, ours = oracles.read_record(path)
    diff = max(float(np.max(np.abs(ours[n, i] - ref.frames[n][name])))
               for n in range(3) for i, name in enumerate(ref.fields))
    return [("snapshot reader, max |diff|", diff, 0.0),
            ("snapshot times, max |diff|", float(np.max(np.abs(times - ref.times))), 0.0)]


def plane_wave_solves_maxwell() -> list[tuple[str, float]]:
    points, length = (16, 16, 16), 2.0 * np.pi
    grid = Grid(points, (length,) * 3)
    wave = oracles.ForcedPlaneWave((1.0, 2.0, 0.0), 1.0, 0.5, 1.0, 0.3)
    t, h = 0.9, 1e-4
    f = wave.fields(np.array([t - h, t, t + h]), points, length)
    ddt = (f[2] - f[0]) / (2.0 * h)
    e, b = f[1, :3], f[1, 3:]
    s = wave.phase(points, length)
    j = np.zeros_like(e)
    j[2] = wave.j0 * np.cos(s) * np.sin(wave.omega_drive * t + wave.theta)
    curl_b = operators.curl(VectorSampleField3(grid, b)).values
    curl_e = operators.curl(VectorSampleField3(grid, e)).values
    res_e = np.max(np.abs(ddt[:3] - (wave.c * curl_b - j)))
    res_b = np.max(np.abs(ddt[3:] + wave.c * curl_e))
    a = wave.potential(np.array([t]), points, length)[0]
    curl_a = operators.curl(VectorSampleField3(grid, a[:3])).values
    # the central difference in time carries an O(h^2) error of about 1e-8
    return [
        ("closed form dE/dt - (c curl B - J), max", float(res_e), 1e-7),
        ("closed form dB/dt + c curl E, max", float(res_b), 1e-7),
        ("closed form curl A - B, max", float(np.max(np.abs(curl_a - b))), TOL),
    ]


def main() -> int:
    ok = True
    for name, value, tol in (
        dense_eigensystem_matches() + reader_matches() + plane_wave_solves_maxwell()
    ):
        passed = value <= tol
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {name}: {value:.3e} (tol {tol:g})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
