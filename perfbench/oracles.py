"""Independent references for the benchmark's correctness checks.

Nothing here imports ``wavepot``. The snapshot reader follows
docs/snapshot_format.md byte for byte, the quantum oracles build the
discrete Hamiltonian as a dense numpy matrix and diagonalise it with
``numpy.linalg.eigh``, and the Maxwell oracle is the closed-form solution of
a single-mode plane wave driven by a single-mode current.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

MAGIC = b"WAVEPOT-SNAP 1\n"


def read_record(path: Path) -> tuple[dict, np.ndarray, np.ndarray]:
    """Header, frame times and frames shaped (frames, fields, *grid) of a .wps file."""
    raw = Path(path).read_bytes()
    if not raw.startswith(MAGIC):
        raise ValueError(f"{path} is not a snapshot file")
    end = raw.index(b"\n", len(MAGIC))
    header = json.loads(raw[len(MAGIC) : end])
    points = tuple(header["grid"]["points"])
    count, nfields = int(header["frame_count"]), len(header["fields"])
    data = np.frombuffer(raw, dtype="<f8", offset=end + 1)
    size = int(np.prod(points))
    if data.size != count * nfields * size:
        raise ValueError(f"{path} holds {data.size} samples, header promises {count * nfields * size}")
    # x varies fastest: reverse the axes of a C-order view
    frames = data.reshape((count, nfields) + points[::-1])
    frames = np.ascontiguousarray(frames.transpose((0, 1) + tuple(range(len(points) + 1, 1, -1))))
    times = header["time_start"] + header["time_step"] * np.arange(count)
    return header, times, frames


def read_columns(path: Path) -> dict[str, np.ndarray]:
    """CSV diagnostics or report as float columns by name."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {name: np.array([float(r[i]) for r in rows[1:]]) for i, name in enumerate(rows[0])}


# --- quantum side: dense H on a periodic 1D grid ------------------------------


def laplacian_matrix(points: int, length: float) -> np.ndarray:
    """Spectral second derivative as a dense circulant matrix.

    The symbol is -k^2 on the FFT wavenumbers with the Nyquist mode kept,
    which is the convention of the spectral backend.
    """
    k = 2.0 * np.pi * np.fft.fftfreq(points, d=length / points)
    column = np.fft.ifft(-(k**2)).real
    idx = (np.arange(points)[:, None] - np.arange(points)[None, :]) % points
    return column[idx]


def hamiltonian_matrix(points, length, v, hbar=1.0, mass=1.0) -> np.ndarray:
    """H = -(hbar^2/2m) Lap + diag(V); L = -H."""
    h = -(hbar**2) / (2.0 * mass) * laplacian_matrix(points, length)
    h[np.diag_indices(points)] += v
    return 0.5 * (h + h.T)


class DenseOracle:
    """Eigensystem of the dense numpy H; eigenvectors grid-normalised columns."""

    def __init__(self, points, length, v, hbar=1.0, mass=1.0):
        self.dx = length / points
        self.hbar = hbar
        self.h = hamiltonian_matrix(points, length, v, hbar, mass)
        self.energies, vectors = np.linalg.eigh(self.h)
        # sign convention: the largest-magnitude entry of each vector is positive
        pick = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(points)]
        self.vectors = vectors * np.sign(pick)

    def eigenfield(self, n: int) -> np.ndarray:
        return self.vectors[:, n] / np.sqrt(self.dx)

    def apply_l(self, values: np.ndarray) -> np.ndarray:
        """L applied to samples along the last axis."""
        return -(values @ self.h)

    def l2(self, values: np.ndarray) -> np.ndarray:
        """Grid L2 norm along the last axis."""
        return np.sqrt(np.sum(np.abs(values) ** 2, axis=-1) * self.dx)

    def cayley_record(self, psi0: np.ndarray, dt: float, steps: int) -> np.ndarray:
        """Exact discrete Cayley iterates ((1 - i a E)/(1 + i a E))^n, n = 0..steps."""
        a = dt / (2.0 * self.hbar)
        ratio = (1.0 - 1j * a * self.energies) / (1.0 + 1j * a * self.energies)
        coeffs = self.vectors.T @ psi0
        powers = ratio[None, :] ** np.arange(steps + 1)[:, None]
        return (powers * coeffs[None, :]) @ self.vectors.T

    def rhs_growth(self, psi0: np.ndarray, dt: float) -> float:
        """||(1 - i a H) psi|| / ||psi||, invariant along the Cayley flow."""
        a = dt / (2.0 * self.hbar)
        c2 = np.abs(self.vectors.T @ psi0) ** 2
        return float(np.sqrt(np.sum(c2 * (1.0 + (a * self.energies) ** 2)) / np.sum(c2)))


# --- electromagnetic side: forced single-mode plane wave ----------------------


class ForcedPlaneWave:
    """E = z g(s, t), B = f h(s, t), J = z j0 cos(s) sin(Omega t + theta), s = k.x.

    With g = e1 cos s + e2 sin s and h = b1 cos s + b2 sin s the field
    equations reduce to z' = i w z - j(t) for z = e1 + i b2 and w' = i w w
    for w = b1 + i e2, where w = c |k|; both are solved in closed form. The
    spectral backend represents each single-mode profile exactly in space, so
    only time-integration error separates a run from this solution.
    """

    def __init__(self, k, c, j0, omega_drive, theta, e1=1.0, b1=1.0):
        self.k = np.asarray(k, dtype=float)
        if self.k[2] != 0.0:
            raise ValueError("the drive is polarised along z, so k must lie in the x-y plane")
        self.knorm = float(np.linalg.norm(self.k))
        self.f = np.array([self.k[1], -self.k[0], 0.0]) / self.knorm  # k_hat x z_hat
        self.c, self.j0, self.omega_drive, self.theta = c, j0, omega_drive, theta
        self.w = c * self.knorm
        self.z0, self.w0 = complex(e1), complex(b1)

    def _integral(self, t):
        """Int_0^t exp(-i w tau) j0 sin(Omega tau + theta) dtau."""
        w, om, th = self.w, self.omega_drive, self.theta

        def ramp(a):
            return (np.exp(1j * a * t) - 1.0) / (1j * a)

        return self.j0 / 2j * (np.exp(1j * th) * ramp(om - w) - np.exp(-1j * th) * ramp(-(om + w)))

    def modes(self, t):
        """(e1, e2, b1, b2) at the times t."""
        t = np.asarray(t, dtype=float)
        z = np.exp(1j * self.w * t) * (self.z0 - self._integral(t))
        w = np.exp(1j * self.w * t) * self.w0
        return z.real, w.imag, w.real, z.imag

    def phase(self, points, length):
        axes = [np.arange(n) * (length / n) for n in points]
        x, y, _ = np.meshgrid(*axes, indexing="ij")
        return self.k[0] * x + self.k[1] * y

    def fields(self, t, points, length) -> np.ndarray:
        """(times, 6, *grid): E then B components."""
        s = self.phase(points, length)
        cs, sn = np.cos(s), np.sin(s)
        e1, e2, b1, b2 = (np.atleast_1d(m)[:, None, None, None] for m in self.modes(t))
        g, h = e1 * cs + e2 * sn, b1 * cs + b2 * sn
        zero = np.zeros_like(g)
        return np.stack([zero, zero, g, self.f[0] * h, self.f[1] * h, zero], axis=1)

    def potential(self, t, points, length) -> np.ndarray:
        """(times, 6, *grid): divergence-free A with curl A = B, then dA/dt = -c E."""
        s = self.phase(points, length)
        cs, sn = np.cos(s), np.sin(s)
        e1, e2, b1, b2 = (np.atleast_1d(m)[:, None, None, None] for m in self.modes(t))
        # curl(z a(s)) = |k| a'(s) (k_hat x z_hat), so a = (b1 sin s - b2 cos s)/|k|
        a = (b1 * sn - b2 * cs) / self.knorm
        adot = -self.c * (e1 * cs + e2 * sn)
        zero = np.zeros_like(a)
        return np.stack([zero, zero, a, zero, zero, adot], axis=1)


def rk4_error_bound(omega_max: float, dt: float, total_time: float) -> float:
    """Global error scale of classical RK4 on an oscillator: T w^5 dt^4 / 120."""
    return total_time * omega_max**5 * dt**4 / 120.0


def verlet_error_bound(omega_max: float, dt: float, total_time: float) -> float:
    """Global phase error scale of velocity Verlet on an oscillator: T w^3 dt^2 / 24."""
    return total_time * omega_max**3 * dt**2 / 24.0


def max_l2(diff: np.ndarray, cell_volume: float) -> float:
    """Largest per-frame grid L2 norm over the leading (frame) axis."""
    flat = diff.reshape(diff.shape[0], -1)
    return float(np.sqrt(np.max(np.sum(np.abs(flat) ** 2, axis=1)) * cell_volume))
