"""The three scenario chains the benchmark runs, and their correctness checks.

A workload writes its scenario files into a work directory, names the chain
of scenario runs (one operation each) and checks the chain's outputs against
the independent oracles of ``oracles.py``. The seed changes initial data
only: every seed gives the same grids, step counts and record sizes.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import numpy as np

import oracles


def _scenario(sections: dict) -> str:
    lines = []
    for section, entries in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in entries.items()]
        lines.append("")
    return "\n".join(lines)


def _op(kind: str, name: str) -> dict:
    return {"kind": kind, "scenario": f"{name}.scn", "out": name}


class Check:
    """Collects named measured values against limits; a failed limit is an error."""

    def __init__(self):
        self.values: dict[str, float] = {}
        self.errors: list[str] = []

    def at_most(self, name: str, value: float, limit: float) -> None:
        self.values[name] = float(value)
        if not (value <= limit):
            self.errors.append(f"{name} = {value:.3e} exceeds {limit:.3e}")

    def equal(self, name: str, value, expected) -> None:
        if value != expected:
            self.errors.append(f"{name} = {value!r}, expected {expected!r}")


# --- quantum-forward ----------------------------------------------------------

HARMONIC = "0.5*(x-10)^2"
QUANTUM_LENGTH = 20.0


def _harmonic(points: int) -> np.ndarray:
    x = np.arange(points) * (QUANTUM_LENGTH / points)
    return 0.5 * (x - 10.0) ** 2


class QuantumForward:
    """Criterion-1 shape: phi-Verlet of the harmonic ground state, 256 points."""

    points = 256
    steps = 20000
    stride = 2000

    def __init__(self, seed: int):
        # ground-state energy is ~0.5, so four pi spans one full phase turn
        self.t0 = random.Random(seed).uniform(0.0, 4.0 * math.pi)
        self.seed = seed

    def scenarios(self) -> dict[str, str]:
        return {
            "forward.scn": _scenario({
                "scenario": {"kind": "phi", "seed": self.seed},
                "grid": {"points": self.points, "lengths": QUANTUM_LENGTH},
                "potential": {"v": HARMONIC},
                "initial": {"type": "stationary", "mode": 0, "time": repr(self.t0)},
                "integrator": {"dt": "auto", "dt_scale": 0.1, "steps": self.steps,
                               "snapshot_stride": self.stride},
                "monitors": {"norm_drift": 1e-6, "identity_residual": 1e-12},
            })
        }

    chain = [_op("phi", "forward")]

    def prepare(self) -> None:
        self.oracle = oracles.DenseOracle(self.points, QUANTUM_LENGTH, _harmonic(self.points))

    def check(self, work: Path) -> list[Check]:
        check = Check()
        header, times, frames = oracles.read_record(work / "forward" / "snapshots.wps")
        check.equal("frames", len(times), 1 + self.steps // self.stride)
        o = self.oracle
        psi_run = -o.apply_l(frames[:, 0]) + 1j * frames[:, 1]
        psi_exact = o.eigenfield(0)[None, :] * np.exp(-1j * o.energies[0] * (self.t0 + times))[:, None]
        check.at_most("sup_l2_vs_stationary", np.max(o.l2(psi_run - psi_exact)), 1e-5)
        diag = oracles.read_columns(work / "forward" / "diagnostics.csv")
        check.equal("diagnostic_rows", len(diag["step"]), self.steps + 1)
        norm = diag["psi_norm"]
        check.at_most("norm_drift", np.max(np.abs(norm - norm[0])) / norm[0], 1e-6)
        check.at_most("identity_residual", np.max(diag["identity_residual"]), 1e-12)
        return [check]


# --- quantum-roundtrip --------------------------------------------------------


class QuantumRoundtrip:
    """Cayley record of a displaced packet, reconstruct-phi, compare."""

    points = 2048
    dt = 1e-3  # ~50 CGLS iterations per Cayley solve on this grid
    steps = 120
    solve_tol = 1e-12  # crank_nicolson_step's relative residual

    def __init__(self, seed: int):
        self.x0 = 12.0 + random.Random(seed).uniform(-0.01, 0.01)
        self.seed = seed

    def scenarios(self) -> dict[str, str]:
        return {
            "cayley.scn": _scenario({
                "scenario": {"kind": "schrodinger", "seed": self.seed},
                "grid": {"points": self.points, "lengths": QUANTUM_LENGTH},
                "potential": {"v": HARMONIC},
                "initial": {"psi_re": f"exp(-(x-{self.x0!r})^2/2)", "psi_im": 0,
                            "normalize": "true"},
                "integrator": {"dt": repr(self.dt), "steps": self.steps, "snapshot_stride": 1},
                "monitors": {"norm_drift": 1e-9},
            }),
            "reconstruct.scn": _scenario({
                "scenario": {"kind": "reconstruct-phi"},
                "potential": {"v": HARMONIC},
                "inputs": {"source": "cayley"},
            }),
            "compare.scn": _scenario({
                "scenario": {"kind": "compare"},
                "inputs": {"run_a": "reconstruct", "run_b": "cayley",
                           "transform_a": "phi_to_psi", "transform_b": "identity"},
            }),
        }

    chain = [
        _op("schrodinger", "cayley"),
        _op("reconstruct-phi", "reconstruct"),
        _op("compare", "compare"),
    ]

    def prepare(self) -> None:
        self.oracle = oracles.DenseOracle(self.points, QUANTUM_LENGTH, _harmonic(self.points))
        x = np.arange(self.points) * (QUANTUM_LENGTH / self.points)
        psi0 = np.exp(-((x - self.x0) ** 2) / 2.0).astype(complex)
        self.psi0 = psi0 / self.oracle.l2(psi0)
        self.expected = self.oracle.cayley_record(self.psi0, self.dt, self.steps)

    def check(self, work: Path) -> list[Check]:
        o = self.oracle
        cayley, recon, compare = Check(), Check(), Check()

        _, _, frames = oracles.read_record(work / "cayley" / "snapshots.wps")
        psi = frames[:, 0] + 1j * frames[:, 1]
        cayley.equal("frames", len(psi), self.steps + 1)
        # each solve leaves a residual <= tol ||b||, ||b|| = growth ||psi||, and
        # the inverse Cayley matrix has norm <= 1; errors add along the record
        growth = o.rhs_growth(self.psi0, self.dt)
        limit = 2.0 * self.steps * self.solve_tol * growth + 1e-11
        cayley.at_most("sup_l2_vs_cayley_oracle", np.max(o.l2(psi - self.expected)), limit)
        norm = oracles.read_columns(work / "cayley" / "diagnostics.csv")["norm"]
        cayley.at_most("norm_drift", np.max(np.abs(norm - norm[0])) / norm[0], 1e-9)

        _, _, phi = oracles.read_record(work / "reconstruct" / "snapshots.wps")
        recon.equal("frames", len(phi), self.steps + 1)
        back = -o.apply_l(phi[:, 0]) + 1j * phi[:, 1]
        recon.at_most("sup_l2_roundtrip", np.max(o.l2(back - psi)), 1e-5)
        re0 = psi[0].real
        recon.at_most(
            "elliptic_residual_rel", o.l2(o.apply_l(phi[0, 0]) + re0) / o.l2(re0), 1e-9
        )
        summary = json.loads((work / "reconstruct" / "summary.json").read_text())
        recon.at_most("reported_roundtrip_l2", summary["sup_roundtrip_l2"], 1e-5)

        summary = json.loads((work / "compare" / "summary.json").read_text())
        compare.equal("frames_compared", summary["frames_compared"], self.steps + 1)
        compare.at_most("reported_max_l2_diff", summary["max_l2_diff"], 1e-5)
        return [cayley, recon, compare]


# --- maxwell-driven -----------------------------------------------------------


class MaxwellDriven:
    """Driven plane wave: fields (RK4), potential (Verlet), compare, reconstruct-a."""

    points = (16, 16, 16)
    length = 2.0 * math.pi
    k = (1.0, 2.0, 0.0)
    c = 1.0
    j0 = 0.5
    omega_drive = 1.0
    rk4_dt = 0.04
    rk4_steps = 50
    refine = 5  # Verlet steps per RK4 step; snapshots line up with the field record
    safety = 10.0  # multiple of the leading-order error scale a run may reach

    def __init__(self, seed: int):
        self.theta = random.Random(seed).uniform(0.0, 2.0 * math.pi)
        self.seed = seed
        self.wave = oracles.ForcedPlaneWave(self.k, self.c, self.j0, self.omega_drive, self.theta)

    def scenarios(self) -> dict[str, str]:
        kx, ky, _ = self.k
        s = f"({kx!r}*x+{ky!r}*y)"
        fx, fy, _ = (float(f) for f in self.wave.f)
        knorm = self.wave.knorm

        def evolving(kind: str, initial: dict, dt: float, steps: int, stride: int, monitors):
            return _scenario({
                "scenario": {"kind": kind, "seed": self.seed},
                "grid": {"points": " ".join(map(str, self.points)),
                         "lengths": " ".join([repr(self.length)] * 3)},
                "constants": {"c": repr(self.c)},
                "sources": {"rho": 0, "j_x": 0, "j_y": 0,
                            "j_z": f"{self.j0!r}*cos{s}*sin({self.omega_drive!r}*t+{self.theta!r})"},
                "initial": initial,
                "integrator": {"dt": repr(dt), "steps": steps, "snapshot_stride": stride},
                "monitors": {name: 1e-9 for name in monitors},
            })

        return {
            "fields.scn": evolving(
                "maxwell-fields",
                {"e_x": 0, "e_y": 0, "e_z": f"cos{s}",
                 "b_x": f"{fx!r}*cos{s}", "b_y": f"{fy!r}*cos{s}", "b_z": 0},
                self.rk4_dt, self.rk4_steps, 1, ("div_e_residual", "div_b_residual"),
            ),
            "potential.scn": evolving(
                "maxwell-potential",
                {"a_x": 0, "a_y": 0, "a_z": f"sin{s}/{knorm!r}",
                 "a_dot_x": 0, "a_dot_y": 0, "a_dot_z": f"-{self.c!r}*cos{s}"},
                self.rk4_dt / self.refine, self.rk4_steps * self.refine, self.refine,
                ("potential_constraint_residual", "div_b_residual"),
            ),
            "compare.scn": _scenario({
                "scenario": {"kind": "compare"},
                "inputs": {"run_a": "fields", "run_b": "potential",
                           "transform_a": "identity", "transform_b": "a_to_fields"},
            }),
            "reconstruct.scn": _scenario({
                "scenario": {"kind": "reconstruct-a"},
                "constants": {"c": repr(self.c)},
                "inputs": {"source": "fields"},
            }),
        }

    chain = [
        _op("maxwell-fields", "fields"),
        _op("maxwell-potential", "potential"),
        _op("compare", "compare"),
        _op("reconstruct-a", "reconstruct"),
    ]

    def prepare(self) -> None:
        self.times = self.rk4_dt * np.arange(self.rk4_steps + 1)
        self.fields = self.wave.fields(self.times, self.points, self.length)
        self.potential = self.wave.potential(self.times, self.points, self.length)
        self.cell_volume = (self.length / self.points[0]) ** 3
        total = self.rk4_dt * self.rk4_steps
        omega = max(self.wave.w, self.omega_drive)
        self.rk4_bound = self.safety * oracles.rk4_error_bound(omega, self.rk4_dt, total)
        self.verlet_bound = self.safety * oracles.verlet_error_bound(
            omega, self.rk4_dt / self.refine, total
        )

    def check(self, work: Path) -> list[Check]:
        fields_c, potential_c, compare_c, recon_c = Check(), Check(), Check(), Check()
        vol = self.cell_volume
        amp = float(np.max(np.abs(self.fields)))
        # constraint scale as in the persistence criterion: field size over dx
        constraint_limit = 1e-9 * amp / (self.length / self.points[0])

        _, times, frames = oracles.read_record(work / "fields" / "snapshots.wps")
        fields_c.equal("frames", len(times), self.rk4_steps + 1)
        fields_c.at_most("frame_time_error", np.max(np.abs(times - self.times)), 1e-12)
        scale = oracles.max_l2(self.fields, vol)
        fields_c.at_most("rel_l2_vs_closed_form",
                         oracles.max_l2(frames - self.fields, vol) / scale, self.rk4_bound)
        diag = oracles.read_columns(work / "fields" / "diagnostics.csv")
        fields_c.at_most("div_e_minus_rho", np.max(diag["div_e_residual"]), constraint_limit)
        fields_c.at_most("div_b", np.max(diag["div_b_residual"]), constraint_limit)

        _, _, pot = oracles.read_record(work / "potential" / "snapshots.wps")
        potential_c.equal("frames", len(pot), self.rk4_steps + 1)
        pscale = oracles.max_l2(self.potential, vol)
        potential_c.at_most("rel_l2_vs_closed_form",
                            oracles.max_l2(pot - self.potential, vol) / pscale, self.verlet_bound)
        diag = oracles.read_columns(work / "potential" / "diagnostics.csv")
        potential_c.at_most("div_adot_plus_c_rho",
                            np.max(diag["potential_constraint_residual"]), constraint_limit)
        potential_c.at_most("div_b", np.max(diag["div_b_residual"]), constraint_limit)

        summary = json.loads((work / "compare" / "summary.json").read_text())
        compare_c.equal("frames_compared", summary["frames_compared"], self.rk4_steps + 1)
        compare_c.at_most("rel_max_l2_diff", summary["max_l2_diff"] / scale,
                          self.rk4_bound + self.verlet_bound)

        _, _, rec = oracles.read_record(work / "reconstruct" / "snapshots.wps")
        recon_c.equal("frames", len(rec), self.rk4_steps + 1)
        e_back = -rec[:, 3:] / self.c
        recon_c.at_most("e_roundtrip_rel",
                        np.max(np.abs(e_back - frames[:, :3])) / amp, 1e-14)
        recon_c.at_most("a0_vs_closed_form_rel",
                        np.max(np.abs(rec[0, :3] - self.potential[0, :3])) / amp, 1e-12)
        return [fields_c, potential_c, compare_c, recon_c]


WORKLOADS = {
    "quantum-forward": QuantumForward,
    "quantum-roundtrip": QuantumRoundtrip,
    "maxwell-driven": MaxwellDriven,
}
