"""Scenario files, run orchestration, persistence, and run comparison.

A scenario is an INI-style text file with one section per concern; see
docs/scenario_format.md for the grammar. ``load_scenario`` validates
everything up front (expressions parsed, auto time steps resolved, kind
combinations checked); ``run`` executes a validated scenario into an output
directory containing a snapshot file and a diagnostics CSV. Runs are
deterministic: identical scenario plus seed gives byte-identical outputs.

``compare`` lines up two recorded runs frame by frame, optionally mapping a
potential-form run onto field form first (wave potential to wave function, or
vector potential to E/B), and reports L2 and max-norm differences.
"""

from __future__ import annotations

import configparser
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import expressions, maxwell, reconstruction, schrodinger, stepping, wavepotential
from .errors import MonitorError, ScenarioError, WavepotError
from .expressions import Expression
from .grids import ComplexSampleField, Grid, ScalarSampleField, VectorSampleField3
from .operators import METHODS, _curl_arrays, divergence_array, solenoidal_projection
from .snapshots import (
    DiagnosticsWriter,
    SnapshotData,
    SnapshotWriter,
    read_snapshot,
)

__version__ = "0.1.0"

KINDS = (
    "schrodinger",
    "phi",
    "maxwell-fields",
    "maxwell-potential",
    "reconstruct-phi",
    "reconstruct-a",
    "compare",
)

RUN_KINDS = KINDS[:4]

FIELD_NAMES = {
    "schrodinger": ("psi_re", "psi_im"),
    "phi": ("phi", "phi_dot"),
    "maxwell-fields": ("e_x", "e_y", "e_z", "b_x", "b_y", "b_z"),
    "maxwell-potential": ("a_x", "a_y", "a_z", "a_dot_x", "a_dot_y", "a_dot_z"),
}

TRANSFORMS = ("identity", "phi_to_psi", "a_to_fields")

SNAPSHOT_FILE = "snapshots.wps"
DIAGNOSTICS_FILE = "diagnostics.csv"
REPORT_FILE = "report.csv"
SUMMARY_FILE = "summary.json"


@dataclass
class Scenario:
    """A fully validated scenario with every derived quantity resolved."""

    kind: str
    path: Path | None
    sha256: str
    seed: int
    backend: str
    constants: dict[str, float]
    grid: Grid | None = None
    dt: float | None = None
    steps: int | None = None
    snapshot_stride: int = 1
    safety: float | None = None
    potential_source: str | None = None
    potential: schrodinger.PotentialSpec | None = None
    initial: dict = field(default_factory=dict)
    sources: maxwell.SourceSpec | None = None
    monitors: dict[str, float] = field(default_factory=dict)
    inputs: dict[str, str] = field(default_factory=dict)
    threads: int = 1

    @property
    def params(self) -> schrodinger.QuantumParams:
        return schrodinger.QuantumParams(self.constants["hbar"], self.constants["m"])

    @property
    def light_speed(self) -> float:
        return self.constants["c"]

    def provenance(self) -> dict:
        prov = {
            "version": __version__,
            "kind": self.kind,
            "backend": self.backend,
            "scenario_sha256": self.sha256,
            "seed": self.seed,
            "threads": self.threads,
            "constants": {k: float(v) for k, v in sorted(self.constants.items())},
        }
        if self.dt is not None:
            prov["dt"] = float(self.dt)
        if self.steps is not None:
            prov["steps"] = int(self.steps)
        if self.potential_source is not None:
            prov["potential"] = self.potential_source
        return prov


def _apply_overrides(parser: configparser.ConfigParser, overrides) -> None:
    for item in overrides or ():
        if "=" not in item:
            raise ScenarioError(f"override {item!r} is not of the form section.key=value")
        target, value = item.split("=", 1)
        if "." not in target:
            raise ScenarioError(f"override {item!r} is not of the form section.key=value")
        section, key = target.split(".", 1)
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value)


def _parse_expr(text: str, where: str) -> Expression:
    try:
        return expressions.parse(text)
    except WavepotError as exc:
        raise ScenarioError(f"bad expression for {where}: {exc}") from exc


def _get(parser, section, key, *, required=True, default=None) -> str | None:
    if parser.has_option(section, key):
        return parser.get(section, key)
    if required:
        raise ScenarioError(f"missing field [{section}] {key}")
    return default


def _get_number(parser, section, key, cast, *, required=True, default=None):
    raw = _get(parser, section, key, required=required, default=None)
    if raw is None:
        return default
    try:
        return cast(raw)
    except ValueError:
        noun = "an integer" if cast is int else "a number"
        raise ScenarioError(f"field [{section}] {key} must be {noun}, got {raw!r}") from None


def load_scenario(path: str | Path, overrides=()) -> Scenario:
    """Parse and validate a scenario file; resolves dt="auto" immediately."""
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"scenario file {path} does not exist")
    text = path.read_text()
    parser = configparser.ConfigParser(
        interpolation=None, delimiters=("=",), comment_prefixes=("#",), strict=True
    )
    parser.optionxform = str
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ScenarioError(f"scenario parse error: {exc}") from exc
    _apply_overrides(parser, overrides)

    digest = hashlib.sha256()
    digest.update(text.encode())
    for item in sorted(overrides or ()):
        digest.update(item.encode())
    sha = digest.hexdigest()

    kind = _get(parser, "scenario", "kind").strip().lower()
    if kind not in KINDS:
        raise ScenarioError(f"unknown scenario kind {kind!r}; expected one of {KINDS}")
    seed = _get_number(parser, "scenario", "seed", int, required=False, default=0)

    backend = _get(parser, "operators", "backend", required=False, default="spectral")
    if backend not in METHODS:
        raise ScenarioError(f"unknown operator backend {backend!r}; expected one of {METHODS}")

    constants: dict[str, float] = {"hbar": 1.0, "m": 1.0, "c": 1.0}
    if parser.has_section("constants"):
        for key in parser["constants"]:
            constants[key] = _get_number(parser, "constants", key, float)

    scenario = Scenario(
        kind=kind, path=path, sha256=sha, seed=seed, backend=backend, constants=constants
    )

    if kind == "compare":
        scenario.inputs["run_a"] = _get(parser, "inputs", "run_a")
        scenario.inputs["run_b"] = _get(parser, "inputs", "run_b")
        for key in ("transform_a", "transform_b"):
            value = _get(parser, "inputs", key, required=False, default="identity")
            if value not in TRANSFORMS:
                raise ScenarioError(f"unknown transform {value!r}; expected one of {TRANSFORMS}")
            scenario.inputs[key] = value
        return scenario

    if kind in ("reconstruct-phi", "reconstruct-a"):
        scenario.inputs["source"] = _get(parser, "inputs", "source")
        if kind == "reconstruct-phi":
            source = _get(parser, "potential", "v")
            node = _parse_expr(source, "[potential] v")
            if expressions.references_time(node):
                raise ScenarioError("time-dependent potential unsupported for reconstruct-phi")
            scenario.potential_source = source
        return scenario

    # evolving kinds need a grid and an integrator
    points_raw = _get(parser, "grid", "points")
    lengths_raw = _get(parser, "grid", "lengths")
    try:
        points = tuple(int(p) for p in points_raw.split())
        lengths = tuple(float(l) for l in lengths_raw.split())
        grid = Grid(points, lengths)
    except (ValueError, TypeError) as exc:
        raise ScenarioError(f"bad [grid] section: {exc}") from exc
    scenario.grid = grid

    if kind in ("maxwell-fields", "maxwell-potential") and grid.dims != 3:
        raise ScenarioError(f"kind={kind} needs a 3D grid, got {grid.dims}D")

    bindings = dict(constants)

    if kind in ("schrodinger", "phi"):
        source = _get(parser, "potential", "v")
        node = _parse_expr(source, "[potential] v")
        if expressions.references_time(node):
            raise ScenarioError(f"time-dependent potential unsupported for {kind}")
        try:
            scenario.potential = schrodinger.PotentialSpec(
                expressions.sample(node, grid, bindings), node
            )
        except WavepotError as exc:
            raise ScenarioError(f"cannot sample the potential: {exc}") from exc
        scenario.potential_source = source

    if kind in ("maxwell-fields", "maxwell-potential"):
        rho = _get(parser, "sources", "rho", required=False, default="0")
        jx = _get(parser, "sources", "j_x", required=False, default="0")
        jy = _get(parser, "sources", "j_y", required=False, default="0")
        jz = _get(parser, "sources", "j_z", required=False, default="0")
        try:
            scenario.sources = maxwell.SourceSpec(rho, (jx, jy, jz), bindings)
        except WavepotError as exc:
            raise ScenarioError(f"bad [sources] section: {exc}") from exc

    if not parser.has_section("initial"):
        raise ScenarioError("missing field [initial] (initial data section)")
    scenario.initial = dict(parser["initial"])

    steps = _get_number(parser, "integrator", "steps", int)
    if steps <= 0:
        raise ScenarioError("[integrator] steps must be positive")
    scenario.steps = steps
    scenario.snapshot_stride = _get_number(
        parser, "integrator", "snapshot_stride", int, required=False, default=1
    )
    if scenario.snapshot_stride <= 0:
        raise ScenarioError("[integrator] snapshot_stride must be positive")
    scenario.safety = _get_number(parser, "integrator", "safety", float, required=False)
    dt_raw = _get(parser, "integrator", "dt")
    dt_scale = _get_number(
        parser, "integrator", "dt_scale", float, required=False, default=1.0
    )
    if dt_raw.strip() == "auto":
        scenario.dt = dt_scale * _auto_dt(scenario)
    else:
        try:
            scenario.dt = dt_scale * float(dt_raw)
        except ValueError:
            raise ScenarioError(f"[integrator] dt must be a number or 'auto', got {dt_raw!r}") from None
    if scenario.dt <= 0:
        raise ScenarioError("[integrator] dt must resolve to a positive number")

    if parser.has_section("monitors"):
        for key in parser["monitors"]:
            scenario.monitors[key] = _get_number(parser, "monitors", key, float)

    _validate_initial(scenario)
    return scenario


def _auto_dt(scenario: Scenario) -> float:
    kind = scenario.kind
    if kind in ("schrodinger", "phi"):
        safety = scenario.safety if scenario.safety is not None else wavepotential.DEFAULT_SAFETY
        return wavepotential.stable_dt(
            scenario.potential, scenario.params, scenario.backend, safety
        )
    safety = scenario.safety if scenario.safety is not None else maxwell.DEFAULT_SAFETY
    if kind == "maxwell-fields":
        return maxwell.rk4_dt_bound(scenario.grid, scenario.light_speed, safety)
    return maxwell.potential_dt_bound(scenario.grid, scenario.light_speed, safety)


def _validate_initial(scenario: Scenario) -> None:
    init = scenario.initial
    kind = scenario.kind

    def require_expressions(keys: tuple[str, ...]) -> None:
        for key in keys:
            if key not in init:
                raise ScenarioError(f"missing field [initial] {key}")
            _parse_expr(init[key], f"[initial] {key}")

    if kind == "schrodinger":
        itype = init.get("type", "expressions")
        if itype == "expressions":
            require_expressions(("psi_re", "psi_im"))
        elif itype == "random":
            pass
        else:
            raise ScenarioError(f"unknown [initial] type {itype!r} for kind=schrodinger")
    elif kind == "phi":
        itype = init.get("type", "expressions")
        if itype == "expressions":
            require_expressions(("phi", "phi_dot"))
        elif itype == "stationary":
            if "mode" not in init:
                raise ScenarioError("missing field [initial] mode (stationary initial data)")
        elif itype == "random":
            pass
        else:
            raise ScenarioError(f"unknown [initial] type {itype!r} for kind=phi")
    elif kind == "maxwell-fields":
        require_expressions(("e_x", "e_y", "e_z", "b_x", "b_y", "b_z"))
    elif kind == "maxwell-potential":
        require_expressions(("a_x", "a_y", "a_z", "a_dot_x", "a_dot_y", "a_dot_z"))


def _sample_initial_scalar(scenario: Scenario, key: str) -> ScalarSampleField:
    node = _parse_expr(scenario.initial[key], f"[initial] {key}")
    try:
        return expressions.sample(node, scenario.grid, scenario.constants, 0.0)
    except WavepotError as exc:
        raise ScenarioError(f"cannot sample [initial] {key}: {exc}") from exc


def _random_band_limited(scenario: Scenario, seed_offset: int = 0) -> np.ndarray:
    """Deterministic low-mode random field from the scenario seed."""
    modes = int(float(scenario.initial.get("modes", 4)))
    amplitude = float(scenario.initial.get("amplitude", 1.0))
    rng = np.random.default_rng(scenario.seed + seed_offset)
    grid = scenario.grid
    out = np.zeros(grid.shape)
    coords = grid.coordinate_arrays()
    for _ in range(modes):
        phase = rng.uniform(0.0, 2.0 * np.pi)
        coeff = rng.normal() * amplitude / max(modes, 1)
        wave = phase
        for a in range(grid.dims):
            n = rng.integers(-3, 4)
            wave = wave + 2.0 * np.pi * n * coords[a] / grid.lengths[a]
        out = out + coeff * np.cos(wave)
    return out


@dataclass
class RunReport:
    kind: str
    out_dir: Path
    monitor_peaks: dict[str, float]
    summary: dict

    def monitor_violations(self, ceilings: dict[str, float]) -> list[str]:
        bad = []
        for name, ceiling in ceilings.items():
            peak = self.monitor_peaks.get(name)
            if peak is not None and peak > ceiling:
                bad.append(f"{name}: peak {peak:.3e} exceeds ceiling {ceiling:.3e}")
        return bad


def run(scenario: Scenario, out_dir: str | Path) -> RunReport:
    """Execute a scenario into ``out_dir``; raises MonitorError after writing
    outputs if a configured ceiling was exceeded."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if scenario.kind in RUN_KINDS:
        report = _run_evolving(scenario, out_dir)
    elif scenario.kind in ("reconstruct-phi", "reconstruct-a"):
        report = _run_reconstruct(scenario, out_dir)
    elif scenario.kind == "compare":
        report = _run_compare(scenario, out_dir)
    else:
        raise ScenarioError(f"cannot run kind {scenario.kind!r}")
    violations = report.monitor_violations(scenario.monitors)
    if violations:
        raise MonitorError("; ".join(violations))
    return report


# a recorded state's arrays in the FIELD_NAMES order of its kind
_FRAME_ARRAYS = {
    "schrodinger": lambda s: [s.psi.values.real, s.psi.values.imag],
    "phi": lambda s: [s.phi.values, s.phi_dot.values],
    "maxwell-fields": lambda s: [*s.e.values, *s.b.values],
    "maxwell-potential": lambda s: [*s.a.values, *s.a_dot.values],
}


def _run_evolving(scenario: Scenario, out_dir: Path) -> RunReport:
    """Step any evolving kind, streaming frames and diagnostics rows to disk.

    The kind's setup fills ``peaks`` and ``summary`` with their start values
    and returns the initial state, the diagnostics columns, and an observer
    that maps the integrator's raw arrays at one step to a diagnostics row.
    """
    kind = scenario.kind
    peaks, summary = {}, {}
    state, columns, observe = _EVOLUTIONS[kind](scenario, peaks, summary)
    dt, steps, stride = scenario.dt, scenario.steps, scenario.snapshot_stride
    frame = _FRAME_ARRAYS[kind]
    with SnapshotWriter(
        out_dir / SNAPSHOT_FILE,
        kind=kind,
        grid=scenario.grid,
        fields=FIELD_NAMES[kind],
        time_start=0.0,
        time_step=dt * stride,
        frame_count=len(stepping.frame_steps(steps, stride)),
        time_end=steps * dt if steps % stride else None,
        provenance=scenario.provenance(),
    ) as snap, DiagnosticsWriter(out_dir / DIAGNOSTICS_FILE, columns) as diag:
        options = dict(
            sink=lambda n, recorded: snap.write_frame(frame(recorded)),
            snapshot_stride=stride,
            method=scenario.backend,
            observer=lambda step, *arrays: diag.write_row(observe(step, *arrays)),
        )
        # looked up on their modules at call time, so wrappers installed there see every run
        if kind == "schrodinger":
            schrodinger.propagate_cn(state, scenario.potential, dt, steps, **options)
        elif kind == "phi":
            wavepotential.run_verlet(state, dt, steps, **options)
        elif kind == "maxwell-fields":
            maxwell.run_rk4(state, scenario.sources, dt, steps, **options)
        else:
            maxwell.run_potential_verlet(state, scenario.sources, dt, steps, **options)
    return RunReport(kind, out_dir, peaks, summary)


def _schrodinger_evolution(scenario: Scenario, peaks: dict, summary: dict):
    grid = scenario.grid
    params = scenario.params
    init = scenario.initial
    if init.get("type", "expressions") == "random":
        psi0 = _random_band_limited(scenario) + 1j * _random_band_limited(scenario, 1)
    else:
        psi0 = _sample_initial_scalar(scenario, "psi_re").values + 1j * (
            _sample_initial_scalar(scenario, "psi_im").values
        )
    if init.get("normalize", "false").lower() == "true":
        nrm = np.sqrt(np.sum(np.abs(psi0) ** 2) * grid.cell_volume)
        if nrm == 0:
            raise ScenarioError("cannot normalize a zero initial wave function")
        psi0 = psi0 / nrm
    state = schrodinger.WaveFunction(ComplexSampleField(grid, psi0), params)
    v = scenario.potential.sampled.values

    def energy(values: np.ndarray) -> float:
        h_psi = schrodinger.hamiltonian_array(values, v, grid, params, scenario.backend)
        return float(np.vdot(values, h_psi).real * grid.cell_volume / (2.0 * params.hbar))

    summary.update(norm0=schrodinger.norm_functional(state), energy0=energy(psi0))
    scale_n = max(abs(summary["norm0"]), 1e-30)
    scale_e = max(abs(summary["energy0"]), 1e-30)
    peaks.update(norm_drift=0.0, energy_drift=0.0)

    def observer(step: int, values: np.ndarray) -> list:
        wave = schrodinger.WaveFunction(ComplexSampleField(grid, values), params)
        nrm = schrodinger.norm_functional(wave)
        en = energy(values)
        peaks["norm_drift"] = max(peaks["norm_drift"], abs(nrm - summary["norm0"]) / scale_n)
        peaks["energy_drift"] = max(peaks["energy_drift"], abs(en - summary["energy0"]) / scale_e)
        return [step, step * scenario.dt, nrm, en]

    return state, ("step", "time", "norm", "energy"), observer


def _phi_evolution(scenario: Scenario, peaks: dict, summary: dict):
    grid = scenario.grid
    params = scenario.params
    V = scenario.potential
    init = scenario.initial
    itype = init.get("type", "expressions")
    if itype == "stationary":
        mode = int(init["mode"])
        t0 = float(init.get("time", 0.0))
        if grid.size > schrodinger.DENSE_GRID_LIMIT:
            raise ScenarioError(
                "stationary initial data needs the dense eigensolver "
                f"(grid size {grid.size} > {schrodinger.DENSE_GRID_LIMIT})"
            )
        energy_n, psi_n = schrodinger.eigenpairs_small(V, params, mode + 1, scenario.backend)[mode]
        state = wavepotential.stationary_phi(psi_n, energy_n, t0, params, V, scenario.backend)
    elif itype == "random":
        phi0 = _random_band_limited(scenario)
        state = wavepotential.PhiState(
            ScalarSampleField(grid, phi0), ScalarSampleField.zeros(grid), params, V
        )
    else:
        state = wavepotential.PhiState(
            _sample_initial_scalar(scenario, "phi"),
            _sample_initial_scalar(scenario, "phi_dot"),
            params,
            V,
        )

    hbar = params.hbar
    vol = grid.cell_volume
    peaks.update(norm_drift=0.0, identity_residual=0.0)
    summary["norm0"] = None

    def observer(step: int, lphi: np.ndarray, vel: np.ndarray) -> list:
        psi = -lphi + 1j * hbar * vel
        psi_sq = np.abs(psi) ** 2
        kinetic = 0.5 * hbar * vel**2
        potential = 0.5 / hbar * lphi**2
        dens2 = 2.0 * hbar * (kinetic + potential)
        norm = float(psi_sq.sum() * vol)
        total_energy = float((kinetic + potential).sum() * vol)
        scale = max(float(psi_sq.max()), 1e-300)
        identity_rel = float(np.max(np.abs(psi_sq - dens2))) / scale
        if summary["norm0"] is None:
            summary["norm0"] = norm
        elif summary["norm0"] > 0:
            peaks["norm_drift"] = max(
                peaks["norm_drift"], abs(norm - summary["norm0"]) / summary["norm0"]
            )
        peaks["identity_residual"] = max(peaks["identity_residual"], identity_rel)
        return [step, step * scenario.dt, norm, total_energy, identity_rel]

    return state, ("step", "time", "psi_norm", "total_energy", "identity_residual"), observer


def _maxwell_initial(scenario: Scenario, keys: tuple[str, ...]) -> VectorSampleField3:
    comps = [_sample_initial_scalar(scenario, key) for key in keys]
    return VectorSampleField3.from_components(*comps)


def _maxwell_fields_evolution(scenario: Scenario, peaks: dict, summary: dict):
    grid = scenario.grid
    c = scenario.light_speed
    sources = scenario.sources
    e0 = _maxwell_initial(scenario, ("e_x", "e_y", "e_z"))
    b0 = _maxwell_initial(scenario, ("b_x", "b_y", "b_z"))
    if scenario.initial.get("fix_divergence", "false").lower() == "true":
        div_e = divergence_array(e0.values, grid, scenario.backend)
        excess = ScalarSampleField(grid, sources.rho_at(0.0, grid).values - div_e)
        longitudinal = maxwell.coulomb_field_from_charge(excess, scenario.backend)
        e0 = VectorSampleField3(grid, e0.values + longitudinal.values)
        b0 = solenoidal_projection(b0, scenario.backend)
    state = maxwell.EMState(e0, b0, c)

    # continuity gate before any stepping
    sources.validate_continuity(
        grid, scenario.dt, scenario.steps * scenario.dt, scenario.backend
    )

    peaks.update(div_e_residual=0.0, div_b_residual=0.0, energy_drift=0.0)
    summary["h_prime0"] = None

    def observer(step: int, e: np.ndarray, b: np.ndarray) -> list:
        t = step * scenario.dt
        st = maxwell.EMState(VectorSampleField3(grid, e), VectorSampleField3(grid, b), c)
        rho = sources.rho_at(t, grid)
        div_e_res, div_b_res = maxwell.constraint_residual(st, rho, scenario.backend)
        rs_res, rs_scale = maxwell.riemann_silberstein_residual(
            st, sources, t, scenario.backend
        )
        h_prime = maxwell.em_hamiltonians(
            st, sources.current_at(t, grid), scenario.backend
        )[1]
        peaks["div_e_residual"] = max(peaks["div_e_residual"], div_e_res)
        peaks["div_b_residual"] = max(peaks["div_b_residual"], div_b_res)
        h0 = summary["h_prime0"]
        if h0 is None:
            summary["h_prime0"] = h_prime
        elif abs(h0) > 1e-300:
            peaks["energy_drift"] = max(peaks["energy_drift"], abs(h_prime - h0) / abs(h0))
        return [step, t, h_prime, div_e_res, div_b_res, rs_res / max(rs_scale, 1e-300)]

    columns = ("step", "time", "h_prime", "div_e_residual", "div_b_residual", "rs_residual_rel")
    return state, columns, observer


def _maxwell_potential_evolution(scenario: Scenario, peaks: dict, summary: dict):
    grid = scenario.grid
    c = scenario.light_speed
    sources = scenario.sources
    a0 = _maxwell_initial(scenario, ("a_x", "a_y", "a_z"))
    ad0 = _maxwell_initial(scenario, ("a_dot_x", "a_dot_y", "a_dot_z"))
    state = maxwell.PotentialState(a0, ad0, c)
    sources.validate_continuity(
        grid, scenario.dt, scenario.steps * scenario.dt, scenario.backend
    )

    peaks.update(potential_constraint_residual=0.0, div_b_residual=0.0)

    def observer(step: int, a: np.ndarray, a_dot: np.ndarray) -> list:
        t = step * scenario.dt
        st = maxwell.PotentialState(VectorSampleField3(grid, a), VectorSampleField3(grid, a_dot), c)
        fields = maxwell.potential_to_fields(st, scenario.backend)
        rho = sources.rho_at(t, grid)
        con = maxwell.potential_constraint_residual(st, rho, scenario.backend)
        _, div_b = maxwell.constraint_residual(fields, rho, scenario.backend)
        h_prime = maxwell.em_hamiltonians(
            fields, sources.current_at(t, grid), scenario.backend
        )[1]
        peaks["potential_constraint_residual"] = max(
            peaks["potential_constraint_residual"], con
        )
        peaks["div_b_residual"] = max(peaks["div_b_residual"], div_b)
        return [step, t, h_prime, con, div_b]

    columns = ("step", "time", "h_prime", "potential_constraint_residual", "div_b_residual")
    return state, columns, observer


_EVOLUTIONS = {
    "schrodinger": _schrodinger_evolution,
    "phi": _phi_evolution,
    "maxwell-fields": _maxwell_fields_evolution,
    "maxwell-potential": _maxwell_potential_evolution,
}


def _load_run(path_str: str, base: Path | None) -> SnapshotData:
    path = Path(path_str)
    if not path.is_absolute() and base is not None:
        path = base / path
    if path.is_dir():
        path = path / SNAPSHOT_FILE
    if not path.exists():
        raise ScenarioError(f"input run {path} does not exist")
    return read_snapshot(path)


def _run_reconstruct(scenario: Scenario, out_dir: Path) -> RunReport:
    """Map a field-form record to potentials and check the round trip frame by frame."""
    base = scenario.path.parent if scenario.path else None
    data = _load_run(scenario.inputs["source"], base)
    to_phi = scenario.kind == "reconstruct-phi"
    if to_phi:
        source_kind, out_kind = "schrodinger", "phi"
    else:
        source_kind, out_kind = "maxwell-fields", "maxwell-potential"
    if data.kind != source_kind:
        raise ScenarioError(f"{scenario.kind} needs a {source_kind} run, got {data.kind!r}")
    grid = data.grid
    backend = scenario.backend
    if to_phi:
        node = _parse_expr(scenario.potential_source, "[potential] v")
        V = schrodinger.PotentialSpec(expressions.sample(node, grid, scenario.constants), node)
        originals = [
            ComplexSampleField(grid, f["psi_re"] + 1j * f["psi_im"]) for f in data.frames
        ]
        traj = reconstruction.TrajectoryRecord.of_waves(data.times, originals)
        states = reconstruction.reconstruct_phi(traj, V, scenario.params, backend)

        def roundtrip_diff(st, psi) -> np.ndarray:
            return wavepotential.to_wavefunction(st, backend).psi.values - psi.values

    else:
        c = float(data.provenance.get("constants", {}).get("c", scenario.light_speed))
        originals = [
            maxwell.EMState(
                VectorSampleField3(grid, np.stack([f["e_x"], f["e_y"], f["e_z"]])),
                VectorSampleField3(grid, np.stack([f["b_x"], f["b_y"], f["b_z"]])),
                c,
            )
            for f in data.frames
        ]
        traj = reconstruction.TrajectoryRecord.of_fields(data.times, originals)
        states = reconstruction.reconstruct_vector_potential(traj, backend)

        def roundtrip_diff(ps, em) -> np.ndarray:
            back = maxwell.potential_to_fields(ps, backend)
            return np.concatenate(
                [(back.e.values - em.e.values).ravel(), (back.b.values - em.b.values).ravel()]
            )

    peaks = {"roundtrip_l2": 0.0}
    with SnapshotWriter(
        out_dir / SNAPSHOT_FILE,
        kind=out_kind,
        grid=grid,
        fields=FIELD_NAMES[out_kind],
        time_start=float(data.times[0]),
        time_step=float(data.times[1] - data.times[0]),
        frame_count=len(states),
        time_end=data.time_end,
        provenance=scenario.provenance(),
    ) as snap, DiagnosticsWriter(
        out_dir / REPORT_FILE, ("frame", "time", "roundtrip_l2", "roundtrip_max")
    ) as rep:
        vol = grid.cell_volume
        for n, (st, original) in enumerate(zip(states, originals)):
            snap.write_frame(_FRAME_ARRAYS[out_kind](st))
            diff = roundtrip_diff(st, original)
            l2 = float(np.sqrt(np.sum(np.abs(diff) ** 2) * vol))
            peaks["roundtrip_l2"] = max(peaks["roundtrip_l2"], l2)
            rep.write_row([n, data.times[n], l2, float(np.max(np.abs(diff)))])
    summary = {"sup_roundtrip_l2": peaks["roundtrip_l2"], "frames": len(states)}
    (out_dir / SUMMARY_FILE).write_text(json.dumps(summary, sort_keys=True) + "\n")
    return RunReport(scenario.kind, out_dir, peaks, summary)


def _transform_frames(data: SnapshotData, transform: str, backend: str):
    """Map stored frames into a comparable field dictionary list."""
    if transform == "identity":
        return data.fields, data.frames
    if transform == "phi_to_psi":
        if data.kind != "phi":
            raise ScenarioError(f"transform phi_to_psi needs a phi run, got {data.kind!r}")
        prov = data.provenance
        constants = prov.get("constants", {})
        params = schrodinger.QuantumParams(constants.get("hbar", 1.0), constants.get("m", 1.0))
        if "potential" not in prov:
            raise ScenarioError("phi run lacks a potential in its provenance")
        node = expressions.parse(prov["potential"])
        v = expressions.sample(node, data.grid, constants).values
        out = []
        for f in data.frames:
            lphi = schrodinger.l_operator_array(f["phi"], v, data.grid, params, backend)
            out.append({"psi_re": -lphi, "psi_im": params.hbar * f["phi_dot"]})
        return ("psi_re", "psi_im"), out
    if transform == "a_to_fields":
        if data.kind != "maxwell-potential":
            raise ScenarioError(
                f"transform a_to_fields needs a maxwell-potential run, got {data.kind!r}"
            )
        c = data.provenance.get("constants", {}).get("c", 1.0)
        out = []
        for f in data.frames:
            a = np.stack([f["a_x"], f["a_y"], f["a_z"]])
            a_dot = np.stack([f["a_dot_x"], f["a_dot_y"], f["a_dot_z"]])
            b = _curl_arrays(a, data.grid, backend)
            out.append(dict(zip(FIELD_NAMES["maxwell-fields"], [*(-a_dot / c), *b])))
        return FIELD_NAMES["maxwell-fields"], out
    raise ScenarioError(f"unknown transform {transform!r}")


def _run_compare(scenario: Scenario, out_dir: Path) -> RunReport:
    base = scenario.path.parent if scenario.path else None
    data_a = _load_run(scenario.inputs["run_a"], base)
    data_b = _load_run(scenario.inputs["run_b"], base)
    return compare(
        data_a,
        data_b,
        out_dir,
        transform_a=scenario.inputs.get("transform_a", "identity"),
        transform_b=scenario.inputs.get("transform_b", "identity"),
        backend=scenario.backend,
    )


def compare(
    data_a: SnapshotData,
    data_b: SnapshotData,
    out_dir: str | Path,
    *,
    transform_a: str = "identity",
    transform_b: str = "identity",
    backend: str = "spectral",
) -> RunReport:
    """Frame-by-frame L2 and max-norm differences after optional transforms."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if data_a.grid != data_b.grid:
        raise ScenarioError("compared runs live on different grids")
    fields_a, frames_a = _transform_frames(data_a, transform_a, backend)
    fields_b, frames_b = _transform_frames(data_b, transform_b, backend)
    if set(fields_a) != set(fields_b):
        raise ScenarioError(
            f"runs expose different fields after transforms: {fields_a} vs {fields_b}"
        )
    n = min(len(frames_a), len(frames_b))
    times_a, times_b = data_a.times[:n], data_b.times[:n]
    t_scale = max(abs(times_a[-1]), 1.0)
    if np.max(np.abs(times_a - times_b)) > 1e-12 * t_scale:
        raise ScenarioError("snapshot times of the two runs do not line up")

    vol = data_a.grid.cell_volume
    peaks = {"l2_diff": 0.0, "max_diff": 0.0}
    with DiagnosticsWriter(
        out_dir / REPORT_FILE, ("frame", "time", "l2_diff", "max_diff")
    ) as rep:
        for i in range(n):
            sq = 0.0
            mx = 0.0
            for name in fields_a:
                diff = frames_a[i][name] - frames_b[i][name]
                sq += float(np.sum(diff**2))
                mx = max(mx, float(np.max(np.abs(diff))))
            l2 = float(np.sqrt(sq * vol))
            rep.write_row([i, times_a[i], l2, mx])
            peaks["l2_diff"] = max(peaks["l2_diff"], l2)
            peaks["max_diff"] = max(peaks["max_diff"], mx)
    summary = {
        "frames_compared": n,
        "max_l2_diff": peaks["l2_diff"],
        "max_max_diff": peaks["max_diff"],
        "transform_a": transform_a,
        "transform_b": transform_b,
    }
    (out_dir / SUMMARY_FILE).write_text(json.dumps(summary, sort_keys=True) + "\n")
    return RunReport("compare", out_dir, peaks, summary)
