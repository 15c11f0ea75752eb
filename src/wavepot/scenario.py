"""Scenario files, run orchestration, persistence, and run comparison.

A scenario is an INI-style text file with one section per concern; see
docs/scenario_format.md for the grammar. ``load_scenario`` validates
everything up front (expressions parsed, auto time steps resolved, kind
combinations checked); ``run`` executes a validated scenario into an output
directory containing a snapshot file and a diagnostics CSV. Runs are
deterministic: identical scenario plus seed gives byte-identical outputs.

``compare`` lines up two recorded runs frame by frame, optionally mapping a
potential-form run onto field form first (wave potential to wave function, or
vector potential to E/B, with the backend and constants of that run), and
reports L2 and max-norm differences, as reconstructions do for their round trip.
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
from .operators import METHODS, divergence_array, solenoidal_projection
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

# [initial] types each evolving kind accepts; "expressions" is the default
INITIAL_TYPES = {
    "schrodinger": ("expressions", "random"),
    "phi": ("expressions", "stationary", "random"),
    "maxwell-fields": ("expressions",),
    "maxwell-potential": ("expressions",),
}

# the peaks each kind reports, which are the names a [monitors] section may cap
MONITORS = {
    "schrodinger": ("norm_drift", "energy_drift"),
    "phi": ("norm_drift", "identity_residual"),
    "maxwell-fields": ("div_e_residual", "div_b_residual", "energy_drift"),
    "maxwell-potential": ("potential_constraint_residual", "div_b_residual"),
    "reconstruct-phi": ("roundtrip_l2",),
    "reconstruct-a": ("roundtrip_l2",),
    "compare": ("l2_diff", "max_diff"),
}

# the potential-form kind each reconstruction writes, and the field-form kind
# each potential form maps forward to
_RECONSTRUCTS = {"reconstruct-phi": "phi", "reconstruct-a": "maxwell-potential"}
_FORWARD_KIND = {"phi": "schrodinger", "maxwell-potential": "maxwell-fields"}

# the potential-form kind each compare transform maps forward (None: no map)
TRANSFORMS = {"identity": None, "phi_to_psi": "phi", "a_to_fields": "maxwell-potential"}

_DEFAULT_CONSTANTS = {"hbar": 1.0, "m": 1.0, "c": 1.0}

# the keys each section may hold; None leaves a section open ([constants] binds
# user names, [initial] keys depend on the initial type, and [monitors] names
# are checked against the kind's MONITORS)
SECTION_KEYS = {
    "scenario": ("kind", "seed"),
    "grid": ("points", "lengths"),
    "constants": None,
    "operators": ("backend",),
    "potential": ("v",),
    "initial": None,
    "sources": ("rho", "j_x", "j_y", "j_z"),
    "integrator": ("dt", "dt_scale", "steps", "snapshot_stride"),
    "monitors": None,
    "inputs": ("source", "run_a", "run_b", "transform_a", "transform_b"),
}

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
    potential_source: str | None = None
    potential: schrodinger.PotentialSpec | None = None
    initial: dict = field(default_factory=dict)
    sources: maxwell.SourceSpec | None = None
    monitors: dict[str, float] = field(default_factory=dict)
    inputs: dict[str, str] = field(default_factory=dict)

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


def _check_keys(parser: configparser.ConfigParser) -> None:
    """Reject a section or key the format does not define, rather than ignore it."""
    for section in parser.sections():
        if section not in SECTION_KEYS:
            raise ScenarioError(
                f"unknown section [{section}]; expected one of {tuple(SECTION_KEYS)}"
            )
        known = SECTION_KEYS[section]
        if known is None:
            continue
        for key in parser[section]:
            if key not in known:
                raise ScenarioError(f"unknown field [{section}] {key}; expected one of {known}")


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
    _check_keys(parser)

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

    constants = dict(_DEFAULT_CONSTANTS)
    if parser.has_section("constants"):
        for key in parser["constants"]:
            constants[key] = _get_number(parser, "constants", key, float)

    scenario = Scenario(
        kind=kind, path=path, sha256=sha, seed=seed, backend=backend, constants=constants
    )

    if parser.has_section("monitors"):
        for key in parser["monitors"]:
            if key not in MONITORS[kind]:
                raise ScenarioError(
                    f"unknown monitor {key!r} for kind={kind}; expected one of {MONITORS[kind]}"
                )
            scenario.monitors[key] = _get_number(parser, "monitors", key, float)

    if kind in ("schrodinger", "phi", "reconstruct-phi"):
        source = _get(parser, "potential", "v")
        if expressions.references_time(_parse_expr(source, "[potential] v")):
            raise ScenarioError(f"time-dependent potential unsupported for {kind}")
        scenario.potential_source = source

    if kind == "compare":
        scenario.inputs["run_a"] = _get(parser, "inputs", "run_a")
        scenario.inputs["run_b"] = _get(parser, "inputs", "run_b")
        for key in ("transform_a", "transform_b"):
            value = _get(parser, "inputs", key, required=False, default="identity")
            if value not in TRANSFORMS:
                raise ScenarioError(
                    f"unknown transform {value!r}; expected one of {tuple(TRANSFORMS)}"
                )
            scenario.inputs[key] = value
        return scenario

    if kind in _RECONSTRUCTS:
        scenario.inputs["source"] = _get(parser, "inputs", "source")
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

    if scenario.potential_source is not None:
        scenario.potential = _sample_potential(scenario.potential_source, grid, constants)

    if kind in ("maxwell-fields", "maxwell-potential"):
        rho = _get(parser, "sources", "rho", required=False, default="0")
        jx = _get(parser, "sources", "j_x", required=False, default="0")
        jy = _get(parser, "sources", "j_y", required=False, default="0")
        jz = _get(parser, "sources", "j_z", required=False, default="0")
        try:
            scenario.sources = maxwell.SourceSpec(rho, (jx, jy, jz), constants)
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

    _validate_initial(scenario)
    return scenario


def _auto_dt(scenario: Scenario) -> float:
    kind = scenario.kind
    if kind in ("schrodinger", "phi"):
        return wavepotential.stable_dt(scenario.potential, scenario.params, scenario.backend)
    if kind == "maxwell-fields":
        return maxwell.rk4_dt_bound(scenario.grid, scenario.light_speed)
    return maxwell.potential_dt_bound(scenario.grid, scenario.light_speed)


def _sample_potential(source: str, grid: Grid, bindings: dict) -> schrodinger.PotentialSpec:
    node = _parse_expr(source, "[potential] v")
    try:
        return schrodinger.PotentialSpec(expressions.sample(node, grid, bindings), node)
    except WavepotError as exc:
        raise ScenarioError(f"cannot sample the potential: {exc}") from exc


def _validate_initial(scenario: Scenario) -> None:
    init = scenario.initial
    kind = scenario.kind
    itype = init.get("type", "expressions")
    if itype not in INITIAL_TYPES[kind]:
        raise ScenarioError(f"unknown [initial] type {itype!r} for kind={kind}")
    if itype == "expressions":
        for key in FIELD_NAMES[kind]:
            if key not in init:
                raise ScenarioError(f"missing field [initial] {key}")
            _parse_expr(init[key], f"[initial] {key}")
    elif itype == "stationary" and "mode" not in init:
        raise ScenarioError("missing field [initial] mode (stationary initial data)")


def _initial_state(scenario: Scenario, arrays: list | None = None):
    """The scenario's state from ``arrays`` in the FIELD_NAMES order of its kind,
    by default sampled from its ``[initial]`` expressions."""
    if arrays is None:
        arrays = []
        for key in FIELD_NAMES[scenario.kind]:
            node = _parse_expr(scenario.initial[key], f"[initial] {key}")
            try:
                arrays.append(expressions.sample(node, scenario.grid, scenario.constants).values)
            except WavepotError as exc:
                raise ScenarioError(f"cannot sample [initial] {key}: {exc}") from exc
    return _FRAME_STATE[scenario.kind](scenario, arrays)


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


def run(scenario: Scenario, out_dir: str | Path) -> RunReport:
    """Execute a scenario into ``out_dir``; raises MonitorError after writing
    outputs if a configured ceiling was exceeded."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if scenario.kind in RUN_KINDS:
        report = _run_evolving(scenario, out_dir)
    elif scenario.kind in _RECONSTRUCTS:
        report = _run_reconstruct(scenario, out_dir)
    elif scenario.kind == "compare":
        report = _run_compare(scenario, out_dir)
    else:
        raise ScenarioError(f"cannot run kind {scenario.kind!r}")
    peaks = report.monitor_peaks
    violations = [
        f"{name}: peak {peaks[name]:.3e} exceeds ceiling {ceiling:.3e}"
        for name, ceiling in scenario.monitors.items()
        if peaks[name] > ceiling
    ]
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


def _vectors(grid: Grid, a: list) -> tuple[VectorSampleField3, VectorSampleField3]:
    return VectorSampleField3(grid, np.stack(a[:3])), VectorSampleField3(grid, np.stack(a[3:]))


# the inverse: a state of the kind from its arrays in FIELD_NAMES order, on the
# grid and with the constants and potential of the scenario ``scn``
_FRAME_STATE = {
    "schrodinger": lambda scn, a: schrodinger.WaveFunction(
        ComplexSampleField(scn.grid, a[0] + 1j * a[1]), scn.params
    ),
    "phi": lambda scn, a: wavepotential.PhiState(
        *(ScalarSampleField(scn.grid, x) for x in a), scn.params, scn.potential
    ),
    "maxwell-fields": lambda scn, a: maxwell.EMState(*_vectors(scn.grid, a), scn.light_speed),
    "maxwell-potential": lambda scn, a: maxwell.PotentialState(
        *_vectors(scn.grid, a), scn.light_speed
    ),
}


def _run_evolving(scenario: Scenario, out_dir: Path) -> RunReport:
    """Step any evolving kind, streaming frames and diagnostics rows to disk.

    ``peaks`` starts at zero for each of the kind's MONITORS. The kind's setup
    fills ``summary`` with its start values and returns the initial state, the
    diagnostics columns, and an observer that maps the integrator's raw arrays
    at one step to a diagnostics row, raising the peaks it passes.
    """
    kind = scenario.kind
    peaks, summary = dict.fromkeys(MONITORS[kind], 0.0), {}
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
    arrays = None
    if init.get("type") == "random":
        arrays = [_random_band_limited(scenario, offset) for offset in (0, 1)]
    psi0 = _initial_state(scenario, arrays).psi.values
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
        state = _initial_state(scenario, [_random_band_limited(scenario), np.zeros(grid.shape)])
    else:
        state = _initial_state(scenario)

    hbar = params.hbar
    vol = grid.cell_volume
    summary["norm0"] = None

    def observer(step: int, lphi: np.ndarray, vel: np.ndarray) -> list:
        psi = -lphi + 1j * hbar * vel
        psi_sq = np.abs(psi) ** 2
        energy = 0.5 * hbar * vel**2 + 0.5 / hbar * lphi**2
        dens2 = 2.0 * hbar * energy
        norm = float(psi_sq.sum() * vol)
        total_energy = float(energy.sum() * vol)
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


def _maxwell_fields_evolution(scenario: Scenario, peaks: dict, summary: dict):
    grid = scenario.grid
    c = scenario.light_speed
    sources = scenario.sources
    state = _initial_state(scenario)
    if scenario.initial.get("fix_divergence", "false").lower() == "true":
        div_e = divergence_array(state.e.values, grid, scenario.backend)
        excess = ScalarSampleField(grid, sources.rho_at(0.0, grid).values - div_e)
        longitudinal = maxwell.coulomb_field_from_charge(excess, scenario.backend)
        e0 = VectorSampleField3(grid, state.e.values + longitudinal.values)
        state = maxwell.EMState(e0, solenoidal_projection(state.b, scenario.backend), c)

    # continuity gate before any stepping
    sources.validate_continuity(
        grid, scenario.dt, scenario.steps * scenario.dt, scenario.backend
    )

    summary["h_prime0"] = None

    def observer(step: int, e: np.ndarray, b: np.ndarray) -> list:
        t = step * scenario.dt
        st = maxwell.EMState(VectorSampleField3(grid, e), VectorSampleField3(grid, b), c)
        rho = sources.rho_at(t, grid)
        div_e_res, div_b_res = maxwell.constraint_residual(st, rho, scenario.backend)
        rs_res, rs_scale = maxwell.riemann_silberstein_residual(
            st, sources, t, scenario.backend
        )
        h_prime = maxwell.field_energy(st)
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
    state = _initial_state(scenario)
    sources.validate_continuity(
        grid, scenario.dt, scenario.steps * scenario.dt, scenario.backend
    )

    def observer(step: int, a: np.ndarray, a_dot: np.ndarray) -> list:
        t = step * scenario.dt
        st = maxwell.PotentialState(VectorSampleField3(grid, a), VectorSampleField3(grid, a_dot), c)
        fields = maxwell.potential_to_fields(st, scenario.backend)
        rho = sources.rho_at(t, grid)
        con = maxwell.potential_constraint_residual(st, rho, scenario.backend)
        div_b = float(np.max(np.abs(divergence_array(fields.b.values, grid, scenario.backend))))
        h_prime = maxwell.field_energy(fields)
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


def _load_run(scenario: Scenario, key: str) -> SnapshotData:
    """The record named by ``[inputs] key``, relative to the scenario file's directory."""
    path = Path(scenario.inputs[key])
    if not path.is_absolute() and scenario.path is not None:
        path = scenario.path.parent / path
    if path.is_dir():
        path = path / SNAPSHOT_FILE
    if not path.exists():
        raise ScenarioError(f"input run {path} does not exist")
    return read_snapshot(path)


def _decode(data: SnapshotData):
    """The scenario a record was made with, and its frames as states one at a time.

    That scenario holds the backend, constants and potential in the record's
    provenance, with load_scenario's defaults for constants it lacks."""
    prov = data.provenance
    constants = {**_DEFAULT_CONSTANTS, **prov.get("constants", {})}
    scn = Scenario(data.kind, None, "", 0, prov.get("backend", "spectral"), constants, data.grid)
    if data.kind == "phi":
        if "potential" not in prov:
            raise ScenarioError("phi run lacks a potential in its provenance")
        scn.potential = _sample_potential(prov["potential"], data.grid, constants)
    names = FIELD_NAMES[data.kind]
    return scn, (_FRAME_STATE[data.kind](scn, [f[name] for name in names]) for f in data.frames)


def _forward_arrays(state, backend: str) -> list:
    """A potential-form state mapped to its field form's arrays: Psi from phi, (E, B) from A."""
    if isinstance(state, wavepotential.PhiState):
        return _FRAME_ARRAYS["schrodinger"](wavepotential.to_wavefunction(state, backend))
    return _FRAME_ARRAYS["maxwell-fields"](maxwell.potential_to_fields(state, backend))


def _write_diffs(kind, out_dir, times, pairs, vol, columns, summary) -> RunReport:
    """Write the L2 and max-norm difference of each frame's two array lists to
    ``report.csv``, then ``summary.json``: ``summary`` plus each column's largest
    value under the key ``columns`` maps it to, if any. A failed write leaves
    neither file."""
    sup = dict.fromkeys(columns, 0.0)
    with DiagnosticsWriter(out_dir / REPORT_FILE, ("frame", "time", *columns)) as rep:
        for n, (arrays_a, arrays_b) in enumerate(pairs):
            sq, mx = 0.0, 0.0
            for a, b in zip(arrays_a, arrays_b):
                diff = a - b
                sq += float(np.sum(diff**2))
                mx = max(mx, float(np.max(np.abs(diff))))
            row = [float(np.sqrt(sq * vol)), mx]
            rep.write_row([n, times[n], *row])
            for name, value in zip(columns, row):
                sup[name] = max(sup[name], value)
        summary = {**summary, **{key: sup[name] for name, key in columns.items() if key}}
        tmp = out_dir / (SUMMARY_FILE + ".tmp")
        try:
            tmp.write_text(json.dumps(summary, sort_keys=True) + "\n")
            tmp.replace(out_dir / SUMMARY_FILE)
        finally:
            tmp.unlink(missing_ok=True)
    return RunReport(kind, out_dir, {name: sup[name] for name in MONITORS[kind]}, summary)


def _run_reconstruct(scenario: Scenario, out_dir: Path) -> RunReport:
    """Map a field-form record to potentials and check the round trip frame by frame."""
    data = _load_run(scenario, "source")
    out_kind = _RECONSTRUCTS[scenario.kind]
    source_kind = _FORWARD_KIND[out_kind]
    if data.kind != source_kind:
        raise ScenarioError(f"{scenario.kind} needs a {source_kind} run, got {data.kind!r}")
    grid = data.grid
    backend = scenario.backend
    originals = list(_decode(data)[1])
    if out_kind == "phi":
        V = _sample_potential(scenario.potential_source, grid, scenario.constants)
        traj = reconstruction.TrajectoryRecord.of_waves(data.times, [w.psi for w in originals])
        states = reconstruction.reconstruct_phi(traj, V, scenario.params, backend)
    else:
        traj = reconstruction.TrajectoryRecord.of_fields(data.times, originals)
        states = reconstruction.reconstruct_vector_potential(traj, backend)

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
    ) as snap:

        def pairs():
            for st, original in zip(states, originals):
                snap.write_frame(_FRAME_ARRAYS[out_kind](st))
                yield _forward_arrays(st, backend), _FRAME_ARRAYS[source_kind](original)

        columns = {"roundtrip_l2": "sup_roundtrip_l2", "roundtrip_max": None}
        summary = {"frames": len(states)}
        return _write_diffs(
            scenario.kind, out_dir, data.times, pairs(), grid.cell_volume, columns, summary
        )


def _transform_frames(data: SnapshotData, transform: str):
    """A record's field names after ``transform``, and its frames mapped one at a time
    with the record's own backend, constants and potential."""
    if transform not in TRANSFORMS:
        raise ScenarioError(f"unknown transform {transform!r}")
    kind = TRANSFORMS[transform]
    if kind is None:
        return data.fields, iter(data.frames)
    if data.kind != kind:
        raise ScenarioError(f"transform {transform} needs a {kind} run, got {data.kind!r}")
    scn, states = _decode(data)
    fields = FIELD_NAMES[_FORWARD_KIND[kind]]
    return fields, (dict(zip(fields, _forward_arrays(st, scn.backend))) for st in states)


def _run_compare(scenario: Scenario, out_dir: Path) -> RunReport:
    data_a, data_b = _load_run(scenario, "run_a"), _load_run(scenario, "run_b")
    transforms = {key: scenario.inputs[key] for key in ("transform_a", "transform_b")}
    return compare(data_a, data_b, out_dir, **transforms)


def compare(
    data_a: SnapshotData,
    data_b: SnapshotData,
    out_dir: str | Path,
    *,
    transform_a: str = "identity",
    transform_b: str = "identity",
) -> RunReport:
    """Frame-by-frame L2 and max-norm differences after optional transforms."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if data_a.grid != data_b.grid:
        raise ScenarioError("compared runs live on different grids")
    fields_a, frames_a = _transform_frames(data_a, transform_a)
    fields_b, frames_b = _transform_frames(data_b, transform_b)
    if set(fields_a) != set(fields_b):
        raise ScenarioError(
            f"runs expose different fields after transforms: {fields_a} vs {fields_b}"
        )
    n = min(len(data_a.frames), len(data_b.frames))
    times_a, times_b = data_a.times[:n], data_b.times[:n]
    t_scale = max(abs(times_a[-1]), 1.0)
    if np.max(np.abs(times_a - times_b)) > 1e-12 * t_scale:
        raise ScenarioError("snapshot times of the two runs do not line up")

    pairs = (
        ([a[name] for name in fields_a], [b[name] for name in fields_a])
        for a, b in zip(frames_a, frames_b)
    )
    columns = {"l2_diff": "max_l2_diff", "max_diff": "max_max_diff"}
    summary = {"frames_compared": n, "transform_a": transform_a, "transform_b": transform_b}
    vol = data_a.grid.cell_volume
    return _write_diffs("compare", out_dir, times_a, pairs, vol, columns, summary)
