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
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import expressions, maxwell, reconstruction, schrodinger, stepping, wavepotential
from .errors import MonitorError, ScenarioError, WavepotError
from .expressions import Expression
from .grids import ComplexSampleField, Grid, ScalarSampleField, VectorSampleField3
from .operators import METHODS, divergence_array, solenoidal_projection
from .snapshots import (
    LAYOUTS,
    DiagnosticsWriter,
    SnapshotData,
    SnapshotWriter,
    StagedFile,
    read_snapshot,
)

# The package version, which every record's provenance carries.
__version__ = "0.1.0"

# the potential-form kind each compare transform maps forward (None: no map)
TRANSFORMS = {"identity": None, "phi_to_psi": "phi", "a_to_fields": "maxwell-potential"}


@dataclass(frozen=True)
class _Kind:
    """Everything the scenario layer knows about one scenario kind; see ``KIND``."""

    sections: tuple[str, ...]  # the sections read besides [scenario], [constants], [monitors]
    monitors: dict[str, str]  # each peak reported -> the column it watches (_MonitoredWriter)
    run: Callable  # the run path: (scenario, out_dir) -> RunReport
    inputs: tuple[str, ...] = ()  # the [inputs] keys
    fields: tuple[str, ...] = ()  # the record fields
    to_arrays: Callable | None = None  # state -> arrays in field order
    from_arrays: Callable | None = None  # (scenario, arrays) -> state on the scenario's grid
    forward: str | None = None  # the kind this one maps forward to
    forward_map: Callable | None = None  # (state, backend) -> state of the forward kind
    # each [initial] type, default first -> the keys it takes besides the expressions
    initial: dict = field(default_factory=dict)
    # scenario -> (initial state, its diagnostics columns after step and time, observe,
    # keywords the integrator takes from the set-up)
    setup: Callable | None = None
    integrate: Callable | None = None  # (scenario, state, **options): run the integrator
    auto_dt: Callable | None = None  # scenario -> the stability bound "dt = auto" resolves to
    reconstruct: Callable | None = None  # (scenario, times, state iterable) -> state iterator


_DEFAULT_CONSTANTS = {"hbar": 1.0, "m": 1.0, "c": 1.0}

# the sections every kind may carry; each kind's record in KIND names the others it reads
_COMMON_SECTIONS = ("scenario", "constants", "monitors")


@dataclass(frozen=True)
class _Field:
    """One scenario key: the text it takes when absent (None: it is required),
    the ``cast`` that reads its text, and the rule its value must meet,
    ``valid(value, last)``, with ``rule`` the words of its error. ``last`` is
    the grid's last point index, which only the rule of ``[initial] mode`` reads."""

    default: str | None = None
    cast: Callable = str
    valid: Callable = lambda value, last: True
    rule: str = ""


_POSITIVE_INTEGER = {"cast": int, "valid": lambda n, last: n > 0, "rule": "a positive integer"}
_FINITE = {"cast": float, "valid": lambda x, last: np.isfinite(x), "rule": "a finite number"}
_POSITIVE_FINITE = {"cast": float, "valid": lambda x, last: np.isfinite(x) and x > 0,
             "rule": "a positive finite number"}
_FLAG = {"default": "false", "cast": lambda raw: bool(("false", "true").index(raw.lower())),
         "rule": "true or false"}  # any case; index raises ValueError on any other text
_TRANSFORM = _Field("identity", valid=lambda name, last: name in TRANSFORMS,
                    rule=f"one of {tuple(TRANSFORMS)}")

# Every section and its keys. The key None stands for any other key: [constants]
# binds user names, and the [initial], [inputs] and [monitors] keys a kind takes
# are checked per kind (see KIND).
FIELDS = {
    "scenario": {
        "kind": _Field(),
        "seed": _Field("0", int, lambda n, last: n >= 0, "a non-negative integer"),
    },
    "grid": {"points": _Field(), "lengths": _Field()},
    "constants": {**{name: _Field(**_POSITIVE_FINITE) for name in _DEFAULT_CONSTANTS},
                  None: _Field(**_FINITE)},
    "operators": {
        "backend": _Field("spectral", valid=lambda name, last: name in METHODS,
                          rule=f"one of {METHODS}"),
    },
    "potential": {"v": _Field()},
    "initial": {
        "mode": _Field(None, int, lambda n, last: 0 <= n <= last,
                       "an eigenstate index from 0 to {last}"),
        "time": _Field("0.0", **_FINITE),
        "modes": _Field("4", **_POSITIVE_INTEGER),
        "amplitude": _Field("1.0", **_FINITE),
        "normalize": _Field(**_FLAG),
        "fix_divergence": _Field(**_FLAG),
        None: _Field(),  # type, and the expression of each record field
    },
    "sources": {key: _Field("0") for key in ("rho", "j_x", "j_y", "j_z")},
    "integrator": {
        "dt": _Field(
            None, lambda raw: "auto" if raw.strip() == "auto" else float(raw),
            lambda x, last: x == "auto" or np.isfinite(x) and x > 0,
            "'auto' or a positive finite number",
        ),
        "dt_scale": _Field("1.0", **_POSITIVE_FINITE),
        "steps": _Field(**_POSITIVE_INTEGER),
        "snapshot_stride": _Field("1", **_POSITIVE_INTEGER),
    },
    "monitors": {
        None: _Field(None, float, lambda x, last: np.isfinite(x) and x >= 0,
                     "a non-negative finite number"),
    },
    "inputs": {"transform_a": _TRANSFORM, "transform_b": _TRANSFORM, None: _Field()},
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
        if section not in FIELDS:
            raise ScenarioError(f"unknown section [{section}]; expected one of {tuple(FIELDS)}")
        known = FIELDS[section]
        for key in parser[section]:
            if key not in known and None not in known:
                raise ScenarioError(
                    f"unknown field [{section}] {key}; expected one of {tuple(known)}"
                )


def _keys(parser: configparser.ConfigParser, section: str):
    """The keys of ``[section]``, none when the scenario lacks the section."""
    return parser[section] if parser.has_section(section) else ()


def _field(section: str, key: str) -> _Field:
    return FIELDS[section].get(key) or FIELDS[section][None]


def _get(parser, section: str, key: str, last: int | None = None):
    """``[section] key``, or its field's default, read by ``_number``."""
    raw = parser.get(section, key, fallback=_field(section, key).default)
    if raw is None:
        raise ScenarioError(f"missing field [{section}] {key}")
    return _number(raw, section, key, last)


def _number(raw: str, section: str, key: str, last: int | None = None):
    """``raw`` read by the cast of the field of ``[section] key`` and checked by
    its rule: the one place a scenario value is cast and checked."""
    spec = _field(section, key)
    try:
        value = spec.cast(raw)
    except ValueError:
        noun = {int: "an integer", float: "a number"}.get(spec.cast, spec.rule)
        raise ScenarioError(f"field [{section}] {key} must be {noun}, got {raw!r}") from None
    if not spec.valid(value, last):
        rule = spec.rule.format(last=last)
        raise ScenarioError(f"field [{section}] {key} must be {rule}, got {value!r}")
    return value


def _constants(texts: dict[str, str]) -> dict[str, float]:
    """[constants] over their defaults, each read by ``_number``."""
    constants = {**_DEFAULT_CONSTANTS, **{k: _number(t, "constants", k) for k, t in texts.items()}}
    try:  # past the rules, hbar^2/2m can still overflow
        schrodinger.QuantumParams(constants["hbar"], constants["m"])
    except ValueError as exc:
        raise ScenarioError(f"field [constants] {exc}") from None
    return constants


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
    if kind not in KIND:
        raise ScenarioError(f"unknown scenario kind {kind!r}; expected one of {KINDS}")
    spec = KIND[kind]
    readable = (*_COMMON_SECTIONS, *spec.sections)
    for section in parser.sections():
        if section not in readable:
            raise ScenarioError(f"kind={kind} does not read [{section}]; expected one of {readable}")
    for key in _keys(parser, "monitors"):
        if key not in spec.monitors:
            raise ScenarioError(
                f"unknown monitor {key!r} for kind={kind}; expected one of {tuple(spec.monitors)}"
            )
    for key in _keys(parser, "inputs"):
        if key not in spec.inputs:
            raise ScenarioError(
                f"unknown field [inputs] {key} for kind={kind}; expected one of {spec.inputs}"
            )
    constants = _constants({k: parser.get("constants", k) for k in _keys(parser, "constants")})
    scenario = Scenario(
        kind=kind, path=path, sha256=sha, seed=_get(parser, "scenario", "seed"),
        backend=_get(parser, "operators", "backend"), constants=constants,
        monitors={k: _get(parser, "monitors", k) for k in _keys(parser, "monitors")},
        inputs={key: _get(parser, "inputs", key) for key in spec.inputs},
    )

    if "potential" in spec.sections:
        source = _get(parser, "potential", "v")
        if expressions.references_time(_parse_expr(source, "[potential] v")):
            raise ScenarioError(f"time-dependent potential unsupported for {kind}")
        scenario.potential_source = source
    if spec.setup is None:
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

    if "sources" in spec.sections and grid.dims != 3:
        raise ScenarioError(f"kind={kind} needs a 3D grid, got {grid.dims}D")

    if scenario.potential_source is not None:
        scenario.potential = _sample_potential(scenario.potential_source, grid, scenario.constants)

    if "sources" in spec.sections:
        rho, jx, jy, jz = (_get(parser, "sources", key) for key in FIELDS["sources"])
        try:
            scenario.sources = maxwell.SourceSpec(rho, (jx, jy, jz), scenario.constants)
        except WavepotError as exc:
            raise ScenarioError(f"bad [sources] section: {exc}") from exc

    scenario.initial = _read_initial(parser, kind, grid.size - 1)
    scenario.steps = _get(parser, "integrator", "steps")
    scenario.snapshot_stride = _get(parser, "integrator", "snapshot_stride")
    dt = _get(parser, "integrator", "dt")
    dt_scale = _get(parser, "integrator", "dt_scale")
    scenario.dt = dt_scale * (spec.auto_dt(scenario) if dt == "auto" else dt)
    if not 0 < scenario.dt < np.inf:  # a product of two valid factors can overflow or underflow
        raise ScenarioError(f"field [integrator] dt times dt_scale must be "
                            f"a positive finite number, got {scenario.dt!r}")
    return scenario


def _sample_potential(source: str, grid: Grid, bindings: dict) -> schrodinger.PotentialSpec:
    node = _parse_expr(source, "[potential] v")
    try:
        return schrodinger.PotentialSpec(expressions.sample(node, grid, bindings), node)
    except WavepotError as exc:
        raise ScenarioError(f"cannot sample the potential: {exc}") from exc


def _read_initial(parser: configparser.ConfigParser, kind: str, last: int) -> dict:
    """The [initial] ``type`` and each key it takes, read by ``_get`` (``last``:
    the grid's last point index, the bound of ``mode``)."""
    spec = KIND[kind]
    itype = parser.get("initial", "type", fallback=next(iter(spec.initial)))
    if itype not in spec.initial:
        raise ScenarioError(f"unknown [initial] type {itype!r} for kind={kind}")
    exprs = spec.fields if itype == "expressions" else ()
    keys = (*exprs, *spec.initial[itype])
    for key in _keys(parser, "initial"):
        if key != "type" and key not in keys:
            raise ScenarioError(
                f"unknown field [initial] {key} for type = {itype}; expected one of {keys}"
            )
    init = {"type": itype, **{key: _get(parser, "initial", key, last) for key in keys}}
    for key in exprs:
        _parse_expr(init[key], f"[initial] {key}")
    return init


def _initial_state(scenario: Scenario, arrays: list | None = None):
    """The scenario's state from ``arrays`` in the field order of its kind, by
    default sampled from its ``[initial]`` expressions."""
    spec = KIND[scenario.kind]
    if arrays is None:
        arrays = []
        for key in spec.fields:
            node = _parse_expr(scenario.initial[key], f"[initial] {key}")
            try:
                arrays.append(expressions.sample(node, scenario.grid, scenario.constants).values)
            except WavepotError as exc:
                raise ScenarioError(f"cannot sample [initial] {key}: {exc}") from exc
    return spec.from_arrays(scenario, arrays)


def _random_band_limited(scenario: Scenario, seed_offset: int = 0) -> np.ndarray:
    """Deterministic low-mode random field from the scenario seed."""
    modes, amplitude = scenario.initial["modes"], scenario.initial["amplitude"]
    rng = np.random.default_rng(scenario.seed + seed_offset)
    grid = scenario.grid
    out = np.zeros(grid.shape)
    coords = grid.coordinate_arrays()
    for _ in range(modes):
        phase = rng.uniform(0.0, 2.0 * np.pi)
        coeff = rng.normal() * amplitude / modes
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
    non_finite: str | None  # where a diagnostics or report value was first not finite, if one was


def run(scenario: Scenario, out_dir: str | Path) -> RunReport:
    """Execute a scenario into ``out_dir``; raises MonitorError after writing
    outputs if a configured ceiling was exceeded or a value written to
    ``diagnostics.csv`` or ``report.csv`` is not finite."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = KIND[scenario.kind].run(scenario, out_dir)
    peaks = report.monitor_peaks
    violations = [
        f"{name}: peak {peaks[name]:.3e} exceeds ceiling {ceiling:.3e}"
        for name, ceiling in scenario.monitors.items()
        if not peaks[name] <= ceiling  # a NaN peak exceeds every ceiling
    ]
    if report.non_finite is not None:
        violations.insert(0, report.non_finite)
    if violations:
        raise MonitorError("; ".join(violations))
    return report


def _vectors(grid: Grid, a: list) -> tuple[VectorSampleField3, VectorSampleField3]:
    return VectorSampleField3(grid, np.stack(a[:3])), VectorSampleField3(grid, np.stack(a[3:]))


class _MonitoredWriter(DiagnosticsWriter):
    """A diagnostics or report writer that keeps each monitor's peak as blocks of
    rows are written (``write_row`` writes a block of one).

    The one peak rule for every kind: ``monitors`` maps each monitor to the
    column it watches. A monitor named ``*_drift`` peaks at the largest change
    of its column from the first row, relative to that row's value (a zero
    first value leaves it at 0); any other monitor at its column's largest
    value. Every peak starts at 0. A NaN or infinity in a watched column makes
    that monitor's peak NaN for the rest of the run, and ``run`` counts a NaN
    peak as over every ceiling. ``non_finite`` names the first value in any
    column that is not finite, by its column and its row's first cell (the
    step or frame), and is None while there is none; ``run`` fails on it.
    """

    def __init__(self, path: Path, columns, monitors: dict[str, str]):
        super().__init__(path, columns)
        self.watched = {name: self.columns.index(column) for name, column in monitors.items()}
        self.drifts = {name: i for name, i in self.watched.items() if name.endswith("_drift")}
        self.peaks = dict.fromkeys(monitors, 0.0)
        self.first = None
        self.non_finite = None

    def write_rows(self, columns) -> None:
        super().write_rows(columns)
        if self.non_finite is None:
            # rows by columns; argmax finds the first row with a bad value, then its column
            bad = ~np.isfinite(np.array([np.asarray(c, dtype=float) for c in columns]).T)
            if bad.any():
                row, i = divmod(int(np.argmax(bad)), len(columns))
                self.non_finite = (
                    f"{self.columns[i]} is not finite at {self.columns[0]} {columns[0][row]}"
                )
        if self.first is None:
            self.first = {i: float(columns[i][0]) for i in self.drifts.values()}
        for name, i in self.watched.items():
            value = np.asarray(columns[i], dtype=float)
            if not np.isfinite(value).all():
                block_peak = np.nan
            elif name not in self.drifts:
                block_peak = value.max()
            elif self.first[i]:
                # the rounded quotient is monotone in the dividend, so this is
                # the largest of the row-wise relative changes, bit for bit
                block_peak = np.abs(value - self.first[i]).max() / abs(self.first[i])
            else:
                block_peak = 0.0
            self.peaks[name] = float(np.maximum(self.peaks[name], block_peak))

    def baselines(self) -> dict:
        """The first-row value of each drift monitor's column, named ``<column>0``."""
        return {f"{self.columns[i]}0": self.first[i] for i in self.drifts.values()}


def _run_evolving(scenario: Scenario, out_dir: Path) -> RunReport:
    """Step any evolving kind, streaming frames and diagnostics rows to disk.

    Sources must pass the continuity gate first. The integrator hands its
    observed arrays (samples for the quantum kinds, or phi's mode coordinates
    on grids of at most ``DENSE_L_LIMIT`` points; the state's half spectrum
    for the Maxwell kinds) a block of steps at a time (``stepping.drive``), and
    the kind's ``observe(times, *blocks)`` turns each block into its
    diagnostics columns, written at once. The summary holds the first-row
    value of each drift monitor's column.
    """
    kind = scenario.kind
    spec = KIND[kind]
    state, columns, observe, keywords = spec.setup(scenario)
    dt, steps, stride = scenario.dt, scenario.steps, scenario.snapshot_stride
    if scenario.sources is not None:
        scenario.sources.validate_continuity(scenario.grid, dt, steps * dt, scenario.backend)

    def observer(block_steps: np.ndarray, *blocks: np.ndarray) -> None:
        times = block_steps * dt
        diag.write_rows([block_steps, times, *observe(times, *blocks)])

    with SnapshotWriter(
        out_dir / SNAPSHOT_FILE,
        kind=kind,
        grid=scenario.grid,
        fields=spec.fields,
        time_start=0.0,
        time_step=dt * stride,
        frame_count=len(stepping.frame_steps(steps, stride)),
        time_end=steps * dt if steps % stride else None,
        provenance=scenario.provenance(),
    ) as snap, _MonitoredWriter(
        out_dir / DIAGNOSTICS_FILE, ("step", "time", *columns), spec.monitors
    ) as diag:
        spec.integrate(
            scenario, state, sink=lambda n, recorded: snap.write_frame(spec.to_arrays(recorded)),
            snapshot_stride=stride, method=scenario.backend, observer=observer, **keywords,
        )
    return RunReport(kind, out_dir, diag.peaks, diag.baselines(), diag.non_finite)


def _rows(block: np.ndarray) -> np.ndarray:
    """A block of observed arrays as one flat row per step, for row-wise reductions."""
    return block.reshape(len(block), -1)


def _schrodinger_evolution(scenario: Scenario):
    grid = scenario.grid
    params = scenario.params
    init = scenario.initial
    arrays = None
    if init["type"] == "random":
        arrays = [_random_band_limited(scenario, offset) for offset in (0, 1)]
    psi0 = _initial_state(scenario, arrays).psi.values
    if init["normalize"]:
        nrm = np.sqrt(np.sum(np.abs(psi0) ** 2) * grid.cell_volume)
        if nrm == 0:
            raise ScenarioError("cannot normalize a zero initial wave function")
        psi0 = psi0 / nrm
    state = schrodinger.WaveFunction(ComplexSampleField(grid, psi0), params)
    v = scenario.potential.sampled.values

    def observe(times: np.ndarray, psi: np.ndarray) -> list:
        h_psi = schrodinger.hamiltonian_array(psi, v, grid, params, scenario.backend)
        # row by row: a vectorised inner product sums in another order than vdot
        products = np.array([np.vdot(row, h_row).real for row, h_row in zip(psi, h_psi)])
        norms = _rows(psi.real**2 + psi.imag**2).sum(axis=1)
        return [x * grid.cell_volume / (2.0 * params.hbar) for x in (norms, products)]

    return state, ("norm", "energy"), observe, {}


def _phi_evolution(scenario: Scenario):
    grid = scenario.grid
    params = scenario.params
    V = scenario.potential
    init = scenario.initial
    keywords = {}  # a stationary run's eigensystem, which the modes of run_verlet read too
    if init["type"] == "stationary":
        mode = init["mode"]
        t0 = init["time"]
        eig = keywords["eig"] = schrodinger.dense_eigensystem(V, params, scenario.backend)
        state = wavepotential.stationary_phi(
            eig.eigenfield(mode), float(eig.energies[mode]), t0, params, V, scenario.backend
        )
    elif init["type"] == "random":
        state = _initial_state(scenario, [_random_band_limited(scenario), np.zeros(grid.shape)])
    else:
        state = _initial_state(scenario)

    hbar = params.hbar
    vol = grid.cell_volume

    def observe(times: np.ndarray, lphi: np.ndarray, vel: np.ndarray) -> list:
        # Psi = -L phi + i hbar phi_dot, energy = hbar phi_dot^2 / 2 + (L phi)^2 / 2 hbar, in
        # place; |Psi| is np.abs of the complex Psi, which np.hypot does not match bit for bit.
        # The rows are samples or mode coordinates of L (run_verlet): the sums are the same
        # in either orthonormal basis, and the identity is checked per point or per mode
        psi = np.empty(lphi.shape, complex)
        np.negative(lphi, out=psi.real)
        np.multiply(vel, hbar, out=psi.imag)
        psi_sq = np.square(np.abs(psi))
        energy = np.square(vel)
        energy *= 0.5 * hbar
        work = np.square(lphi)
        work *= 0.5 / hbar
        energy += work
        np.multiply(energy, 2.0 * hbar, out=work)
        np.abs(np.subtract(psi_sq, work, out=work), out=work)
        scale = np.maximum(_rows(psi_sq).max(axis=1), 1e-300)
        identity_rel = _rows(work).max(axis=1) / scale
        return [_rows(psi_sq).sum(axis=1) * vol, _rows(energy).sum(axis=1) * vol, identity_rel]

    return state, ("psi_norm", "total_energy", "identity_residual"), observe, keywords


def _maxwell_fields_evolution(scenario: Scenario):
    grid = scenario.grid
    c = scenario.light_speed
    sources = scenario.sources
    state = _initial_state(scenario)
    if scenario.initial["fix_divergence"]:
        div_e = divergence_array(state.e.values, grid, scenario.backend)
        excess = ScalarSampleField(grid, sources.rho_at(0.0, grid).values - div_e)
        longitudinal = maxwell.coulomb_field_from_charge(excess, scenario.backend)
        e0 = VectorSampleField3(grid, state.e.values + longitudinal.values)
        state = maxwell.EMState(e0, solenoidal_projection(state.b, scenario.backend), c)

    return state, ("h_prime", "div_e_residual", "div_b_residual"), _maxwell_observe(scenario), {}


def _maxwell_potential_evolution(scenario: Scenario):
    columns = ("h_prime", "potential_constraint_residual", "div_b_residual")
    return _initial_state(scenario), columns, _maxwell_observe(scenario, potential=True), {}


def _maxwell_observe(scenario: Scenario, potential: bool = False) -> Callable:
    """The block ``observe`` of a Maxwell kind: ``maxwell.modal_diagnostics`` of
    each observed spectrum, one step at a time, since each row needs the charge
    at its own time."""
    grid, c, sources = scenario.grid, scenario.light_speed, scenario.sources

    def observe(times: np.ndarray, hats: np.ndarray) -> list:
        rows = [
            maxwell.modal_diagnostics(hat, sources.rho_at(t, grid), c, scenario.backend, potential)
            for t, hat in zip(times.tolist(), hats)
        ]
        return list(zip(*rows))

    return observe


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


def _decoder(data: SnapshotData):
    """The scenario a record was made with, and the map from one of its frames to a state.

    That scenario holds the backend, constants and potential in the record's
    provenance, read by a scenario's rules with load_scenario's defaults for
    constants it lacks; a provenance they refuse fails naming the record."""
    prov = data.provenance
    spec = KIND[data.kind]
    try:
        backend = _number(prov.get("backend", "spectral"), "operators", "backend")
        constants = _constants({k: str(v) for k, v in prov.get("constants", {}).items()})
        scn = Scenario(data.kind, None, "", 0, backend, constants, data.grid)
        if "potential" in spec.sections:
            if "potential" not in prov:
                raise ScenarioError(f"{data.kind} run lacks a potential in its provenance")
            scn.potential = _sample_potential(prov["potential"], data.grid, constants)
    except ScenarioError as exc:
        raise ScenarioError(f"{data.path}: {exc}") from None
    return scn, lambda frame: spec.from_arrays(scn, [frame[name] for name in spec.fields])


def _forward_arrays(kind: str, state, backend: str) -> list:
    """A potential-form state of ``kind`` mapped to its field form's arrays."""
    spec = KIND[kind]
    return KIND[spec.forward].to_arrays(spec.forward_map(state, backend))


def _write_diffs(kind, out_dir, times, pairs, vol, columns, prefix, summary) -> RunReport:
    """Write the L2 and max-norm difference of each frame's two array lists to
    ``report.csv`` under ``columns``, then ``summary.json``: ``summary`` plus each
    monitor's peak, named with ``prefix``. A failed write leaves neither file."""
    columns = ("frame", "time", *columns)
    with _MonitoredWriter(out_dir / REPORT_FILE, columns, KIND[kind].monitors) as rep:
        for n, (arrays_a, arrays_b) in enumerate(pairs):
            sq, mx = 0.0, 0.0
            for a, b in zip(arrays_a, arrays_b):
                diff = a - b
                sq += float(np.sum(diff**2))
                mx = max(mx, float(np.max(np.abs(diff))))
            rep.write_row([n, times[n], float(np.sqrt(sq * vol)), mx])
        summary = {**summary, **{prefix + name: peak for name, peak in rep.peaks.items()}}
        with StagedFile(out_dir / SUMMARY_FILE) as out:
            out.tmp.write_text(json.dumps(summary, sort_keys=True) + "\n")
    return RunReport(kind, out_dir, rep.peaks, summary, rep.non_finite)


def _run_reconstruct(scenario: Scenario, out_dir: Path) -> RunReport:
    """Map a field-form record to potentials and check the round trip frame by frame.

    The scenario, moved onto the record's grid with its potential sampled there,
    decodes each source frame once, runs the map, maps each result forward and
    labels the output. The record supplies only its grid, times and samples,
    and the round trip is checked against the frames' own arrays."""
    spec = KIND[scenario.kind]
    out_kind = spec.forward
    source_kind = KIND[out_kind].forward
    data = _load_run(scenario, "source")
    if data.kind != source_kind:
        raise ScenarioError(
            f"{data.path}: {scenario.kind} needs a {source_kind} run, got {data.kind!r}"
        )
    scn = replace(scenario, grid=data.grid)
    if scn.potential_source is not None:
        scn.potential = _sample_potential(scn.potential_source, data.grid, scn.constants)
    source = KIND[source_kind]
    originals = [[frame[name] for name in source.fields] for frame in data.frames]
    states = spec.reconstruct(scn, data.times, (source.from_arrays(scn, a) for a in originals))
    with SnapshotWriter(
        out_dir / SNAPSHOT_FILE,
        kind=out_kind,
        grid=data.grid,
        fields=KIND[out_kind].fields,
        time_start=float(data.times[0]),
        time_step=float(data.times[1] - data.times[0]),
        frame_count=len(data.frames),
        time_end=data.time_end,
        provenance=scn.provenance(),
    ) as snap:

        def pairs():
            for st, original in zip(states, originals):
                snap.write_frame(KIND[out_kind].to_arrays(st))
                yield _forward_arrays(out_kind, st, scn.backend), original

        columns, summary = ("roundtrip_l2", "roundtrip_max"), {"frames": len(data.frames)}
        vol = data.grid.cell_volume
        return _write_diffs(scn.kind, out_dir, data.times, pairs(), vol, columns, "sup_", summary)


def _transform_frames(data: SnapshotData, transform: str):
    """A record's field names after ``transform``, and its frames mapped one at a time
    with the record's own backend, constants and potential."""
    if transform not in TRANSFORMS:
        raise ScenarioError(f"unknown transform {transform!r}")
    kind = TRANSFORMS[transform]
    if kind is None:
        return data.fields, iter(data.frames)
    if data.kind != kind:
        raise ScenarioError(
            f"{data.path}: transform {transform} needs a {kind} run, got {data.kind!r}"
        )
    scn, decode = _decoder(data)
    fields = KIND[KIND[kind].forward].fields
    return fields, (
        dict(zip(fields, _forward_arrays(kind, decode(f), scn.backend))) for f in data.frames
    )


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
    summary = {"frames_compared": n, "transform_a": transform_a, "transform_b": transform_b}
    vol = data_a.grid.cell_volume
    columns = ("l2_diff", "max_diff")
    return _write_diffs("compare", out_dir, times_a, pairs, vol, columns, "max_", summary)


# Each scenario kind, described once. Integrators and the maps they feed are
# named inside lambdas, so they are looked up on their modules at call time and
# wrappers installed there see every run.
_RANDOM = ("modes", "amplitude")

KIND = {
    "schrodinger": _Kind(
        sections=("grid", "operators", "potential", "initial", "integrator"),
        monitors={"norm_drift": "norm", "energy_drift": "energy"},
        run=_run_evolving,
        fields=LAYOUTS["schrodinger"],
        to_arrays=lambda s: [s.psi.values.real, s.psi.values.imag],
        from_arrays=lambda scn, a: schrodinger.WaveFunction(
            ComplexSampleField(scn.grid, a[0] + 1j * a[1]), scn.params
        ),
        initial={"expressions": ("normalize",), "random": (*_RANDOM, "normalize")},
        setup=_schrodinger_evolution,
        integrate=lambda scn, st, **kw: schrodinger.propagate_cn(
            st, scn.potential, scn.dt, scn.steps, **kw
        ),
        auto_dt=lambda scn: wavepotential.stable_dt(scn.potential, scn.params, scn.backend),
    ),
    "phi": _Kind(
        sections=("grid", "operators", "potential", "initial", "integrator"),
        monitors={"norm_drift": "psi_norm", "identity_residual": "identity_residual"},
        run=_run_evolving,
        fields=LAYOUTS["phi"],
        to_arrays=lambda s: [s.phi.values, s.phi_dot.values],
        from_arrays=lambda scn, a: wavepotential.PhiState(
            *(ScalarSampleField(scn.grid, x) for x in a), scn.params, scn.potential
        ),
        forward="schrodinger",
        forward_map=lambda st, backend: wavepotential.to_wavefunction(st, backend),
        initial={"expressions": (), "stationary": ("mode", "time"), "random": _RANDOM},
        setup=_phi_evolution,
        integrate=lambda scn, st, **kw: wavepotential.run_verlet(st, scn.dt, scn.steps, **kw),
        auto_dt=lambda scn: wavepotential.stable_dt(scn.potential, scn.params, scn.backend),
    ),
    "maxwell-fields": _Kind(
        sections=("grid", "operators", "sources", "initial", "integrator"),
        monitors={"div_e_residual": "div_e_residual", "div_b_residual": "div_b_residual",
                  "energy_drift": "h_prime"},
        run=_run_evolving,
        fields=LAYOUTS["maxwell-fields"],
        to_arrays=lambda s: [*s.e.values, *s.b.values],
        from_arrays=lambda scn, a: maxwell.EMState(*_vectors(scn.grid, a), scn.light_speed),
        initial={"expressions": ("fix_divergence",)},
        setup=_maxwell_fields_evolution,
        integrate=lambda scn, st, **kw: maxwell.run_rk4(st, scn.sources, scn.dt, scn.steps, **kw),
        auto_dt=lambda scn: maxwell.rk4_dt_bound(scn.grid, scn.light_speed),
    ),
    "maxwell-potential": _Kind(
        sections=("grid", "operators", "sources", "initial", "integrator"),
        monitors={"potential_constraint_residual": "potential_constraint_residual",
                  "div_b_residual": "div_b_residual"},
        run=_run_evolving,
        fields=LAYOUTS["maxwell-potential"],
        to_arrays=lambda s: [*s.a.values, *s.a_dot.values],
        from_arrays=lambda scn, a: maxwell.PotentialState(*_vectors(scn.grid, a), scn.light_speed),
        forward="maxwell-fields",
        forward_map=lambda st, backend: maxwell.potential_to_fields(st, backend),
        initial={"expressions": ()},
        setup=_maxwell_potential_evolution,
        integrate=lambda scn, st, **kw: maxwell.run_potential_verlet(
            st, scn.sources, scn.dt, scn.steps, **kw
        ),
        auto_dt=lambda scn: maxwell.potential_dt_bound(scn.grid, scn.light_speed),
    ),
    "reconstruct-phi": _Kind(
        sections=("operators", "potential", "inputs"),
        monitors={"roundtrip_l2": "roundtrip_l2"},
        run=_run_reconstruct,
        inputs=("source",),
        forward="phi",
        reconstruct=lambda scn, times, waves: reconstruction.reconstruct_phi(
            times, (w.psi for w in waves), scn.potential, scn.params, scn.backend
        ),
    ),
    "reconstruct-a": _Kind(
        sections=("operators", "inputs"),
        monitors={"roundtrip_l2": "roundtrip_l2"},
        run=_run_reconstruct,
        inputs=("source",),
        forward="maxwell-potential",
        reconstruct=lambda scn, times, states: reconstruction.reconstruct_vector_potential(
            times, states, scn.backend
        ),
    ),
    "compare": _Kind(
        sections=("inputs",),
        monitors={"l2_diff": "l2_diff", "max_diff": "max_diff"},
        run=_run_compare,
        inputs=("run_a", "run_b", "transform_a", "transform_b"),
    ),
}

KINDS = tuple(KIND)
