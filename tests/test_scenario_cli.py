import ast
import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavepot import maxwell, schrodinger, stepping, wavepotential
from wavepot import scenario as scenario_module
from wavepot.cli import main
from wavepot.errors import MonitorError, ScenarioError, SolverError
from wavepot.grids import Grid
from wavepot.scenario import KINDS, load_scenario, run
from wavepot.snapshots import DiagnosticsWriter, read_snapshot, write_snapshot
from wavepot.wavepotential import stable_dt

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SNAPSHOT, DIAG = "snapshots.wps", "diagnostics.csv"

MINIMAL_PHI = """
[scenario]
kind = phi
seed = 3

[grid]
points = 64
lengths = 20.0

[constants]
hbar = 1.0
m = 1.0

[potential]
v = 0

[initial]
type = expressions
phi = cos(2*pi*x/20)
phi_dot = 0

[integrator]
dt = auto
steps = 40
snapshot_stride = 10
"""

HARMONIC_PHI = MINIMAL_PHI.replace("v = 0", "v = 0.5*(x-10)^2")

SCHRODINGER = """
[scenario]
kind = schrodinger

[grid]
points = 64
lengths = 20.0

[potential]
v = 0.5*(x-10)^2

[initial]
psi_re = exp(-(x-12)^2/2)
psi_im = 0
normalize = true

[integrator]
dt = 0.002
steps = 100
snapshot_stride = 1
"""

MAXWELL = """
[scenario]
kind = maxwell-fields

[grid]
points = 8 8 8
lengths = 6.283185307179586 6.283185307179586 6.283185307179586

[initial]
e_x = 0
e_y = cos(x)
e_z = 0
b_x = 0
b_y = 0
b_z = cos(x)

[integrator]
dt = 0.02
steps = 50
snapshot_stride = 10
"""

MAXWELL_POTENTIAL = """
[scenario]
kind = maxwell-potential

[grid]
points = 8 8 8
lengths = 6.283185307179586 6.283185307179586 6.283185307179586

[initial]
a_x = 0
a_y = sin(x)
a_z = 0
a_dot_x = 0
a_dot_y = 0-cos(x)
a_dot_z = 0

[integrator]
dt = 0.02
steps = 20
snapshot_stride = 10
"""

RECONSTRUCT_A = "[scenario]\nkind = reconstruct-a\n[constants]\nc = 1.0\n[inputs]\nsource = fields\n"

COMPARE = "[scenario]\nkind = compare\n[inputs]\nrun_a = r1\nrun_b = r2\n"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoadScenario:
    def test_auto_dt_resolves_to_stability_rule(self, tmp_path):
        scn = load_scenario(write(tmp_path, "a.scn", MINIMAL_PHI))
        assert scn.dt == pytest.approx(stable_dt(scn.potential, scn.params))
        rules = {
            "c06_maxwell_fields.scn": maxwell.rk4_dt_bound,
            "c06_maxwell_potential.scn": maxwell.potential_dt_bound,
        }
        for name, rule in rules.items():
            scn = load_scenario(SCENARIO_DIR / name, overrides=["integrator.dt=auto"])
            assert scn.dt == pytest.approx(rule(scn.grid, scn.light_speed))

    def test_time_dependent_potential_rejected(self, tmp_path):
        bad = MINIMAL_PHI.replace("v = 0", "v = t*x")
        with pytest.raises(ScenarioError, match="time-dependent potential unsupported for phi"):
            load_scenario(write(tmp_path, "b.scn", bad))

    def test_missing_grid_names_field(self, tmp_path):
        bad = MINIMAL_PHI.replace("points = 64", "")
        with pytest.raises(ScenarioError, match=r"\[grid\] points"):
            load_scenario(write(tmp_path, "c.scn", bad))

    def test_missing_initial_key(self, tmp_path):
        bad = MINIMAL_PHI.replace("phi_dot = 0", "")
        with pytest.raises(ScenarioError, match="phi_dot"):
            load_scenario(write(tmp_path, "d.scn", bad))

    def test_unknown_kind(self, tmp_path):
        bad = MINIMAL_PHI.replace("kind = phi", "kind = banana")
        with pytest.raises(ScenarioError, match="unknown scenario kind"):
            load_scenario(write(tmp_path, "e.scn", bad))

    def test_override_changes_value(self, tmp_path):
        p = write(tmp_path, "f.scn", MINIMAL_PHI)
        scn = load_scenario(p, overrides=["integrator.steps=7"])
        assert scn.steps == 7

    def test_bad_expression_has_location(self, tmp_path):
        bad = MINIMAL_PHI.replace("phi = cos(2*pi*x/20)", "phi = cos(2*+pi)")
        with pytest.raises(ScenarioError, match="offset"):
            load_scenario(write(tmp_path, "g.scn", bad))

    def test_maxwell_needs_3d(self, tmp_path):
        bad = MAXWELL.replace("points = 8 8 8", "points = 8 8").replace(
            "lengths = 6.283185307179586 6.283185307179586 6.283185307179586",
            "lengths = 6.283185307179586 6.283185307179586",
        )
        with pytest.raises(ScenarioError, match="3D"):
            load_scenario(write(tmp_path, "h.scn", bad))

    def test_unknown_initial_type(self, tmp_path):
        bad = MAXWELL.replace("[initial]", "[initial]\ntype = random")
        with pytest.raises(ScenarioError, match="type 'random' for kind=maxwell-fields"):
            load_scenario(write(tmp_path, "i.scn", bad))

    def test_unknown_monitor_name(self, tmp_path):
        # a misspelt ceiling used to be skipped, so the run exited 0 unchecked
        p = write(tmp_path, "j.scn", HARMONIC_PHI + "\n[monitors]\nnorm_drfit = 1e-30\n")
        with pytest.raises(ScenarioError, match="unknown monitor 'norm_drfit' for kind=phi"):
            load_scenario(p)
        assert main(["phi", "--scenario", str(p), "--out", str(tmp_path / "r")]) == 1
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("line", ["dt_scal = 0.1", "safety = 0.1"])
    def test_unknown_integrator_key_rejected(self, tmp_path, line):
        # both used to load silently: a misspelt dt_scale, and the removed safety factor
        p = write(tmp_path, "k.scn", MINIMAL_PHI.replace("steps = 40", f"steps = 40\n{line}"))
        key = line.split()[0]
        with pytest.raises(ScenarioError, match=rf"unknown field \[integrator\] {key}"):
            load_scenario(p)
        assert main(["phi", "--scenario", str(p), "--out", str(tmp_path / "r")]) == 1

    def test_unknown_section_rejected(self, tmp_path):
        p = write(tmp_path, "l.scn", MINIMAL_PHI)
        with pytest.raises(ScenarioError, match=r"unknown section \[grdi\]"):
            load_scenario(p, overrides=["grdi.points=32"])

    @pytest.mark.parametrize(
        "kind, text, section",
        [
            ("phi", MINIMAL_PHI + "[sources]\nrho = sin(x)*cos(t)\n", "sources"),
            ("schrodinger", SCHRODINGER + "[sources]\nrho = sin(x)*cos(t)\n", "sources"),
            ("maxwell-fields", MAXWELL + "[potential]\nv = 0\n", "potential"),
            ("compare", COMPARE + "[grid]\npoints = 64\nlengths = 20.0\n", "grid"),
            ("reconstruct-a", RECONSTRUCT_A + "[integrator]\nsteps = 5\n", "integrator"),
            ("compare", COMPARE + "[operators]\nbackend = central2\n", "operators"),
        ],
        ids=["phi-sources", "schrodinger-sources", "maxwell-fields-potential", "compare-grid",
             "reconstruct-a-integrator", "compare-operators"],
    )
    def test_section_the_kind_does_not_read_rejected(self, tmp_path, kind, text, section):
        # each used to load and be ignored, so a source or setting the user meant was dropped
        p = write(tmp_path, "m.scn", text)
        with pytest.raises(ScenarioError, match=rf"kind={kind} does not read \[{section}\]"):
            load_scenario(p)
        assert main([kind, "--scenario", str(p), "--out", str(tmp_path / "r")]) == 1
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "kind, text, key",
        [
            ("schrodinger", SCHRODINGER.replace("normalize", "normalise"), "normalise"),
            ("phi", MINIMAL_PHI.replace("phi_dot = 0", "phi_dot = 0\nmode = 0"), "mode"),
        ],
        ids=["schrodinger-normalise", "phi-mode"],
    )
    def test_unknown_initial_key_rejected(self, tmp_path, kind, text, key):
        # a misspelt normalize used to run unnormalized and exit 0
        p = write(tmp_path, "n.scn", text)
        with pytest.raises(ScenarioError, match=rf"unknown field \[initial\] {key} for type = expr"):
            load_scenario(p)
        assert main([kind, "--scenario", str(p), "--out", str(tmp_path / "r")]) == 1

    def test_initial_keys_of_the_type_accepted(self, tmp_path):
        text = MINIMAL_PHI.replace("type = expressions", "type = random\nmodes = 3\namplitude = 0.5")
        text = text.replace("phi = cos(2*pi*x/20)\nphi_dot = 0\n", "")
        assert load_scenario(write(tmp_path, "o.scn", text)).initial == {
            "type": "random", "modes": 3, "amplitude": 0.5
        }
        bad = write(tmp_path, "p.scn", text.replace("modes = 3", "mode = 3"))
        with pytest.raises(ScenarioError, match=r"unknown field \[initial\] mode for type = random"):
            load_scenario(bad)

    def test_inputs_key_the_kind_does_not_read_rejected(self, tmp_path):
        p = write(tmp_path, "q.scn", RECONSTRUCT_A + "run_a = elsewhere\n")
        with pytest.raises(ScenarioError, match=r"unknown field \[inputs\] run_a for kind=reconstruct-a"):
            load_scenario(p)

    @pytest.mark.parametrize(
        "kind, text, key",
        [("schrodinger", SCHRODINGER, "normalize"), ("maxwell-fields", MAXWELL, "fix_divergence")],
        ids=["normalize", "fix_divergence"],
    )
    def test_initial_flag_is_true_or_false(self, tmp_path, kind, text, key):
        # any value but true used to mean false: normalize = yes ran unnormalized, exit 0
        p = write(tmp_path, "r.scn", text)
        with pytest.raises(ScenarioError, match=rf"\[initial\] {key} must be true or false, got 'yes'"):
            load_scenario(p, overrides=[f"initial.{key}=yes"])
        argv = [kind, "--scenario", str(p), "--out", str(tmp_path / "r")]
        assert main([*argv, "--override", f"initial.{key}=yes"]) == 1
        assert load_scenario(p, overrides=[f"initial.{key}=TRUE"]).initial[key] is True
        assert load_scenario(p, overrides=[f"initial.{key}=False"]).initial[key] is False

    def test_normalize_true_in_any_case_normalizes(self, tmp_path):
        p = write(tmp_path, "s.scn", SCHRODINGER.replace("steps = 100", "steps = 1"))
        # norm0 is (1/2 hbar) Int |Psi|^2: 1/2 normalized, sqrt(pi)/2 for the raw Gaussian
        for value, norm0 in (("TRUE", 0.5), ("False", np.sqrt(np.pi) / 2.0)):
            scn = load_scenario(p, overrides=[f"initial.normalize={value}"])
            assert run(scn, tmp_path / value).summary["norm0"] == pytest.approx(norm0, rel=1e-12)


class TestRun:
    def test_phi_run_writes_outputs(self, tmp_path):
        scn = load_scenario(write(tmp_path, "a.scn", HARMONIC_PHI))
        report = run(scn, tmp_path / "out")
        assert (tmp_path / "out" / "snapshots.wps").exists()
        assert (tmp_path / "out" / "diagnostics.csv").exists()
        data = read_snapshot(tmp_path / "out" / "snapshots.wps")
        assert data.kind == "phi"
        assert data.fields == ("phi", "phi_dot")
        assert len(data.frames) == 5
        assert data.time_end is None  # steps are a multiple of the stride
        header = open(tmp_path / "out" / "diagnostics.csv").readline().strip()
        assert header == "step,time,psi_norm,total_energy,identity_residual"

    def test_snapshot_roundtrip_values(self, tmp_path):
        scn = load_scenario(write(tmp_path, "a.scn", MINIMAL_PHI))
        run(scn, tmp_path / "out")
        data = read_snapshot(tmp_path / "out" / "snapshots.wps")
        x = data.grid.axis_coordinates(0)
        assert np.max(np.abs(data.frames[0]["phi"] - np.cos(2 * np.pi * x / 20))) <= 1e-15
        assert data.provenance["potential"] == "0"
        assert data.provenance["version"] == "0.1.0"
        assert "threads" not in data.provenance

    def test_schrodinger_run_norm_column(self, tmp_path):
        scn = load_scenario(write(tmp_path, "s.scn", SCHRODINGER))
        run(scn, tmp_path / "out")
        rows = open(tmp_path / "out" / "diagnostics.csv").read().splitlines()
        assert rows[0] == "step,time,norm,energy"
        norms = [float(r.split(",")[2]) for r in rows[1:]]
        assert max(abs(n - norms[0]) for n in norms) <= 1e-10 * norms[0]

    def test_maxwell_run_and_divb(self, tmp_path):
        scn = load_scenario(write(tmp_path, "m.scn", MAXWELL))
        run(scn, tmp_path / "out")
        rows = open(tmp_path / "out" / "diagnostics.csv").read().splitlines()
        assert rows[0] == "step,time,h_prime,div_e_residual,div_b_residual"
        idx = rows[0].split(",").index("div_b_residual")
        for r in rows[1:]:
            assert float(r.split(",")[idx]) <= 1e-11

    def test_potential_rows_match_the_separate_maps(self, tmp_path):
        # a row's h_prime and constraint residual, read off the spectrum of (A, dA/dt)
        # that the integrator steps, agree with the field map and the constraint
        # function on each frame: h_prime by Parseval's identity, so at roundoff
        scn = load_scenario(
            SCENARIO_DIR / "c06_maxwell_potential.scn",
            ["integrator.steps=60", "integrator.snapshot_stride=20"],
        )
        run(scn, tmp_path / "out")
        diag = _csv_columns(tmp_path / "out" / DIAG)
        columns = ["step", "time", "h_prime", "potential_constraint_residual", "div_b_residual"]
        assert list(diag) == columns
        data = read_snapshot(tmp_path / "out" / SNAPSHOT)
        spec = scenario_module.KIND["maxwell-potential"]
        for step, frame in zip((0, 20, 40, 60), data.frames):
            state = spec.from_arrays(scn, [frame[name] for name in data.fields])
            rho = scn.sources.rho_at(diag["time"][step], scn.grid)
            h_prime = maxwell.field_energy(maxwell.potential_to_fields(state, scn.backend))
            residual = maxwell.potential_constraint_residual(state, rho, scn.backend)
            assert abs(diag["h_prime"][step] - h_prime) <= 1e-14 * h_prime
            assert diag["potential_constraint_residual"][step] == residual


_STATIONARY = ["initial.type=stationary", "initial.mode=0"]


class TestCli:
    def test_phi_exit_zero(self, tmp_path):
        p = write(tmp_path, "a.scn", MINIMAL_PHI)
        assert main(["phi", "--scenario", str(p), "--out", str(tmp_path / "r")]) == 0

    def test_kind_subcommand_mismatch(self, tmp_path):
        p = write(tmp_path, "a.scn", MINIMAL_PHI)
        assert main(["schrodinger", "--scenario", str(p), "--out", str(tmp_path / "r")]) == 1

    def test_stability_violation_exit_two(self, tmp_path):
        p = write(tmp_path, "a.scn", MINIMAL_PHI)
        code = main(
            [
                "phi",
                "--scenario", str(p),
                "--out", str(tmp_path / "r"),
                "--override", "integrator.dt=100",
            ]
        )
        assert code == 2

    def test_cayley_at_moderate_dt_exit_zero(self, tmp_path):
        # unpreconditioned CGLS stalled above tol on this grid and exited with 2
        p = write(tmp_path, "s.scn", SCHRODINGER)
        code = main(
            [
                "schrodinger",
                "--scenario", str(p),
                "--out", str(tmp_path / "r"),
                "--override", "grid.points=2048",
                "--override", "integrator.dt=0.01",
                "--override", "integrator.steps=5",
            ]
        )
        assert code == 0
        assert len(read_snapshot(tmp_path / "r" / "snapshots.wps").frames) == 6

    def test_monitor_ceiling_exit_three(self, tmp_path):
        text = HARMONIC_PHI + "\n[monitors]\nnorm_drift = 1e-18\n"
        p = write(tmp_path, "a.scn", text)
        assert main(["phi", "--scenario", str(p), "--out", str(tmp_path / "r")]) == 3
        # the outputs are still written when a ceiling is exceeded
        assert len(read_snapshot(tmp_path / "r" / "snapshots.wps").frames) == 5
        assert (tmp_path / "r" / "diagnostics.csv").exists()
        assert not list((tmp_path / "r").glob("*.tmp"))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_non_finite_diagnostics_exit_three(self, tmp_path):
        # |Psi|^2 overflows: the rows hold inf and nan, which used to pass every
        # ceiling with peaks of 0 and exit 0
        text = MINIMAL_PHI.replace("phi = cos(2*pi*x/20)", "phi = 1e160*exp(-(x-10)^2)")
        text = text.replace("steps = 40", "steps = 10")
        text += "\n[monitors]\nnorm_drift = 1e-6\nidentity_residual = 1e-12\n"
        p = write(tmp_path, "a.scn", text)
        assert main(["phi", "--scenario", str(p), "--out", str(tmp_path / "r")]) == 3
        columns = _csv_columns(tmp_path / "r" / "diagnostics.csv")
        assert columns["psi_norm"][0] == np.inf and np.isnan(columns["identity_residual"][0])
        assert len(read_snapshot(tmp_path / "r" / "snapshots.wps").frames) == 2
        with pytest.raises(MonitorError, match="norm_drift: peak nan exceeds ceiling") as info:
            run(load_scenario(p), tmp_path / "r2")
        assert "identity_residual: peak nan" in str(info.value)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_non_finite_diagnostics_without_monitors_exit_three(self, tmp_path, capsys):
        # the same overflow with no ceiling to exceed used to exit 0
        text = MINIMAL_PHI.replace("phi = cos(2*pi*x/20)", "phi = 1e160*exp(-(x-10)^2)")
        text = text.replace("steps = 40", "steps = 10")
        p = write(tmp_path, "a.scn", text)
        assert main(["phi", "--scenario", str(p), "--out", str(tmp_path / "r")]) == 3
        assert "psi_norm is not finite at step 0" in capsys.readouterr().err
        assert len(read_snapshot(tmp_path / "r" / "snapshots.wps").frames) == 2
        assert len(_csv_columns(tmp_path / "r" / "diagnostics.csv")["psi_norm"]) == 11

    def test_continuity_gate_exit_one(self, tmp_path):
        text = MAXWELL + "\n[sources]\nrho = sin(x)*cos(t)\nj_x = 0\nj_y = 0\nj_z = 0\n"
        p = write(tmp_path, "bad.scn", text)
        code = main(["maxwell-fields", "--scenario", str(p), "--out", str(tmp_path / "r")])
        assert code == 1

    @pytest.mark.parametrize("mode, message", [
        ("-1", "from 0 to 15, got -1"),
        ("16", "from 0 to 15, got 16"),
        ("99", "from 0 to 15, got 99"),
        ("1.5", "[initial] mode must be an integer, got '1.5'"),
    ])
    def test_stationary_mode_out_of_range_exit_one(self, tmp_path, capsys, mode, message):
        # an IndexError traceback (or int()'s bare message) before the range check
        text = HARMONIC_PHI.replace("points = 64", "points = 16").replace(
            "type = expressions\nphi = cos(2*pi*x/20)\nphi_dot = 0",
            f"type = stationary\nmode = {mode}",
        )
        p = write(tmp_path, "a.scn", text)
        assert main(["phi", "--scenario", str(p), "--out", str(tmp_path / "r")]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "r").exists()
        # the last mode of the grid is in range
        run(load_scenario(p, overrides=["initial.mode=15"]), tmp_path / "last")

    @pytest.mark.parametrize("overrides, message", [
        (["initial.modes=2.7"], "[initial] modes must be an integer, got '2.7'"),
        (["initial.modes=-3"], "[initial] modes must be a positive integer, got -3"),
        (["initial.modes=nan"], "[initial] modes must be an integer, got 'nan'"),
        (["initial.amplitude=abc"], "[initial] amplitude must be a number, got 'abc'"),
        (["initial.amplitude=inf"], "[initial] amplitude must be a finite number, got inf"),
        (_STATIONARY + ["initial.time=abc"], "[initial] time must be a number, got 'abc'"),
        (_STATIONARY + ["initial.time=nan"], "[initial] time must be a finite number, got nan"),
        (["scenario.seed=-1"], "[scenario] seed must be a non-negative integer, got -1"),
        (["integrator.dt=nan"], "[integrator] dt must be 'auto' or a positive finite number, got nan"),
        (["integrator.dt=inf"], "[integrator] dt must be 'auto' or a positive finite number, got inf"),
        (["integrator.dt_scale=nan"], "[integrator] dt_scale must be a positive finite number, got nan"),
        (["integrator.dt_scale=0"], "[integrator] dt_scale must be a positive finite number, got 0.0"),
        (["monitors.norm_drift=nan"],
         "[monitors] norm_drift must be a non-negative finite number, got nan"),
        (["monitors.norm_drift=-1"],
         "[monitors] norm_drift must be a non-negative finite number, got -1.0"),
        (["constants.L=nan"], "[constants] L must be a finite number, got nan"),
    ], ids=["modes-2.7", "modes-negative", "modes-nan", "amplitude-abc", "amplitude-inf",
            "time-abc", "time-nan", "seed-negative", "dt-nan", "dt-inf", "dt_scale-nan",
            "dt_scale-zero", "ceiling-nan", "ceiling-negative", "constant-nan"])
    def test_initial_numbers_and_seed_checked_exit_one(self, tmp_path, capsys, overrides, message):
        # each ran with another value, wrote all-zero or non-finite data, failed
        # late with a message that named no field, stepped a NaN dt to exit 2,
        # exited 3 after the whole run against a ceiling no peak can meet, or
        # wrote an unused NaN constant into the record header
        text = HARMONIC_PHI.replace("points = 64", "points = 16").replace(
            "type = expressions\nphi = cos(2*pi*x/20)\nphi_dot = 0", "type = random"
        )
        p = write(tmp_path, "a.scn", text)
        argv = ["phi", "--scenario", str(p), "--out", str(tmp_path / "r")]
        assert main(argv + [arg for ov in overrides for arg in ("--override", ov)]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    _PHI_16 = HARMONIC_PHI.replace("points = 64", "points = 16").replace("dt = auto", "dt = 0.01")

    @pytest.mark.parametrize("kind, text, overrides, message", [
        ("phi", _PHI_16, ["constants.hbar=0"],
         "field [constants] hbar must be a positive finite number, got 0.0"),
        ("phi", _PHI_16, ["constants.m=-1"],
         "field [constants] m must be a positive finite number, got -1.0"),
        # hbar**2 raised OverflowError in a traceback
        ("phi", _PHI_16, ["constants.hbar=1e200"], "hbar^2/2m overflows for hbar = 1e+200, m = 1.0"),
        ("maxwell-fields", MAXWELL, ["constants.c=0"],
         "field [constants] c must be a positive finite number, got 0.0"),
        ("maxwell-fields", MAXWELL, ["integrator.dt=1e200", "integrator.dt_scale=1e200"],
         "field [integrator] dt times dt_scale must be a positive finite number, got inf"),
        ("phi", _PHI_16, ["integrator.dt=1e-200", "integrator.dt_scale=1e-200"],
         "field [integrator] dt times dt_scale must be a positive finite number, got 0.0"),
    ], ids=["phi-hbar-zero", "phi-m-negative", "phi-kinetic-overflow", "maxwell-c-zero", "maxwell-dt-overflow",
            "phi-dt-underflow"])
    def test_constants_and_resolved_dt_checked_exit_one(
        self, tmp_path, capsys, kind, text, overrides, message
    ):
        # each loaded, then exited 1 at run time with a message that named no
        # field, leaving an empty --out directory
        p = write(tmp_path, "a.scn", text)
        argv = [kind, "--scenario", str(p), "--out", str(tmp_path / "r")]
        assert main(argv + [arg for ov in overrides for arg in ("--override", ov)]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    @pytest.mark.parametrize("kind, text, overrides", [
        ("phi", HARMONIC_PHI, ["grid.points=16", "initial.phi=1e306*cos(2*pi*x/20)"]),
        # 1e306 overflows L(L phi) only, 1e307 L phi itself
        ("phi", HARMONIC_PHI, ["grid.points=16", "initial.phi=1e307*cos(2*pi*x/20)"]),
        ("phi", HARMONIC_PHI, ["grid.points=512", "initial.phi=1e306*cos(2*pi*x/20)"]),
        ("maxwell-fields", MAXWELL, ["initial.e_y=1e307*cos(x)", "initial.b_z=1e307*cos(x)"]),
    ], ids=["phi", "phi-l-overflow", "phi-sampled", "maxwell-fields"])
    def test_overflowing_state_exit_two(self, tmp_path, capsys, kind, text, overrides):
        # finite initial data whose evolution overflows: a numerical failure, not a usage error
        p = write(tmp_path, "a.scn", text)
        argv = [kind, "--scenario", str(p), "--out", str(tmp_path / "r")]
        assert main(argv + [arg for ov in overrides for arg in ("--override", ov)]) == 2
        assert "numerical failure: field contains non-finite samples" in capsys.readouterr().err
        assert not list((tmp_path / "r").iterdir())

    def test_stationary_beyond_the_dense_limit_exit_one(self, tmp_path, capsys):
        text = HARMONIC_PHI.replace("points = 64", "points = 4098").replace(
            "type = expressions\nphi = cos(2*pi*x/20)\nphi_dot = 0",
            "type = stationary\nmode = 0\ntime = 0",
        )
        p = write(tmp_path, "big.scn", text)
        assert main(["phi", "--scenario", str(p), "--out", str(tmp_path / "r")]) == 1
        assert f"{schrodinger.DENSE_GRID_LIMIT} points" in capsys.readouterr().err
        assert not (tmp_path / "r" / SNAPSHOT).exists()
        assert not (tmp_path / "r" / DIAG).exists()

    @pytest.mark.parametrize("kind, scenario_file, points", [
        ("phi", "c10_rescaling_base.scn", "400000000"),
        ("maxwell-fields", "c06_maxwell_fields.scn", "1024 1024 1024"),
    ], ids=["phi", "maxwell-fields"])
    def test_grid_beyond_the_memory_limit_exit_one(self, tmp_path, kind, scenario_file, points):
        # the child caps its address space at 1.5 GB before importing numpy, so the
        # grid's first array cannot be allocated: one line naming the file and the
        # bytes asked for, no traceback
        capped_cli = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))\n"
            "from wavepot.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        scn = SCENARIO_DIR / scenario_file
        out = tmp_path / "r"
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        src = str(SCENARIO_DIR.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [
                sys.executable, "-c", capped_cli, kind, "--scenario", str(scn),
                "--out", str(out), "--override", f"grid.points={points}",
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        (line,) = proc.stderr.splitlines()
        assert line.startswith(f"error: {scn}: out of memory: Unable to allocate"), line
        assert not out.exists() or not list(out.iterdir())

    def test_dump_csv(self, tmp_path):
        p = write(tmp_path, "a.scn", MINIMAL_PHI)
        main(["phi", "--scenario", str(p), "--out", str(tmp_path / "r")])
        assert (
            main(
                [
                    "dump",
                    "--snapshot", str(tmp_path / "r"),
                    "--out", str(tmp_path / "dump.csv"),
                    "--frame", "0",
                ]
            )
            == 0
        )
        lines = open(tmp_path / "dump.csv").read().splitlines()
        assert lines[0] == "frame,time,x,phi,phi_dot"
        assert len(lines) == 65

    @pytest.mark.parametrize("frame", ["99", "-1"])
    def test_dump_frame_out_of_range_exit_one(self, tmp_path, frame):
        # 99 used to leave a header-only CSV after an IndexError; -1 dumped the last frame
        p = write(tmp_path, "a.scn", MINIMAL_PHI)
        assert main(["phi", "--scenario", str(p), "--out", str(tmp_path / "r")]) == 0
        out = tmp_path / "dump.csv"
        argv = ["dump", "--snapshot", str(tmp_path / "r"), "--out", str(out), "--frame", frame]
        assert main(argv) == 1
        assert not out.exists()
        assert not list(tmp_path.glob("*.tmp"))

    def test_determinism_byte_identical(self, tmp_path):
        p = write(tmp_path, "a.scn", HARMONIC_PHI)
        main(["phi", "--scenario", str(p), "--out", str(tmp_path / "r1")])
        main(["phi", "--scenario", str(p), "--out", str(tmp_path / "r2")])
        for name in ("snapshots.wps", "diagnostics.csv"):
            assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()

    def test_bytes_independent_of_blas_threads(self, tmp_path):
        # on grids up to DENSE_L_LIMIT points phi steps in L's eigenbasis, from a dense
        # eigensolve, and stationary data come from another: neither may move a bit
        # with the thread count, whatever OPENBLAS_NUM_THREADS says
        harmonic = HARMONIC_PHI.replace("points = 64", "points = 256")
        stationary = harmonic.replace(
            "type = expressions\nphi = cos(2*pi*x/20)\nphi_dot = 0",
            "type = stationary\nmode = 2\ntime = 0.3",
        )
        assert stationary != harmonic
        src = str(SCENARIO_DIR.parent / "src")
        for initial, text in (("expressions", harmonic), ("stationary", stationary)):
            scn = write(tmp_path, f"{initial}.scn", text)
            outs = []
            for threads in ("1", "2"):
                out = tmp_path / f"{initial}-threads{threads}"
                env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
                env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
                proc = subprocess.run(
                    [
                        sys.executable, "-m", "wavepot.cli", "phi",
                        "--scenario", str(scn), "--out", str(out),
                        "--override", "integrator.steps=300",
                        "--override", "integrator.snapshot_stride=100",
                    ],
                    env=env,
                    capture_output=True,
                    text=True,
                    timeout=300,
                )
                assert proc.returncode == 0, proc.stderr
                outs.append(out)
            for name in ("snapshots.wps", "diagnostics.csv"):
                assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), (initial, name)

    def test_random_initial_data_seeded(self, tmp_path):
        text = HARMONIC_PHI.replace(
            "type = expressions\nphi = cos(2*pi*x/20)\nphi_dot = 0",
            "type = random\nmodes = 5\namplitude = 0.5",
        )
        p = write(tmp_path, "a.scn", text)
        assert main(["phi", "--scenario", str(p), "--out", str(tmp_path / "r1")]) == 0
        assert main(["phi", "--scenario", str(p), "--out", str(tmp_path / "r2")]) == 0
        assert (tmp_path / "r1" / "snapshots.wps").read_bytes() == (
            tmp_path / "r2" / "snapshots.wps"
        ).read_bytes()
        # a different seed produces different data
        assert (
            main(
                [
                    "phi",
                    "--scenario", str(p),
                    "--out", str(tmp_path / "r3"),
                    "--override", "scenario.seed=9",
                ]
            )
            == 0
        )
        assert (tmp_path / "r1" / "snapshots.wps").read_bytes() != (
            tmp_path / "r3" / "snapshots.wps"
        ).read_bytes()

    def test_2d_phi_scenario_runs(self, tmp_path):
        text = MINIMAL_PHI.replace("points = 64", "points = 16 16").replace(
            "lengths = 20.0", "lengths = 20.0 20.0"
        ).replace("phi = cos(2*pi*x/20)", "phi = cos(2*pi*x/20)*cos(2*pi*y/20)")
        p = write(tmp_path, "a.scn", text)
        assert main(["phi", "--scenario", str(p), "--out", str(tmp_path / "r")]) == 0
        data = read_snapshot(tmp_path / "r" / "snapshots.wps")
        assert data.grid.dims == 2
        assert data.frames[0]["phi"].shape == (16, 16)


class TestReconstructAndCompare:
    def test_full_quantum_chain(self, tmp_path):
        sch = write(tmp_path, "s.scn", SCHRODINGER)
        assert main(["schrodinger", "--scenario", str(sch), "--out", str(tmp_path / "sch")]) == 0
        rec_text = """
[scenario]
kind = reconstruct-phi

[potential]
v = 0.5*(x-10)^2

[inputs]
source = sch
"""
        rec = write(tmp_path, "r.scn", rec_text)
        assert main(["reconstruct-phi", "--scenario", str(rec), "--out", str(tmp_path / "rec")]) == 0
        summary = json.loads((tmp_path / "rec" / "summary.json").read_text())
        assert summary["sup_roundtrip_l2"] <= 1e-9

        cmp_text = """
[scenario]
kind = compare

[inputs]
run_a = rec
run_b = sch
transform_a = phi_to_psi
"""
        cmp_p = write(tmp_path, "c.scn", cmp_text)
        assert main(["compare", "--scenario", str(cmp_p), "--out", str(tmp_path / "cmp")]) == 0
        summary = json.loads((tmp_path / "cmp" / "summary.json").read_text())
        assert summary["max_l2_diff"] <= 1e-9

    def test_shifted_potential_chain_on_2048_points(self, tmp_path):
        # V = 0.5*(x-10)^2 - 3 has three negative levels: the normal-equations path
        # this used to take stalled at residual 0.5 after 20000 iterations
        shifted = SCHRODINGER.replace("v = 0.5*(x-10)^2", "v = 0.5*(x-10)^2 - 3")
        sch = write(tmp_path, "s.scn", shifted)
        argv = ["schrodinger", "--scenario", str(sch), "--out", str(tmp_path / "sch")]
        argv += ["--override", "grid.points=2048", "--override", "integrator.steps=4"]
        assert main(argv) == 0
        rec = write(tmp_path, "r.scn", "[scenario]\nkind = reconstruct-phi\n[potential]\n"
                    "v = 0.5*(x-10)^2 - 3\n[inputs]\nsource = sch\n")
        argv = ["reconstruct-phi", "--scenario", str(rec), "--out", str(tmp_path / "rec")]
        assert main(argv) == 0
        summary = json.loads((tmp_path / "rec" / "summary.json").read_text())
        assert summary["sup_roundtrip_l2"] <= 1e-9

    def test_transform_uses_the_record_backend(self, tmp_path):
        # the compare scenario has no [operators]: phi_to_psi must apply the L
        # the record was made with (central2), not the spectral default
        central2 = "\n[operators]\nbackend = central2\n"
        sch = write(tmp_path, "s.scn", SCHRODINGER + central2)
        argv = ["schrodinger", "--scenario", str(sch), "--out", str(tmp_path / "sch")]
        argv += ["--override", "grid.points=32", "--override", "integrator.steps=50"]
        assert main(argv + ["--override", "integrator.snapshot_stride=10"]) == 0
        rec = write(
            tmp_path, "r.scn", "[scenario]\nkind = reconstruct-phi\n[potential]\n"
            "v = 0.5*(x-10)^2\n[inputs]\nsource = sch\n" + central2,
        )
        assert main(["reconstruct-phi", "--scenario", str(rec), "--out", str(tmp_path / "rec")]) == 0
        cmp_p = write(
            tmp_path, "c.scn", "[scenario]\nkind = compare\n[inputs]\nrun_a = rec\n"
            "run_b = sch\ntransform_a = phi_to_psi\n",
        )
        assert main(["compare", "--scenario", str(cmp_p), "--out", str(tmp_path / "cmp")]) == 0
        summary = json.loads((tmp_path / "cmp" / "summary.json").read_text())
        assert summary["frames_compared"] == 6
        assert summary["max_l2_diff"] <= 1e-3

    @pytest.mark.parametrize("kind, overrides", [
        ("reconstruct-phi", []),
        ("reconstruct-phi", ["constants.hbar=1.5", "constants.m=2"]),
        ("reconstruct-a", []),
        ("reconstruct-a", ["constants.c=7.5"]),
    ])
    def test_roundtrip_matches_a_compare_of_the_output(self, tmp_path, kind, overrides):
        # the run maps with the physics its output is labelled with: with c = 7.5
        # over a c = 1 record, reconstruct-a used to map with the record's c and
        # label its output with its own, so a compare of the output disagreed
        source_kind, source, transform, rec_text = {
            "reconstruct-phi": ("schrodinger", SCHRODINGER.replace("steps = 100", "steps = 20"),
                                "phi_to_psi", "[scenario]\nkind = reconstruct-phi\n[potential]\n"
                                "v = 0.5*(x-10)^2\n[inputs]\nsource = src\n"),
            "reconstruct-a": ("maxwell-fields", MAXWELL, "a_to_fields",
                              RECONSTRUCT_A.replace("source = fields", "source = src")),
        }[kind]
        argv = [source_kind, "--scenario", str(write(tmp_path, "s.scn", source))]
        assert main(argv + ["--out", str(tmp_path / "src")]) == 0
        argv = [kind, "--scenario", str(write(tmp_path, "r.scn", rec_text))]
        argv += ["--out", str(tmp_path / "rec")]
        assert main(argv + [arg for ov in overrides for arg in ("--override", ov)]) == 0
        cmp_text = COMPARE.replace("r1", "rec").replace("r2", "src")
        cmp_p = write(tmp_path, "c.scn", cmp_text + f"transform_a = {transform}\n")
        assert main(["compare", "--scenario", str(cmp_p), "--out", str(tmp_path / "cmp")]) == 0
        rec = json.loads((tmp_path / "rec" / "summary.json").read_text())
        cmp = json.loads((tmp_path / "cmp" / "summary.json").read_text())
        assert rec["sup_roundtrip_l2"] == cmp["max_l2_diff"]
        rows, cmp_rows = (_csv_columns(tmp_path / d / "report.csv") for d in ("rec", "cmp"))
        assert rows["roundtrip_l2"] == cmp_rows["l2_diff"]
        assert rows["roundtrip_max"] == cmp_rows["max_diff"]
        if not overrides:  # with the record's own constants the round trip closes
            assert rec["sup_roundtrip_l2"] <= 0.1
        if kind == "reconstruct-a":
            # dA/dt = -c E with the scenario's c, the one in the output's provenance
            out, fields = (read_snapshot(tmp_path / d / SNAPSHOT) for d in ("rec", "src"))
            c = out.provenance["constants"]["c"]
            assert c == (7.5 if overrides else 1.0)
            for a, f in zip(out.frames, fields.frames, strict=True):
                assert np.array_equal(a["a_dot_y"], -c * f["e_y"])

    @pytest.mark.parametrize("kind, source_kind, source", [
        ("reconstruct-phi", "schrodinger", SCHRODINGER),
        ("reconstruct-a", "maxwell-fields", MAXWELL),
    ], ids=["reconstruct-phi", "reconstruct-a"])
    def test_each_source_frame_decoded_once(self, tmp_path, monkeypatch, kind, source_kind, source):
        argv = [source_kind, "--scenario", str(write(tmp_path, "s.scn", source))]
        argv += ["--out", str(tmp_path / "fields"), "--override", "integrator.steps=20"]
        assert main(argv) == 0
        frames = len(read_snapshot(tmp_path / "fields" / SNAPSHOT).frames)
        spec = scenario_module.KIND[source_kind]
        decoded = []

        def from_arrays(scn, arrays):
            decoded.append(len(arrays))
            return spec.from_arrays(scn, arrays)

        monkeypatch.setitem(
            scenario_module.KIND, source_kind, dataclasses.replace(spec, from_arrays=from_arrays)
        )

        def no_decoder(data):  # the record's own provenance serves compare's transforms only
            raise AssertionError("a reconstruct run decoded with the record's provenance")

        monkeypatch.setattr(scenario_module, "_decoder", no_decoder)
        rec_text = {
            "reconstruct-phi": "[scenario]\nkind = reconstruct-phi\n[potential]\n"
            "v = 0.5*(x-10)^2\n[inputs]\nsource = fields\n",
            "reconstruct-a": RECONSTRUCT_A,
        }[kind]
        run(load_scenario(write(tmp_path, "r.scn", rec_text)), tmp_path / "rec")
        assert decoded == [len(spec.fields)] * frames

    def test_compare_monitors_are_checked(self, tmp_path):
        p = write(tmp_path, "a.scn", MINIMAL_PHI)
        main(["phi", "--scenario", str(p), "--out", str(tmp_path / "r1")])
        main(["phi", "--scenario", str(p), "--out", str(tmp_path / "r2"),
              "--override", "initial.phi=sin(2*pi*x/20)"])
        cmp_text = "[scenario]\nkind = compare\n[inputs]\nrun_a = r1\nrun_b = r2\n"
        cmp_p = write(tmp_path, "c.scn", cmp_text + "[monitors]\nmax_diff = 1e-3\n")
        assert main(["compare", "--scenario", str(cmp_p), "--out", str(tmp_path / "cmp")]) == 3
        assert (tmp_path / "cmp" / "summary.json").exists()
        bad = write(tmp_path, "d.scn", cmp_text + "[monitors]\nroundtrip_l2 = 1e-3\n")
        assert main(["compare", "--scenario", str(bad), "--out", str(tmp_path / "bad")]) == 1

    @pytest.mark.parametrize("kind", ["reconstruct-phi", "compare"])
    def test_failed_summary_write_leaves_no_output(self, tmp_path, monkeypatch, kind):
        sch = write(tmp_path, "s.scn", SCHRODINGER)
        argv = ["schrodinger", "--scenario", str(sch), "--out", str(tmp_path / "sch")]
        assert main(argv + ["--override", "integrator.steps=5"]) == 0
        scenario_text = {
            "reconstruct-phi": "[potential]\nv = 0.5*(x-10)^2\n[inputs]\nsource = sch\n",
            "compare": "[inputs]\nrun_a = sch\nrun_b = sch\n",
        }[kind]
        scn = load_scenario(write(tmp_path, "k.scn", f"[scenario]\nkind = {kind}\n" + scenario_text))
        real_write_text = Path.write_text

        def half_write(self, data, *args, **kwargs):
            real_write_text(self, data[: len(data) // 2], *args, **kwargs)
            raise OSError("injected failure part-way through the write")

        monkeypatch.setattr(Path, "write_text", half_write)
        with pytest.raises(OSError, match="injected"):
            run(scn, tmp_path / "out")
        assert not list((tmp_path / "out").iterdir())

    def test_compare_identical_runs_is_zero(self, tmp_path):
        p = write(tmp_path, "a.scn", MINIMAL_PHI)
        main(["phi", "--scenario", str(p), "--out", str(tmp_path / "r1")])
        main(["phi", "--scenario", str(p), "--out", str(tmp_path / "r2")])
        cmp_text = """
[scenario]
kind = compare

[inputs]
run_a = r1
run_b = r2
"""
        cmp_p = write(tmp_path, "c.scn", cmp_text)
        assert main(["compare", "--scenario", str(cmp_p), "--out", str(tmp_path / "cmp")]) == 0
        summary = json.loads((tmp_path / "cmp" / "summary.json").read_text())
        assert summary["max_l2_diff"] == 0.0
        assert summary["max_max_diff"] == 0.0

    def test_maxwell_pair_compare_via_transform(self, tmp_path):
        pot_text = MAXWELL.replace("kind = maxwell-fields", "kind = maxwell-potential").replace(
            """e_x = 0
e_y = cos(x)
e_z = 0
b_x = 0
b_y = 0
b_z = cos(x)""",
            """a_x = 0
a_y = sin(x)
a_z = 0
a_dot_x = 0
a_dot_y = -cos(x)
a_dot_z = 0""",
        ).replace("dt = 0.02\nsteps = 50\nsnapshot_stride = 10", "dt = 0.004\nsteps = 250\nsnapshot_stride = 50")
        fld = write(tmp_path, "f.scn", MAXWELL)
        pot = write(tmp_path, "p.scn", pot_text)
        assert main(["maxwell-fields", "--scenario", str(fld), "--out", str(tmp_path / "f")]) == 0
        assert main(["maxwell-potential", "--scenario", str(pot), "--out", str(tmp_path / "p")]) == 0
        cmp_text = """
[scenario]
kind = compare

[inputs]
run_a = f
run_b = p
transform_b = a_to_fields
"""
        cmp_p = write(tmp_path, "c.scn", cmp_text)
        assert main(["compare", "--scenario", str(cmp_p), "--out", str(tmp_path / "cmp")]) == 0
        summary = json.loads((tmp_path / "cmp" / "summary.json").read_text())
        assert summary["frames_compared"] == 6
        assert summary["max_l2_diff"] <= 1e-3  # coarse steps; equivalence at tight dt is in the matrix

    def test_compare_is_symmetric(self, tmp_path):
        sch = write(tmp_path, "s.scn", SCHRODINGER)
        main(["schrodinger", "--scenario", str(sch), "--out", str(tmp_path / "sa")])
        main(
            [
                "schrodinger",
                "--scenario", str(sch),
                "--out", str(tmp_path / "sb"),
                "--override", "initial.psi_re=exp(-(x-9)^2/2)",
            ]
        )
        for order, out in ((("sa", "sb"), "c1"), (("sb", "sa"), "c2")):
            cmp_text = f"""
[scenario]
kind = compare

[inputs]
run_a = {order[0]}
run_b = {order[1]}
"""
            cmp_p = write(tmp_path, f"{out}.scn", cmp_text)
            main(["compare", "--scenario", str(cmp_p), "--out", str(tmp_path / out)])
        s1 = json.loads((tmp_path / "c1" / "summary.json").read_text())
        s2 = json.loads((tmp_path / "c2" / "summary.json").read_text())
        assert s1["max_l2_diff"] == s2["max_l2_diff"]
        assert s1["max_max_diff"] == s2["max_max_diff"]


def snapshot_header(path) -> dict:
    with open(path, "rb") as fh:
        fh.readline()
        return json.loads(fh.readline())


class TestRecordTimes:
    def test_integer_header_times_read_as_floats(self, tmp_path):
        # JSON integers made an integer time array, which truncated a time_end of 2.5 to 2
        header = {
            "fields": ["phi", "phi_dot"], "frame_count": 3,
            "grid": {"points": [8], "lengths": [20.0]}, "kind": "phi", "provenance": {},
            "time_start": 0, "time_step": 1, "time_end": 2.5,
        }
        path = tmp_path / SNAPSHOT
        path.write_bytes(f"WAVEPOT-SNAP 1\n{json.dumps(header)}\n".encode() + bytes(8 * 8 * 2 * 3))
        assert read_snapshot(path).times.tolist() == [0.0, 1.0, 2.5]

    def test_off_stride_last_frame_time(self, tmp_path):
        scn = load_scenario(
            SCENARIO_DIR / "c03_identity_drift.scn",
            overrides=["integrator.steps=5", "integrator.snapshot_stride=2"],
        )
        run(scn, tmp_path / "out")
        data = read_snapshot(tmp_path / "out" / "snapshots.wps")
        assert np.array_equal(data.times, scn.dt * np.array([0.0, 2.0, 4.0, 5.0]))
        last_row = open(tmp_path / "out" / "diagnostics.csv").read().splitlines()[-1]
        assert data.times[-1] == float(last_row.split(",")[1])
        assert snapshot_header(tmp_path / "out" / "snapshots.wps")["time_end"] == 5 * scn.dt

    def test_reconstruction_carries_time_end(self, tmp_path):
        sch = write(tmp_path, "s.scn", SCHRODINGER)
        argv = ["schrodinger", "--scenario", str(sch), "--out", str(tmp_path / "sch")]
        argv += ["--override", "integrator.steps=5", "--override", "integrator.snapshot_stride=2"]
        assert main(argv) == 0
        rec = write(
            tmp_path, "r.scn", "[scenario]\nkind = reconstruct-phi\n[potential]\n"
            "v = 0.5*(x-10)^2\n[inputs]\nsource = sch\n",
        )
        argv = ["reconstruct-phi", "--scenario", str(rec), "--out", str(tmp_path / "rec")]
        assert main(argv) == 0
        source = read_snapshot(tmp_path / "sch" / "snapshots.wps")
        rebuilt = read_snapshot(tmp_path / "rec" / "snapshots.wps")
        assert source.time_end == 5 * 0.002
        assert rebuilt.time_end == source.time_end
        assert np.array_equal(rebuilt.times, source.times)


    def test_one_frame_source_exit_one_before_any_output(self, tmp_path, capsys):
        sch = write(tmp_path, "s.scn", SCHRODINGER)
        argv = ["schrodinger", "--scenario", str(sch), "--out", str(tmp_path / "sch")]
        assert main(argv + ["--override", "integrator.steps=1"]) == 0
        source = read_snapshot(tmp_path / "sch" / SNAPSHOT)
        (tmp_path / "one").mkdir()
        write_snapshot(
            tmp_path / "one" / SNAPSHOT, kind=source.kind, grid=source.grid,
            fields=source.fields, times=source.times[:1],
            frames=[[source.frames[0][name] for name in source.fields]],
            provenance=source.provenance,
        )
        rec = write(
            tmp_path, "r.scn", "[scenario]\nkind = reconstruct-phi\n[potential]\n"
            "v = 0.5*(x-10)^2\n[inputs]\nsource = one\n",
        )
        argv = ["reconstruct-phi", "--scenario", str(rec), "--out", str(tmp_path / "rec")]
        assert main(argv) == 1
        assert "two samples" in capsys.readouterr().err
        assert not (tmp_path / "rec" / SNAPSHOT).exists()


def _corrupt_snapshot(path: Path, defect: str) -> None:
    magic, header, frames = path.read_bytes().split(b"\n", 2)
    if defect == "missing_key":
        fields = json.loads(header)
        del fields["time_step"]
        header = json.dumps(fields).encode()
    elif defect == "not_an_object":
        header = b"[]"
    elif defect == "bad_magic":
        magic = b"WAVEPOT-SNAP 9"
    elif defect == "truncated":
        frames = frames[:-8]
    else:
        frames += b"\0"
    path.write_bytes(b"\n".join([magic, header, frames]))


class TestMalformedSnapshots:
    @pytest.mark.parametrize(
        "defect, message",
        [
            ("missing_key", "header lacks the key 'time_step'"),
            ("not_an_object", "has a malformed header"),
            ("bad_magic", "is not a snapshot file"),
            ("truncated", "is truncated"),
            ("trailing", "has trailing bytes"),
        ],
    )
    def test_rejected_naming_the_file(self, tmp_path, defect, message):
        grid = Grid.line(8, 1.0)
        path = tmp_path / "run.wps"
        frames = [[np.full(grid.shape, float(n)), np.zeros(grid.shape)] for n in range(3)]
        write_snapshot(
            path, kind="phi", grid=grid, fields=["phi", "phi_dot"], times=[0.0, 0.5, 1.0],
            frames=frames, provenance={},
        )
        _corrupt_snapshot(path, defect)
        with pytest.raises(ValueError) as info:
            read_snapshot(path)
        assert str(path) in str(info.value) and message in str(info.value)
        out = tmp_path / "dump.csv"
        assert main(["dump", "--snapshot", str(path), "--out", str(out)]) == 1
        assert not out.exists()


@pytest.mark.parametrize("changes, message", [
    ({"frame_count": 0}, "frame_count 0, not a positive integer"),
    ({"frame_count": -1}, "frame_count -1, not a positive integer"),
    ({"frame_count": 1.5}, "frame_count 1.5, not a positive integer"),
    ({"time_step": float("nan")}, "has a time that is not finite"),
    ({"time_start": float("inf")}, "has a time that is not finite"),
    ({"time_end": float("nan")}, "has a time that is not finite"),
    ({"time_step": 0.0}, "has frame times that do not ascend"),
    ({"time_step": -0.1}, "has frame times that do not ascend"),
    ({"time_end": 0.05}, "has frame times that do not ascend"),
], ids=["0", "-1", "1.5", "step-nan", "start-inf", "end-nan", "step-zero", "step-negative",
        "end-early"])
def test_frame_count_not_a_positive_integer_exit_one(tmp_path, capsys, changes, message):
    # frame_count 0 (or -1, read as 0) ended compare in an IndexError at times_a[-1];
    # NaN times read as NaN, and compare's time check passed them against a good record
    header = {
        "fields": ["psi_re", "psi_im"], "frame_count": 3,
        "grid": {"points": [8], "lengths": [20.0]}, "kind": "schrodinger",
        "provenance": {}, "time_start": 0.0, "time_step": 0.1, **changes,
    }
    (tmp_path / "empty").mkdir()
    path = tmp_path / "empty" / SNAPSHOT
    # the body three frames of two fields on 8 points take, so only the header is at fault
    path.write_bytes(f"WAVEPOT-SNAP 1\n{json.dumps(header)}\n".encode() + bytes(3 * 2 * 8 * 8))
    with pytest.raises(ValueError, match=re.escape(message)):
        read_snapshot(path)
    scenarios = {
        "compare": COMPARE.replace("r1", "empty").replace("r2", "empty"),
        "reconstruct-phi": "[scenario]\nkind = reconstruct-phi\n[potential]\nv = 0\n"
        "[inputs]\nsource = empty\n",
    }
    for kind, text in scenarios.items():
        argv = [kind, "--scenario", str(write(tmp_path, f"{kind}.scn", text))]
        assert main(argv + ["--out", str(tmp_path / kind)]) == 1
        assert not list((tmp_path / kind).iterdir())
    assert main(["dump", "--snapshot", str(path), "--out", str(tmp_path / "dump.csv")]) == 1
    assert not (tmp_path / "dump.csv").exists()
    assert capsys.readouterr().err.count(message) == 3



@pytest.mark.parametrize("changes, message", [
    ({"kind": "banana"}, "has kind 'banana', not one of schrodinger, phi,"),
    ({"fields": ["phi", "phi"]}, "has fields ['phi', 'phi'], but a phi record holds"),
    ({"fields": ["phi", "psi"]}, "has fields ['phi', 'psi'], but a phi record holds"),
    ({"provenance": [1]}, "has a provenance that is not an object"),
    ({"provenance": {"constants": "abc"}}, "has a provenance.constants that is not an object"),
    ({"provenance": {"constants": {"hbar": "1.0"}}}, "provenance.constants that is not an object"),
    ({"provenance": {"potential": 5}}, "has a provenance.potential that is not a string"),
    ({"provenance": {"potential": "0", "backend": []}}, "has a provenance.backend that is not a string"),
    ({"frame_count": 10**12}, "is truncated: its header promises 1024000000000000 bytes of frames"),
    ({"grid": {"points": [10**6] * 3, "lengths": [20.0] * 3}},
     "is truncated: its header promises 64000000000000000000 bytes of frames"),
    ({"grid": {"points": ["64"], "lengths": [20.0]}}, "has grid.points ['64'], not a list of integers"),
    ({"grid": {"points": [64.5], "lengths": [20.0]}}, "has grid.points [64.5], not a list of integers"),
    ({"grid": {"points": [64.0], "lengths": [20.0]}}, "has grid.points [64.0], not a list of integers"),
    ({"grid": {"points": [True], "lengths": [20.0]}}, "has grid.points [True], not a list of integers"),
    ({"grid": {"points": 64, "lengths": [20.0]}}, "has grid.points 64, not a list of integers"),
    ({"grid": {"points": [64], "lengths": ["20.0"]}}, "has grid.lengths ['20.0'], not a list of numbers"),
    ({"grid": {"points": [64], "lengths": [False]}}, "has grid.lengths [False], not a list of numbers"),
], ids=["kind", "fields-repeated", "fields-other", "provenance", "constants", "constant-string",
        "potential-number", "backend-list", "frame-count-huge", "points-huge", "points-string", "points-fraction", "points-float",
        "points-bool", "points-not-a-list", "lengths-string", "lengths-bool"])
def test_header_that_does_not_fit_its_kind_exit_one(tmp_path, capsys, changes, message):
    # on a valid 4-frame phi record: dump wrote a kind of "banana" out with exit 0,
    # compare ended fields ["phi", "phi"] in KeyError 'phi_dot' and a list
    # provenance in AttributeError; a frame count of 10**12 ended in MemoryError from
    # the 7.28 TiB time array, and 10**18 grid points from reading one frame's bytes.
    # Grid read points of "64" or 64.5 as 64, and the record then failed as having
    # trailing bytes. A potential of 5 or a backend of [] ended compare's
    # phi_to_psi in a TypeError traceback
    argv = ["phi", "--scenario", str(write(tmp_path, "phi.scn", MINIMAL_PHI))]
    assert main(argv + ["--out", str(tmp_path / "bad"), "--override", "integrator.steps=30"]) == 0
    path = tmp_path / "bad" / SNAPSHOT
    magic, header, frames = path.read_bytes().split(b"\n", 2)
    assert json.loads(header)["frame_count"] == 4
    header = json.dumps({**json.loads(header), **changes}).encode()
    path.write_bytes(b"\n".join([magic, header, frames]))
    with pytest.raises(ValueError, match=re.escape(message)):
        read_snapshot(path)
    scenarios = {
        "compare": COMPARE.replace("r1", "bad").replace("r2", "bad") + "transform_a = phi_to_psi\n",
        "reconstruct-phi": "[scenario]\nkind = reconstruct-phi\n[potential]\nv = 0\n"
        "[inputs]\nsource = bad\n",
        "reconstruct-a": "[scenario]\nkind = reconstruct-a\n[inputs]\nsource = bad\n",
    }
    capsys.readouterr()
    for kind, text in scenarios.items():
        argv = [kind, "--scenario", str(write(tmp_path, f"{kind}.scn", text))]
        assert main(argv + ["--out", str(tmp_path / kind)]) == 1
        assert not list((tmp_path / kind).iterdir())
    assert main(["dump", "--snapshot", str(path), "--out", str(tmp_path / "dump.csv")]) == 1
    assert not (tmp_path / "dump.csv").exists()
    assert capsys.readouterr().err.count(message) == 4


# JSON values of every type: null, booleans, integers of any size, floats (NaN and
# the infinities too, which Python's json writes and reads), strings, and lists and
# objects of these
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5,
)
HEADER_KEYS = (
    "provenance.potential", "provenance.backend", "provenance.constants.hbar",
    "provenance.constants.m", "provenance.constants.c", "provenance.constants.other", "time_end",
)


@pytest.fixture(scope="module")
def valid_records(tmp_path_factory):
    """The bytes of a valid phi record and a valid maxwell-potential record, by the
    transform compare maps each with."""
    work = tmp_path_factory.mktemp("records")
    records = {}
    for kind, text, transform in [
        ("phi", MINIMAL_PHI, "phi_to_psi"), ("maxwell-potential", MAXWELL_POTENTIAL, "a_to_fields"),
    ]:
        argv = [kind, "--scenario", str(write(work, f"{kind}.scn", text)), "--out", str(work / kind)]
        assert main(argv) == 0
        records[transform] = (work / kind / SNAPSHOT).read_bytes()
    return records


@settings(max_examples=300, deadline=None)
@given(
    transform=st.sampled_from(["phi_to_psi", "a_to_fields"]),
    key=st.sampled_from(HEADER_KEYS),
    value=JSON_VALUES,
)
def test_any_json_value_in_a_header_ends_in_a_message(valid_records, transform, key, value):
    magic, header, frames = valid_records[transform].split(b"\n", 2)
    header = json.loads(header)
    *parents, name = key.split(".")
    target = header
    for part in parents:
        target = target[part]
    target[name] = value
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "r1").mkdir()
        (work / "r1" / SNAPSHOT).write_bytes(b"\n".join([magic, json.dumps(header).encode(), frames]))
        text = COMPARE.replace("r2", "r1") + f"transform_a = {transform}\ntransform_b = {transform}\n"
        compare = ["compare", "--scenario", str(write(work, "c.scn", text)), "--out", str(work / "c")]
        dump = ["dump", "--snapshot", str(work / "r1"), "--out", str(work / "dump.csv")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            codes = [main(compare), main(dump)]  # an uncaught exception fails the test here
        # a finite but extreme constant (hbar = 1e154, c = 1e-320) overflows the
        # forward map itself: compare's documented numerical failure, exit 2
        assert codes[0] in (0, 1, 2) and codes[1] in (0, 1), (codes, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if codes[0]:
            assert not (work / "c").exists() or not list((work / "c").iterdir())
        if codes[1]:
            assert not (work / "dump.csv").exists()


class TestAtomicSnapshots:
    def test_failed_run_leaves_no_snapshot(self, tmp_path, monkeypatch):
        real_step = schrodinger.crank_nicolson_step
        calls = []

        def failing_step(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise SolverError("injected failure at step 3")
            return real_step(*args, **kwargs)

        monkeypatch.setattr(schrodinger, "crank_nicolson_step", failing_step)
        scn = load_scenario(write(tmp_path, "s.scn", SCHRODINGER))
        with pytest.raises(SolverError, match="step 3"):
            run(scn, tmp_path / "out")
        assert len(calls) == 3
        assert not (tmp_path / "out" / "snapshots.wps").exists()
        assert not (tmp_path / "out" / "snapshots.wps.tmp").exists()
        assert not (tmp_path / "out" / "diagnostics.csv").exists()
        assert not (tmp_path / "out" / "diagnostics.csv.tmp").exists()


# the column each monitor watches, per kind, as docs/scenario_format.md states them
MONITOR_COLUMNS = {
    "schrodinger": {"norm_drift": "norm", "energy_drift": "energy"},
    "phi": {"norm_drift": "psi_norm", "identity_residual": "identity_residual"},
    "maxwell-fields": {
        "div_e_residual": "div_e_residual",
        "div_b_residual": "div_b_residual",
        "energy_drift": "h_prime",
    },
    "maxwell-potential": {
        "potential_constraint_residual": "potential_constraint_residual",
        "div_b_residual": "div_b_residual",
    },
    "reconstruct-phi": {"roundtrip_l2": "roundtrip_l2"},
    "reconstruct-a": {"roundtrip_l2": "roundtrip_l2"},
    "compare": {"l2_diff": "l2_diff", "max_diff": "max_diff"},
}


def _csv_columns(path: Path) -> dict[str, list[float]]:
    header, *rows = path.read_text().splitlines()
    values = [[float(cell) for cell in row.split(",")] for row in rows]
    return {name: [row[i] for row in values] for i, name in enumerate(header.split(","))}


def _peak(monitor: str, column: list[float]) -> float:
    """The documented peak: a ``*_drift`` monitor's largest change from the first
    row relative to it (0 for a zero first row), else the column's largest value."""
    if monitor.endswith("_drift"):
        base = column[0]
        return max(abs(v - base) for v in column) / abs(base) if base else 0.0
    return max(0.0, *column)


@pytest.fixture(scope="module")
def peak_runs(tmp_path_factory):
    """One small run of every kind: its report and the CSV its peaks come from."""
    tmp = tmp_path_factory.mktemp("peaks")
    texts = {
        "schrodinger": SCHRODINGER.replace("steps = 100", "steps = 20"),
        "phi": HARMONIC_PHI,
        "fields": MAXWELL.replace("steps = 50", "steps = 20"),
        # a longitudinal dA/dt breaks the constraint, so that peak is not 0
        "maxwell-potential": MAXWELL_POTENTIAL.replace("a_dot_x = 0", "a_dot_x = 0.1*cos(x)"),
        "r1": HARMONIC_PHI,
        "r2": HARMONIC_PHI.replace("phi_dot = 0", "phi_dot = 0.1*sin(2*pi*x/20)"),
        "reconstruct-phi": "[scenario]\nkind = reconstruct-phi\n[potential]\n"
        "v = 0.5*(x-10)^2\n[inputs]\nsource = schrodinger\n",
        "reconstruct-a": RECONSTRUCT_A,
        "compare": COMPARE,
    }
    runs = {}
    for name, text in texts.items():
        scn = load_scenario(write(tmp, f"{name}.scn", text))
        report = run(scn, tmp / name)
        csv = "diagnostics.csv" if scn.dt is not None else "report.csv"
        runs[scn.kind] = report, tmp / name / csv
    return runs


class TestMonitorPeaks:
    @pytest.mark.parametrize("kind", list(MONITOR_COLUMNS))
    def test_peaks_are_recomputed_from_the_csv(self, peak_runs, kind):
        report, csv = peak_runs[kind]
        columns = _csv_columns(csv)
        expected = {
            monitor: _peak(monitor, columns[column])
            for monitor, column in MONITOR_COLUMNS[kind].items()
        }
        assert report.monitor_peaks == expected  # exact: CSV floats round-trip through repr
        assert any(value > 0 for value in expected.values())
        if csv.name == "diagnostics.csv":
            assert report.summary == {
                f"{column}0": columns[column][0]
                for monitor, column in MONITOR_COLUMNS[kind].items()
                if monitor.endswith("_drift")
            }

    def test_zero_norm_phi_has_zero_drift(self, tmp_path):
        text = MINIMAL_PHI.replace("phi = cos(2*pi*x/20)", "phi = 0")
        report = run(load_scenario(write(tmp_path, "z.scn", text)), tmp_path / "out")
        assert report.monitor_peaks == {"norm_drift": 0.0, "identity_residual": 0.0}
        assert report.summary == {"psi_norm0": 0.0}

    def test_zero_first_value_leaves_drift_at_zero(self, tmp_path):
        # fields start at rest and a current drives them: h_prime grows from 0
        text = MAXWELL.replace("steps = 50", "steps = 20").replace("cos(x)", "0")
        text += "[sources]\nj_z = cos(x)*sin(t+1)\n"
        report = run(load_scenario(write(tmp_path, "d.scn", text)), tmp_path / "out")
        h_prime = _csv_columns(tmp_path / "out" / "diagnostics.csv")["h_prime"]
        assert h_prime[0] == 0.0 and max(h_prime) > 0.0
        assert report.monitor_peaks["energy_drift"] == 0.0
        assert report.summary == {"h_prime0": 0.0}


DRIVE = "[sources]\nj_z = 0.1*cos(x)*sin(t+1)\n"

# small runs of each evolving kind, with the bytes one step's observed arrays take
# a Maxwell kind observes the half spectrum of its six components: 8 x 8 x 5 complex modes each
BLOCK_RUNS = {
    "schrodinger": (SCHRODINGER, 64 * 16),
    "phi": (HARMONIC_PHI, 2 * 64 * 8),
    "maxwell-fields": (MAXWELL + DRIVE, 6 * 8 * 8 * 5 * 16),
    # a longitudinal dA/dt breaks the constraint, so that peak is not 0
    "maxwell-potential": (
        MAXWELL_POTENTIAL.replace("a_dot_x = 0", "a_dot_x = 0.1*cos(x)") + DRIVE,
        6 * 8 * 8 * 5 * 16,
    ),
}


def _wrap_observe(monkeypatch, kind: str, record) -> None:
    """Call ``record(times, blocks)`` on every block the kind's ``observe`` receives."""
    spec = scenario_module.KIND[kind]

    def setup(scn):
        state, columns, observe = spec.setup(scn)

        def watched(times, *blocks):
            record(times, blocks)
            return observe(times, *blocks)

        return state, columns, watched

    monkeypatch.setitem(scenario_module.KIND, kind, dataclasses.replace(spec, setup=setup))


def _watch_blocks(monkeypatch, kind: str) -> list:
    """Record (rows, bytes) of every block the kind's ``observe`` receives."""
    seen = []
    _wrap_observe(monkeypatch, kind, lambda times, blocks: seen.append(
        (len(times), sum(b.nbytes for b in blocks))))
    return seen


def _keep_blocks(monkeypatch, kind: str) -> list:
    """Copy every block the kind's ``observe`` receives, one list of arrays a call."""
    kept = []
    _wrap_observe(monkeypatch, kind, lambda times, blocks: kept.append([b.copy() for b in blocks]))
    return kept


class TestDiagnosticBlocks:
    @pytest.mark.parametrize("kind", list(BLOCK_RUNS))
    def test_block_size_changes_no_byte(self, tmp_path, monkeypatch, kind):
        text, step_bytes = BLOCK_RUNS[kind]
        p = write(tmp_path, "a.scn", text)
        overrides = ["integrator.steps=10", "integrator.snapshot_stride=4"]  # 11 rows
        outputs = []
        seen = _watch_blocks(monkeypatch, kind)
        for rows, blocks in ((1, [1] * 11), (3, [3, 3, 3, 2]), (100, [11])):
            monkeypatch.setattr(stepping, "_OBSERVED_BLOCK_BYTES", rows * step_bytes)
            seen.clear()
            report = run(load_scenario(p, overrides), tmp_path / f"k{rows}")
            assert [n for n, _ in seen] == blocks
            files = [(tmp_path / f"k{rows}" / name).read_bytes() for name in (SNAPSHOT, DIAG)]
            outputs.append((files, report.monitor_peaks, report.summary))
        assert outputs[0] == outputs[1] == outputs[2]
        assert any(value > 0 for value in outputs[0][1].values())

    @pytest.mark.parametrize(
        "kind, text, rows, step_bytes",
        [
            ("maxwell-fields", MAXWELL.replace("8 8 8", "16 16 16"), 1, 6 * 16 * 16 * 9 * 16),
            ("phi", HARMONIC_PHI.replace("points = 64", "points = 256"), 64, 2 * 256 * 8),
        ],
        ids=["maxwell-fields-16^3", "phi-256"],
    )
    def test_buffer_stays_under_the_cap(self, tmp_path, monkeypatch, kind, text, rows, step_bytes):
        seen = _watch_blocks(monkeypatch, kind)
        scn = load_scenario(write(tmp_path, "a.scn", text), ["integrator.steps=70"])
        run(scn, tmp_path / "out")
        assert [n for n, _ in seen] == [rows] * (71 // rows) + [71 % rows] * bool(71 % rows)
        assert max(size for _, size in seen) == rows * step_bytes
        assert rows * step_bytes <= max(stepping._OBSERVED_BLOCK_BYTES, step_bytes)

    def test_failure_mid_block_leaves_no_diagnostics(self, tmp_path, monkeypatch):
        real_drive = wavepotential.drive

        def failing_drive(advance, *args):
            def advance_or_fail(n):
                if n == 5:
                    raise SolverError("injected failure at step 5")
                advance(n)

            return real_drive(advance_or_fail, *args)

        monkeypatch.setattr(wavepotential, "drive", failing_drive)
        seen = _watch_blocks(monkeypatch, "phi")
        text = HARMONIC_PHI.replace("points = 64", "points = 256")  # 64 rows a block
        with pytest.raises(SolverError, match="step 5"):
            run(load_scenario(write(tmp_path, "a.scn", text)), tmp_path / "out")
        assert seen == []  # the block never filled
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("hbar", ["1.0", "0.7"])
    def test_phi_observe_matches_the_formula(self, tmp_path, rng, hbar):
        text = HARMONIC_PHI.replace("points = 64", "points = 16")
        text = text.replace("hbar = 1.0", f"hbar = {hbar}")
        scn = load_scenario(write(tmp_path, "a.scn", text))
        observe = scenario_module.KIND["phi"].setup(scn)[2]
        lphi, vel = rng.standard_normal((2, 5, 16))
        lphi[0], vel[0] = 0.0, -0.0  # an all-zero row: identity_rel divides by its floor
        vel[1] = -0.0
        lphi[2, ::2], vel[2, 1::3] = -0.0, 0.0
        lphi[3, :4] = vel[3, 2:6] = -0.0
        h, vol = scn.params.hbar, scn.grid.cell_volume
        psi = -lphi + 1j * h * vel
        psi_sq = np.abs(psi) ** 2
        energy = 0.5 * h * vel**2 + 0.5 / h * lphi**2
        dens2 = 2.0 * h * energy
        scale = np.maximum(psi_sq.max(axis=1), 1e-300)
        expected = [psi_sq.sum(axis=1) * vol, energy.sum(axis=1) * vol,
                    np.abs(psi_sq - dens2).max(axis=1) / scale]
        got = observe(np.arange(5) * scn.dt, lphi, vel)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]
        assert got[2][0] == 0.0 and got[0][0] == 0.0

    @pytest.mark.parametrize(
        "points, lengths, v",
        [("256", "20.0", "0.5*(x-10)^2"),
         ("16 16", "20.0 20.0", "0.5*(x-10)^2 + 0.5*(y-10)^2")],
        ids=["1d-256", "2d-16x16"],
    )
    def test_modal_phi_rows_are_parseval_sums(self, tmp_path, monkeypatch, points, lengths, v):
        # up to DENSE_L_LIMIT points observe reads L's mode coordinates: its sums match
        # those over the samples, from the frames and from the blocks mapped through Q
        text = HARMONIC_PHI.replace("points = 64", f"points = {points}").replace(
            "lengths = 20.0", f"lengths = {lengths}").replace("v = 0.5*(x-10)^2", f"v = {v}")
        text = text.replace("type = expressions\nphi = cos(2*pi*x/20)\nphi_dot = 0",
                            "type = random\nmodes = 5\namplitude = 0.5")
        scn = load_scenario(write(tmp_path, "a.scn", text), ["integrator.steps=150"])
        assert scn.grid.size <= wavepotential.DENSE_L_LIMIT
        blocks = _keep_blocks(monkeypatch, "phi")
        run(scn, tmp_path / "out")
        lam_a, a_dot = (np.concatenate(arrays) for arrays in zip(*blocks))
        data = read_snapshot(tmp_path / "out" / SNAPSHOT)
        recorded = stepping.frame_steps(scn.steps, scn.snapshot_stride)
        assert len(data.frames) == len(recorded) > 2
        eig = schrodinger.dense_eigensystem(scn.potential, scn.params, scn.backend)
        q, lam = eig.vectors, -eig.energies
        for n, frame in zip(recorded, data.frames):  # the rows are Q^T L phi and Q^T phi_dot
            for got, want in ((lam_a[n], lam * (frame["phi"].ravel() @ q)),
                              (a_dot[n], frame["phi_dot"].ravel() @ q)):
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), n
        rows = _csv_columns(tmp_path / "out" / DIAG)
        h, vol = scn.params.hbar, scn.grid.cell_volume

        def sums(lphi, vel):
            lphi, vel = lphi.reshape(len(lphi), -1), vel.reshape(len(vel), -1)
            return [(lphi**2 + (h * vel) ** 2).sum(axis=1) * vol,
                    (0.5 * h * vel**2 + 0.5 / h * lphi**2).sum(axis=1) * vol]

        mapped = sums(lam_a @ q.T, a_dot @ q.T)
        lop = schrodinger.real_l_operator(scn.grid, scn.potential.sampled.values, scn.params,
                                          scn.backend)
        from_frames = sums(np.stack([lop(f["phi"]) for f in data.frames]),
                           np.stack([f["phi_dot"] for f in data.frames]))
        for name, every_step, at_frames in zip(("psi_norm", "total_energy"), mapped, from_frames):
            column = np.array(rows[name])
            assert np.max(np.abs(column - every_step) / every_step) <= 1e-13, name
            assert np.max(np.abs(column[recorded] - at_frames) / at_frames) <= 1e-13, name
        assert 0 < max(rows["identity_residual"]) <= 1e-15

    def test_sampled_phi_observe_gets_grid_samples(self, tmp_path, monkeypatch):
        # above DENSE_L_LIMIT points observe reads L phi and phi_dot on the grid itself
        text = HARMONIC_PHI.replace("points = 64", "points = 16 32").replace(
            "lengths = 20.0", "lengths = 20.0 20.0")
        scn = load_scenario(write(tmp_path, "a.scn", text), ["integrator.steps=10"])
        assert scn.grid.size > wavepotential.DENSE_L_LIMIT
        blocks = _keep_blocks(monkeypatch, "phi")
        run(scn, tmp_path / "out")
        lphi, vel = (np.concatenate(arrays) for arrays in zip(*blocks))
        assert lphi.shape == vel.shape == (11, 16, 32)
        lop = schrodinger.real_l_operator(scn.grid, scn.potential.sampled.values, scn.params,
                                          scn.backend)
        data = read_snapshot(tmp_path / "out" / SNAPSHOT)
        for n, frame in zip(stepping.frame_steps(scn.steps, scn.snapshot_stride), data.frames):
            assert lphi[n].tobytes() == lop(frame["phi"]).tobytes()
            assert vel[n].tobytes() == frame["phi_dot"].tobytes()

    def test_write_rows_writes_what_write_row_writes(self, tmp_path):
        steps, values = np.arange(3), np.array([0.1, 1e-300, np.inf])
        with DiagnosticsWriter(tmp_path / "rows.csv", ("step", "x", "y")) as out:
            for i in range(3):
                out.write_row([i, values[i], float(values[i]) * 3])
        with DiagnosticsWriter(tmp_path / "block.csv", ("step", "x", "y")) as out:
            out.write_rows([steps, values, list(values * 3)])
            with pytest.raises(ValueError):
                out.write_rows([steps, values, values[:2]])
        assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    def test_non_finite_peak_stays_nan(self, tmp_path):
        monitors = {"x_drift": "x", "y_max": "y"}
        with scenario_module._MonitoredWriter(tmp_path / "d.csv", ("x", "y"), monitors) as out:
            out.write_rows([[1.0, 2.0], [0.5, -np.inf]])
            assert out.peaks == {"x_drift": 1.0, "y_max": pytest.approx(np.nan, nan_ok=True)}
            out.write_row([np.nan, 1.0])
            out.write_row([4.0, 1.0])
        assert np.isnan(out.peaks["x_drift"]) and np.isnan(out.peaks["y_max"])


    def test_first_non_finite_value_is_named(self, tmp_path):
        with scenario_module._MonitoredWriter(tmp_path / "d.csv", ("step", "x", "y"), {}) as out:
            out.write_rows([[0, 1], [1.0, 2.0], [0.5, 1.0]])
            assert out.non_finite is None
            out.write_rows([[2, 3, 4], [1.0, np.inf, np.nan], [np.nan, 1.0, 1.0]])
            out.write_row([5, np.nan, np.nan])
        assert out.non_finite == "y is not finite at step 2"

_SCENARIO_SOURCE = Path(__file__).resolve().parent.parent / "src" / "wavepot" / "scenario.py"


def _kind_name_branches(source: str, kinds: tuple[str, ...]) -> list[str]:
    """Each ==, !=, in, not in, startswith or endswith against a kind-name literal
    outside the ``KIND = {...}`` table."""
    tree = ast.parse(source)
    table = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "KIND" for t in node.targets)
        for inner in ast.walk(node)
    }

    def literals(node) -> list[str]:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return [node.value]
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return [value for elt in node.elts for value in literals(elt)]
        return []

    found = []
    for node in ast.walk(tree):
        if id(node) in table:
            continue
        if isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn)) for op in node.ops
        ):
            operands = [node.left, *node.comparators]
            if any(value in kinds for operand in operands for value in literals(operand)):
                found.append(f"line {node.lineno}: {ast.unparse(node)}")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("startswith", "endswith")
        ):
            affixes = [value for arg in node.args for value in literals(arg)]
            matches = getattr(str, node.func.attr)
            if any(matches(kind, affix) for affix in affixes for kind in kinds):
                found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def test_kind_names_only_in_the_kind_table():
    assert not _kind_name_branches(_SCENARIO_SOURCE.read_text(), KINDS)


def test_kind_name_guard_catches_offenders():
    offenders = [
        'if kind == "phi":\n    pass\n',
        'ok = data.kind != "compare"\n',
        'ok = kind in ("schrodinger", "phi")\n',
        'ok = kind not in ["reconstruct-a"]\n',
        'ok = kind.startswith("maxwell")\n',
        'ok = kind.endswith("-phi")\n',
    ]
    for source in offenders:
        assert len(_kind_name_branches(source, KINDS)) == 1, source
    allowed = (
        'KIND = {"phi": kind == "phi"}\n'
        'ok = "potential" in sections and name.endswith("_drift") and itype == "random"\n'
    )
    assert not _kind_name_branches(allowed, KINDS)


_FORMAT_DOC = Path(__file__).resolve().parent.parent / "docs" / "scenario_format.md"


def _undocumented(doc: str) -> list[str]:
    """Each section, key of the field table, monitor and ``[inputs]`` name that
    ``doc`` does not name: a section as `[section]`, any other name in
    backticks or as the first cell of a table row."""

    def named(name: str) -> bool:
        return re.search(rf"`{re.escape(name)}\b|^\| {re.escape(name)} +\|", doc, re.M) is not None

    missing = [f"[{section}]" for section in scenario_module.FIELDS if f"`[{section}]`" not in doc]
    missing += [
        f"[{section}] {key}"
        for section, fields in scenario_module.FIELDS.items()
        for key in fields
        if key is not None and not named(key)
    ]
    for spec in scenario_module.KIND.values():
        missing += [f"monitor {name}" for name in spec.monitors if not named(name)]
        missing += [f"[inputs] {name}" for name in spec.inputs if not named(name)]
    return list(dict.fromkeys(missing))


def test_every_section_key_monitor_and_input_documented():
    assert _undocumented(_FORMAT_DOC.read_text()) == []


def test_doc_guard_flags_a_mutated_copy():
    doc = _FORMAT_DOC.read_text()
    assert _undocumented(doc.replace("dt_scale", "dt_scal")) == ["[integrator] dt_scale"]
    assert _undocumented(doc.replace("`[sources]`", "sources")) == ["[sources]"]
    assert _undocumented(doc.replace("potential_constraint_residual", "residual")) == [
        "monitor potential_constraint_residual"
    ]
    assert _undocumented(doc.replace("`run_b`", "run b")) == ["[inputs] run_b"]
