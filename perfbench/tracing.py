"""Spans around calls into each wavepot module, recorded from outside the package.

``Tracer.install`` replaces module functions and methods with wrappers that
append ``(name, start, end, parent)`` to an in-memory list; nothing is written
until the round ends. A span's self time is its duration minus the durations
of its direct children. ``Marks`` is the much lighter hook every round
installs: it only notes when each integrator takes its first step.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path


def _replace(module_attr, wrapper_factory):
    """Swap a function for a wrapper in every wavepot namespace that imported it."""
    owner, name = module_attr
    original = getattr(owner, name)
    wrapped = wrapper_factory(original)
    if isinstance(owner, type):
        setattr(owner, name, wrapped)
        return
    for module in list(sys.modules.values()):
        if module is None or not getattr(module, "__name__", "").startswith("wavepot"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


class Marks:
    """First-step time of each time-stepping run, for set-up and step-rate figures."""

    def __init__(self):
        self.first_step: float | None = None

    def install(self) -> None:
        from wavepot import maxwell, schrodinger, wavepotential

        def note(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if self.first_step is None:
                    self.first_step = time.perf_counter()
                return fn(*args, **kwargs)

            return wrapper

        for target in (
            (wavepotential, "run_verlet"),
            (maxwell, "run_rk4"),
            (maxwell, "run_potential_verlet"),
            (schrodinger, "crank_nicolson_step"),
        ):
            _replace(target, note)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.spans: list = []  # [name index, start, end, parent index]
        self.stack = [-1]
        self.steps: dict[str, int] = {}
        self.solves: list[tuple[str, list[int]]] = []  # (context, [iterations])
        self.bytes = {"written": 0, "read": 0}
        self.in_cayley = 0

    def span(self, name: str, fn, before=None):
        nid = self.ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(spans)
            spans.append(None)
            spans_parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, spans_parent)

        return wrapper

    # -- hooks that count work the wrapped call does --------------------------

    def _stepper(self, name: str, steps_position: int):
        def before(args, kwargs):
            self.steps[name] = self.steps.get(name, 0) + int(args[steps_position])
            if kwargs.get("observer") is not None:
                kwargs = dict(kwargs, observer=self.span("scenario.observer", kwargs["observer"]))
            return args, kwargs

        return before

    def _solver(self, counted_arg: str):
        """Count one iteration per call of the operator (CGLS) or preconditioner (CG)."""

        def before(args, kwargs):
            calls = [0]
            context = "cayley" if self.in_cayley else "elliptic"
            target = kwargs.get("precondition") if counted_arg == "precondition" else args[0]
            if target is None:
                return args, kwargs

            def counting(x):
                calls[0] += 1
                return target(x)

            self.solves.append((context, calls))
            if counted_arg == "precondition":
                kwargs = dict(kwargs, precondition=self.span("operators.precondition", counting))
            else:
                args = (counting,) + tuple(args[1:])
            return args, kwargs

        return before

    def install(self) -> None:
        from wavepot import (
            expressions, linsolve, maxwell, operators, reconstruction, scenario,
            schrodinger, snapshots, wavepotential,
        )

        plain = {
            "operators.laplacian": (operators, "laplacian_array"),
            "operators.first_derivative": (operators, "first_derivative_array"),
            "operators.curl": (operators, "_curl_arrays"),
            "operators.inverse_div_grad": (operators, "inverse_div_grad"),
            "operators.solenoidal_projection": (operators, "solenoidal_projection"),
            "operators.potential_accel": (maxwell, "_potential_accel_arrays"),
            "schrodinger.h_apply": (schrodinger, "hamiltonian_array"),
            "schrodinger.l_apply": (schrodinger, "l_operator_array"),
            "schrodinger.dense_eig": (schrodinger, "dense_eigensystem"),
            "maxwell.source_sample": (maxwell.SourceSpec, "current_at"),
            "maxwell.rho_sample": (maxwell.SourceSpec, "rho_at"),
            "maxwell.continuity_gate": (maxwell.SourceSpec, "validate_continuity"),
            "expressions.sample": (expressions, "sample"),
            "reconstruction.reconstruct_phi": (reconstruction, "reconstruct_phi"),
            "reconstruction.reconstruct_a": (reconstruction, "reconstruct_vector_potential"),
            "reconstruction.elliptic": (reconstruction, "solve_elliptic"),
            "reconstruction.curl_inverse": (reconstruction, "curl_inverse"),
            "snapshots.diag_row": (snapshots.DiagnosticsWriter, "write_row"),
            "scenario.compare": (scenario, "compare"),
            "scenario.run": (scenario, "run"),
        }
        for name, target in plain.items():
            _replace(target, lambda fn, name=name: self.span(name, fn))

        for name, (target, steps_position) in {
            "wavepotential.run_verlet": ((wavepotential, "run_verlet"), 2),
            "maxwell.run_rk4": ((maxwell, "run_rk4"), 3),
            "maxwell.run_potential_verlet": ((maxwell, "run_potential_verlet"), 3),
        }.items():
            _replace(target, lambda fn, name=name, pos=steps_position: self.span(
                name, fn, self._stepper(name, pos)))

        def real_l_factory(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self.span("operators.real_l", fn(*args, **kwargs))

            return wrapper

        _replace((schrodinger, "real_l_operator"), real_l_factory)

        def cayley_factory(fn):
            traced = self.span("schrodinger.cayley_step", fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.in_cayley += 1
                try:
                    return traced(*args, **kwargs)
                finally:
                    self.in_cayley -= 1

            return wrapper

        _replace((schrodinger, "crank_nicolson_step"), cayley_factory)
        _replace((linsolve, "normal_equations_cg"),
                 lambda fn: self.span("linsolve.cgls", fn, self._solver("apply_op")))
        _replace((linsolve, "conjugate_gradient"),
                 lambda fn: self.span("linsolve.cg", fn, self._solver("precondition")))

        def count_written(args, kwargs):
            self.bytes["written"] += sum(8 * a.size for a in args[1])
            return args, kwargs

        _replace((snapshots.SnapshotWriter, "write_frame"),
                 lambda fn: self.span("snapshots.write_frame", fn, count_written))

        def count_read(args, kwargs):
            self.bytes["read"] += os.path.getsize(args[0])
            return args, kwargs

        _replace((snapshots, "read_snapshot"),
                 lambda fn: self.span("snapshots.read", fn, count_read))

    # -- aggregation -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        names = self.names
        n = len(self.spans)
        child = [0.0] * n
        in_cayley = [False] * n
        cayley_id = names.index("schrodinger.cayley_step")
        for i, (nid, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                in_cayley[i] = in_cayley[parent]
            if nid == cayley_id:
                in_cayley[i] = True
        count: dict[str, int] = {}
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        ops_count, ops_self = 0, 0.0
        h_in_cayley, h_self_in_cayley = 0, 0.0
        for i, (nid, start, end, parent) in enumerate(self.spans):
            name = names[nid]
            dur = end - start
            self_time = dur - child[i]
            count[name] = count.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + dur
            own[name] = own.get(name, 0.0) + self_time
            if name.startswith("operators."):
                ops_count += 1
                ops_self += self_time
            if name == "schrodinger.h_apply" and in_cayley[i]:
                h_in_cayley += 1
                h_self_in_cayley += self_time

        def per(value: float, base: float, scale: float = 1.0) -> float:
            return value / base * scale if base else 0.0

        cayley_iters = [c[0] for ctx, c in self.solves if ctx == "cayley"]
        steps = self.steps
        cayley_steps = count.get("schrodinger.cayley_step", 0)
        return {
            "operators.applies": ops_count,
            "operators.self_s": ops_self,
            "operators.us_per_apply": per(ops_self, ops_count, 1e6),
            "wavepotential.steps": steps.get("wavepotential.run_verlet", 0),
            "wavepotential.step_self_us": per(
                own.get("wavepotential.run_verlet", 0.0), steps.get("wavepotential.run_verlet", 0), 1e6
            ),
            "schrodinger.cayley_steps": cayley_steps,
            "schrodinger.h_applies_per_step": per(h_in_cayley, cayley_steps),
            "schrodinger.cayley_self_s": own.get("schrodinger.cayley_step", 0.0) + h_self_in_cayley,
            "schrodinger.dense_eig_calls": count.get("schrodinger.dense_eig", 0),
            "schrodinger.dense_eig_s": total.get("schrodinger.dense_eig", 0.0),
            "linsolve.cayley_iters_mean": per(sum(cayley_iters), len(cayley_iters)),
            "linsolve.cayley_iters_max": max(cayley_iters, default=0),
            "linsolve.elliptic_iters": sum(c[0] for ctx, c in self.solves if ctx == "elliptic"),
            "linsolve.self_s": own.get("linsolve.cgls", 0.0) + own.get("linsolve.cg", 0.0),
            "maxwell.rk4_steps": steps.get("maxwell.run_rk4", 0),
            "maxwell.rk4_step_self_us": per(
                own.get("maxwell.run_rk4", 0.0), steps.get("maxwell.run_rk4", 0), 1e6
            ),
            "maxwell.verlet_steps": steps.get("maxwell.run_potential_verlet", 0),
            "maxwell.verlet_step_self_us": per(
                own.get("maxwell.run_potential_verlet", 0.0),
                steps.get("maxwell.run_potential_verlet", 0),
                1e6,
            ),
            "maxwell.source_samples": count.get("maxwell.source_sample", 0)
            + count.get("maxwell.rho_sample", 0),
            "maxwell.continuity_gate_s": total.get("maxwell.continuity_gate", 0.0),
            "expressions.samples": count.get("expressions.sample", 0),
            "expressions.sample_s": total.get("expressions.sample", 0.0),
            "reconstruction.map_s": total.get("reconstruction.reconstruct_phi", 0.0)
            + total.get("reconstruction.reconstruct_a", 0.0),
            "reconstruction.elliptic_s": total.get("reconstruction.elliptic", 0.0),
            "reconstruction.curl_inverse_s": total.get("reconstruction.curl_inverse", 0.0),
            "snapshots.frames_written": count.get("snapshots.write_frame", 0),
            "snapshots.bytes_written": self.bytes["written"],
            "snapshots.write_s": total.get("snapshots.write_frame", 0.0),
            "snapshots.bytes_read": self.bytes["read"],
            "snapshots.read_s": total.get("snapshots.read", 0.0),
            "snapshots.diag_rows": count.get("snapshots.diag_row", 0),
            "snapshots.diag_s": total.get("snapshots.diag_row", 0.0),
            "scenario.observer_calls": count.get("scenario.observer", 0),
            "scenario.observer_s": total.get("scenario.observer", 0.0),
            "scenario.compare_s": total.get("scenario.compare", 0.0),
            "trace.spans": n,
        }

    def write(self, path: Path) -> None:
        """Spans as JSON: names plus [name index, start s, end s, parent index] rows."""
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [[nid, round(s - origin, 9), round(e - origin, 9), p] for nid, s, e, p in self.spans]
        Path(path).write_text(json.dumps({"names": self.names, "spans": rows}))
