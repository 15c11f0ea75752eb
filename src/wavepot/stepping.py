"""The one time-stepping loop behind every integrator.

``run_verlet``, ``propagate_cn``, ``run_rk4`` and ``run_potential_verlet``
pass their dt through ``check_dt`` and write their scheme once, as an
``advance(n)`` that moves the state from step n-1 to step n (in place on raw
arrays where the scheme allows), for ``drive``. All four take ``steps`` and
the keywords ``sink``, ``snapshot_stride``, ``method`` and ``observer``, and
return the final state, so ``steps=1`` is a single step. Frames reach the sink
as soon as they exist; no run holds more than one. Under glibc the first
``drive`` of a process keeps freed heap for reuse, so steps do not fault their
temporaries in again.
"""

from __future__ import annotations

import ctypes
import math
import os
from functools import cache
from typing import Callable, TypeVar

from .errors import StabilityError

__all__ = ["check_dt", "frame_steps", "drive"]

State = TypeVar("State")

# glibc gives the free top of its heap back to the system once more than its trim
# threshold (128 KiB by default) is free there, and serves blocks above its mmap
# threshold (128 KiB) from fresh mappings. An RK4 or A-Verlet step on a 16^3 grid
# allocates and frees a dozen or more arrays of 100-220 KB (samples and spectra of
# three or six components), so at those defaults each step faults them in again:
# on the benchmark's driven plane wave, about 690 minor faults a step in the RK4
# fields run and about 80 in the A-Verlet potential run. (Importing scipy hides
# part of it: freeing one large mapping makes glibc raise both thresholds on its
# own, to where the RK4 run takes about 400 a step.) With the two thresholds
# below, a first run takes under 11 faults a step and a repeated run about 0.1.
# They bound the memory kept for reuse, not the memory a run may use.
_TRIM_THRESHOLD = 64 << 20
_MMAP_THRESHOLD = 32 << 20
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameters in glibc's malloc.h


def frame_steps(steps: int, snapshot_stride: int) -> list[int]:
    """Recorded steps: 0, every multiple of ``snapshot_stride``, and ``steps``."""
    recorded = list(range(0, steps + 1, snapshot_stride))
    if recorded[-1] != steps:
        recorded.append(steps)
    return recorded


def check_dt(dt: float, budget: float = math.inf, scheme: str = "", note: str = "") -> None:
    """Refuse a dt that is not a positive finite number, NaN included (ValueError), or
    that exceeds the scheme's stability ``budget`` by over 1e-12 of it (StabilityError)."""
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be a positive finite number, got {dt:g}")
    if dt > budget * (1.0 + 1e-12):
        raise StabilityError(f"dt={dt:g} exceeds the {scheme} budget {budget:g}{note}")


@cache
def _keep_freed_heap() -> None:
    """Set the two heap thresholds above, once per process and only under glibc."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return
    if not (libc or "").startswith("glibc"):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)


def drive(
    advance: Callable[[int], None],
    box: Callable[[], State],
    observed: Callable[[], tuple],
    steps: int,
    snapshot_stride: int,
    sink: Callable[[int, State], None] | None,
    observer: Callable[..., None] | None,
) -> State:
    """Call ``advance(n)`` for n = 1..steps and return the boxed final state.

    ``observer(n, *observed())`` runs after every step and once for n = 0;
    ``sink(n, box())`` runs at each of ``frame_steps(steps, snapshot_stride)``,
    after the observer of that step. Either may be None. ``box`` must return
    arrays that later steps leave alone: a copy, or arrays no step writes into.
    The observed arrays are the integrator's working state, which the next
    step overwrites: samples for the quantum integrators (L phi and phi_dot,
    or Psi), and for both Maxwell integrators the half spectrum of the state
    itself, so that a diagnostics row costs no transform of the state.
    """
    _keep_freed_heap()
    if observer is not None:
        observer(0, *observed())
    n = 0
    for target in frame_steps(steps, snapshot_stride):
        while n < target:
            n += 1
            advance(n)
            if observer is not None:
                observer(n, *observed())
        if sink is not None:
            sink(n, box())
    return box()
