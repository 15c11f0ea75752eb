"""The one time-stepping loop behind every integrator.

``run_verlet``, ``propagate_cn``, ``run_rk4`` and ``run_potential_verlet``
pass their dt through ``check_dt`` and write their scheme once, as an
``advance(n)`` that moves the state from step n-1 to step n (in place on raw
arrays where the scheme allows), for ``drive``. All four take ``steps`` and
the keywords ``sink``, ``snapshot_stride``, ``method`` and ``observer``, and
return the final state, so ``steps=1`` is a single step. Frames reach the sink
as soon as they exist; no run holds more than one. The observer sees each
step's observed arrays a block of steps at a time, in blocks of at most
``_OBSERVED_BLOCK_BYTES``. Under glibc the first ``drive`` of a process keeps
freed heap for reuse, so steps do not fault their temporaries in again.
``one_blas_thread`` runs the dense eigensolves, whose bytes depend on
OpenBLAS's thread count, on one thread.
"""

from __future__ import annotations

import ctypes
import math
import os
from contextlib import contextmanager
from functools import cache
from typing import Callable, TypeVar

import numpy as np

from .errors import StabilityError

__all__ = ["check_dt", "frame_steps", "drive", "one_blas_thread"]

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
# OpenBLAS's thread-count entry points, (set, get), under the names its builds
# export: plain, with the 64-bit-integer suffix, and with the prefix of the
# scipy-openblas libraries that numpy's wheels load.
_OPENBLAS_THREADS = [
    (f"{prefix}openblas_set_num_threads{suffix}", f"{prefix}openblas_get_num_threads{suffix}")
    for prefix in ("scipy_", "")
    for suffix in ("64_", "")
]
# The byte cap of the blocks in which ``drive`` hands observed steps to the
# observer. On small grids a step's diagnostics cost more in per-call overhead
# than in arithmetic, and a block pays that overhead once. The cap bounds the
# memory the blocks add to a run; 256 KiB gives 64 steps a block on a
# 256-point phi grid and one on a 16^3 Maxwell grid.
_OBSERVED_BLOCK_BYTES = 256 * 1024


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


@cache
def _openblas_thread_controls() -> tuple:
    """The (set, get) thread-count functions of each OpenBLAS the process has
    loaded, found in ``/proc/self/maps`` by their symbols; () where that file
    cannot be read or no library exports them. Cached: numpy, and with it its
    BLAS, is loaded before any caller runs."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "blas" in line.lower()})
    except OSError:
        return ()
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_THREADS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                set_threads, get_threads = getattr(lib, set_name), getattr(lib, get_name)
                set_threads.argtypes, set_threads.restype = (ctypes.c_int,), None
                get_threads.argtypes, get_threads.restype = (), ctypes.c_int
                controls.append((set_threads, get_threads))
                break
    return tuple(controls)


@contextmanager
def one_blas_thread():
    """Run the block with every loaded OpenBLAS on one thread, then restore
    each one's thread count. LAPACK's dense eigensolvers return other bytes
    on other thread counts, so the eigensolves a run's output depends on run
    inside this, whatever ``OPENBLAS_NUM_THREADS`` says. Where no OpenBLAS is
    found it does nothing."""
    controls = _openblas_thread_controls()
    previous = [get_threads() for _, get_threads in controls]
    for set_threads, _ in controls:
        set_threads(1)
    try:
        yield
    finally:
        for (set_threads, _), count in zip(controls, previous):
            set_threads(count)


def drive(
    advance: Callable[[int], None],
    box: Callable[[], State],
    observed: Callable[[], tuple],
    initial: State,
    steps: int,
    snapshot_stride: int,
    sink: Callable[[int, State], None] | None,
    observer: Callable[..., None] | None,
) -> State:
    """Call ``advance(n)`` for n = 1..steps and return the final state.

    ``sink(n, state)`` runs at each of ``frame_steps(steps, snapshot_stride)``:
    with ``initial`` itself at step 0, and with ``box()`` at the others, which
    runs once per recorded step and only when there is a sink or the step is
    the last one, whose state is returned (``initial`` when ``steps`` is 0).
    ``box`` must return arrays that later steps leave alone: a copy, or arrays
    no step writes into.

    ``observed()`` is read for step 0 and after every step, and its arrays are
    copied into one block each, the steps on a new leading axis. A block holds
    at most ``_OBSERVED_BLOCK_BYTES`` (one step if a step is larger) and at
    most ``steps + 1`` steps. ``observer(ns, *blocks)`` runs when the blocks are
    full and after the last step, with ``ns`` the block's step numbers, so it
    sees every step once and in order, though possibly after the sink of that
    step; the next block is written into the same arrays. The observed arrays
    are the integrator's working state, so that a diagnostics row costs no
    transform of it: L phi and phi_dot for phi-Verlet, as samples or, on the
    normal modes of L, as mode coordinates (modal phi-Verlet scales the a rows
    of its block by Lambda first); Psi samples for the Cayley step; and for
    both Maxwell integrators the half spectrum of the state. Either callback
    may be None.
    """
    _keep_freed_heap()
    if observer is not None:
        arrays = observed()
        rows = min(max(1, _OBSERVED_BLOCK_BYTES // sum(a.nbytes for a in arrays)), steps + 1)
        blocks = [np.empty((rows, *a.shape), a.dtype) for a in arrays]

    def watch(n: int) -> None:
        k = n % rows  # steps arrive as 0, 1, ..., steps
        for block, a in zip(blocks, observed()):
            block[k] = a
        if k == rows - 1 or n == steps:
            observer(np.arange(n - k, n + 1), *(block[: k + 1] for block in blocks))

    if observer is not None:
        watch(0)
    if sink is not None:
        sink(0, initial)
    state, n = initial, 0
    for target in frame_steps(steps, snapshot_stride)[1:]:
        while n < target:
            n += 1
            advance(n)
            if observer is not None:
                watch(n)
        if sink is not None or n == steps:
            state = box()
            if sink is not None:
                sink(n, state)
    return state
