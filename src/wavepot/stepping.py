"""The one stepping loop and the one Verlet scheme behind every integrator.

``run_verlet``, ``propagate_cn``, ``run_rk4`` and ``run_potential_verlet``
pass their dt through ``check_dt`` and hand ``drive`` an ``advance(n, k, rows)``
that moves the state from step n to step n + k (in place on raw arrays where
the scheme allows) and writes the observed arrays of those steps into the
observer's block rows. The Cayley step, RK4, A-Verlet and phi-Verlet on samples
write their scheme once, as one step, and reach that contract through
``stepwise``, the only per-step loop; both Verlet runs take their step from
``verlet``. Modal phi-Verlet advances a block of steps by the transfer matrices
of that same step (``wavepotential``). All four take ``steps`` and the keywords
``sink``, ``snapshot_stride``, ``method`` and ``observer``, and return the
final state, so ``steps=1`` is a single step. Frames reach the sink as soon as
they exist; no run holds more than one. The observer sees each step's observed
arrays a block of steps at a time, in blocks of at most
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

__all__ = ["check_dt", "frame_steps", "drive", "stepwise", "verlet", "one_blas_thread"]

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
    advance: Callable[[int, int, list | None], None],
    box: Callable[[], State],
    observed: Callable[[], tuple],
    initial: State,
    steps: int,
    snapshot_stride: int,
    sink: Callable[[int, State], None] | None,
    observer: Callable[..., None] | None,
) -> State:
    """Move the state from step 0 to ``steps`` a block of steps per ``advance`` call
    and return the final state.

    ``advance(n, k, rows)`` moves the state from step n to step n + k, k >= 1. With
    an observer, ``rows`` holds one array per observed array, each of k rows, and
    ``advance`` writes the observed arrays of step n + j + 1 into row j of each;
    without one, ``rows`` is None and k runs to the next step that is boxed. A
    scheme written as one step at a time reaches this contract through
    ``stepwise``.

    ``sink(n, state)`` runs at each of ``frame_steps(steps, snapshot_stride)``:
    with ``initial`` itself at step 0, and with ``box()`` at the others, which
    runs once per recorded step and only when there is a sink or the step is
    the last one, whose state is returned (``initial`` when ``steps`` is 0).
    ``box`` must return arrays that later steps leave alone: a copy, or arrays
    no step writes into.

    ``observed()`` gives the observed arrays of step 0, and with them the shape
    and dtype of every step's. The steps' arrays go into one block each, the
    steps on a new leading axis. A block holds at most ``_OBSERVED_BLOCK_BYTES``
    (one step if a step is larger) and at most ``steps + 1`` steps.
    ``observer(ns, *blocks)`` runs when the blocks are full and after the last
    step, with ``ns`` the block's step numbers, so it sees every step once and
    in order, though possibly after the sink of that step; the next block is
    written into the same arrays. The observed arrays are the integrator's
    working state, so that a diagnostics row costs no transform of it: L phi and
    phi_dot for phi-Verlet, as samples or, on the normal modes of L, as mode
    coordinates (modal phi-Verlet scales the a rows of its block by Lambda
    first); Psi samples for the Cayley step; and for both Maxwell integrators
    the half spectrum of the state. Either callback may be None.
    """
    _keep_freed_heap()
    filled = 0  # rows of the blocks in use, for the steps up to the current one
    if observer is not None:
        arrays = observed()
        rows = min(max(1, _OBSERVED_BLOCK_BYTES // sum(a.nbytes for a in arrays)), steps + 1)
        blocks = [np.empty((rows, *a.shape), a.dtype) for a in arrays]

    def watched(n: int, k: int) -> None:
        """The blocks hold k more steps, up to step n; hand them over when full."""
        nonlocal filled
        filled += k
        if filled == rows or n == steps:
            observer(np.arange(n - filled + 1, n + 1), *(block[:filled] for block in blocks))
            filled = 0

    if observer is not None:
        for block, a in zip(blocks, arrays):
            block[0] = a
        watched(0, 1)
    if sink is not None:
        sink(0, initial)
    state, n = initial, 0
    # without a sink only the last step is boxed, so no recorded step splits a block
    for target in frame_steps(steps, snapshot_stride if sink is not None else max(steps, 1))[1:]:
        while n < target:
            if observer is None:
                k = target - n
                advance(n, k, None)
            else:
                k = min(target - n, rows - filled)
                advance(n, k, [block[filled : filled + k] for block in blocks])
            n += k
            if observer is not None:
                watched(n, k)
        state = box()
        if sink is not None:
            sink(n, state)
    return state


def stepwise(step: Callable[[int], None], observed: Callable[[], tuple]) -> Callable:
    """The block ``advance`` of ``drive`` for a scheme written one step at a time:
    ``step(m)`` moves the state from step m-1 to m, and the arrays ``observed()``
    gives after it go into the step's rows. The only per-step loop of a run."""

    def advance(n: int, k: int, rows: list | None) -> None:
        for j in range(k):
            step(n + j + 1)
            if rows is not None:
                for block, a in zip(rows, observed()):
                    block[j] = a

    return advance


def verlet(x: np.ndarray, v: np.ndarray, dt: float, kick: Callable) -> Callable[[int], None]:
    """The one-step ``step(n)`` of kick-drift-kick velocity-Verlet for ``stepwise``,
    stepping ``x`` and ``v`` in place: v += half, x += v dt, kick(n, x, half),
    v += half. ``kick(n, x, out)`` writes dt/2 times the acceleration at step n into
    ``out``. The step-0 kick runs here, so what it fills is ready before ``drive``
    observes step 0. The scheme is linear in (x, v) when the kick is, so its steps
    from unit states are its transfer matrices."""
    half, drift = np.empty_like(v), np.empty_like(x)
    full_dt = np.array(dt)  # 0-d: a ufunc converts a float operand on every call
    kick(0, x, half)

    def advance(n: int) -> None:
        nonlocal x, v
        v += half
        x += np.multiply(v, full_dt, out=drift)
        kick(n, x, half)
        v += half

    return advance
