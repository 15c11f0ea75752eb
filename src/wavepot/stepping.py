"""The one time-stepping loop behind every integrator.

``run_verlet``, ``propagate_cn``, ``run_rk4`` and ``run_potential_verlet``
each write their scheme once, as an ``advance(n)`` that moves the state from
step n-1 to step n (in place on raw arrays where the scheme allows), and hand
it to ``drive``. All four take ``steps`` and the keywords ``sink``,
``snapshot_stride``, ``method`` and ``observer``, and return the final state,
so ``steps=1`` is a single step. Frames reach the sink as soon as they exist;
no run holds more than one.
"""

from __future__ import annotations

from typing import Callable, TypeVar

__all__ = ["frame_steps", "drive"]

State = TypeVar("State")


def frame_steps(steps: int, snapshot_stride: int) -> list[int]:
    """Recorded steps: 0, every multiple of ``snapshot_stride``, and ``steps``."""
    recorded = list(range(0, steps + 1, snapshot_stride))
    if recorded[-1] != steps:
        recorded.append(steps)
    return recorded


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
    a copy that later steps leave alone.
    """
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
