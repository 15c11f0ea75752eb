#!/usr/bin/env python3
"""Electromagnetic twin of the equivalence demo.

Evolves a vacuum plane wave both as (E, B) under RK4 and as a vector
potential under velocity-Verlet, prints their trajectory difference, then
reconstructs the potential from a densely recorded field window.
"""

import argparse
import itertools

import numpy as np

from wavepot.grids import Grid, VectorSampleField3, l2_norm, max_norm
from wavepot.maxwell import (
    EMState,
    PotentialState,
    SourceSpec,
    constraint_residual,
    em_hamiltonians,
    potential_to_fields,
    run_potential_verlet,
    run_rk4,
)
from wavepot.grids import ScalarSampleField
from wavepot.reconstruction import reconstruct_vector_potential


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--points", type=int, default=16)
    args = ap.parse_args()

    grid = Grid.cube(args.points, 2 * np.pi)
    x = np.meshgrid(*[grid.axis_coordinates(a) for a in range(3)], indexing="ij")[0]
    zero = np.zeros_like(x)
    fields = EMState(
        VectorSampleField3(grid, np.stack([zero, np.cos(x), zero])),
        VectorSampleField3(grid, np.stack([zero, zero, np.cos(x)])),
    )
    potential = PotentialState(
        VectorSampleField3(grid, np.stack([zero, np.sin(x), zero])),
        VectorSampleField3(grid, np.stack([zero, -np.cos(x), zero])),
    )
    src = SourceSpec.vacuum()
    period = 2 * np.pi

    f_snaps, p_snaps = {}, {}
    run_rk4(fields, src, period / 600, 600, sink=f_snaps.__setitem__, snapshot_stride=60)
    run_potential_verlet(
        potential, src, period / 6000, 6000, sink=p_snaps.__setitem__, snapshot_stride=600
    )
    ref = l2_norm(fields.e)
    j0 = src.current_at(0.0, grid)
    h0 = em_hamiltonians(fields, j0)[1]
    print(f"vacuum plane wave on {args.points}^3, one period")
    print(f"{'time':>8} {'|fields - mapped potential|':>28} {'H-prime drift':>16} {'div B':>12}")
    for n, (fs, ps) in enumerate(zip(f_snaps.values(), p_snaps.values())):
        mapped = potential_to_fields(ps)
        diff = max(l2_norm(mapped.e - fs.e), l2_norm(mapped.b - fs.b)) / ref
        drift = abs(em_hamiltonians(fs, j0)[1] - h0) / h0
        div_b = constraint_residual(fs, ScalarSampleField.zeros(grid))[1]
        print(f"{n * period / 10:8.4f} {diff:28.3e} {drift:16.3e} {div_b:12.3e}")

    steps = 341
    dt = 0.15 / steps
    record = {}
    run_rk4(fields, src, dt, steps, sink=record.__setitem__)
    snaps = list(record.values())
    pstates = reconstruct_vector_potential([n * dt for n in record], snaps)
    # every 85th frame, mapped back to fields beside its recorded original
    checked = [
        (potential_to_fields(ps), fr)
        for ps, fr in itertools.islice(zip(pstates, snaps), 0, None, 85)
    ]
    worst = max(
        max(l2_norm(mapped.e - fr.e), l2_norm(mapped.b - fr.b)) / ref for mapped, fr in checked
    )
    mapped0, fr0 = checked[0]
    print(f"\npotential reconstructed from a {steps}-step field window")
    print(f"round-trip field error: {worst:.3e}")
    print(f"residual of curl A(0) vs B(0): {max_norm(mapped0.b - fr0.b):.3e}")


if __name__ == "__main__":
    main()
