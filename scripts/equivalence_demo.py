#!/usr/bin/env python3
"""Quick demonstration of the quantum-side equivalence, both directions.

Forward: evolve the real wave potential with velocity-Verlet and compare its
generated wave function against the dense reference propagator. Reverse:
record a Crank-Nicolson packet run, rebuild the potential from it, and map
back. Runs in a few seconds at the default resolution.
"""

import argparse
import itertools

import numpy as np

from wavepot.grids import ComplexSampleField, Grid, l2_norm
from wavepot.reconstruction import reconstruct_phi
from wavepot.schrodinger import (
    PotentialSpec,
    QuantumParams,
    WaveFunction,
    dense_eigensystem,
    eigenpairs_small,
    exact_propagate_small,
    propagate_cn,
)
from wavepot.wavepotential import run_verlet, stable_dt, stationary_phi, to_wavefunction


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--points", type=int, default=128)
    ap.add_argument("--length", type=float, default=20.0)
    ap.add_argument("--periods", type=float, default=1.0)
    args = ap.parse_args()

    params = QuantumParams(1.0, 1.0)
    grid = Grid.line(args.points, args.length)
    V = PotentialSpec.from_expression(
        "0.5*(x-c0)^2", grid, {"c0": args.length / 2}
    )
    eig = dense_eigensystem(V, params)
    e0, psi0 = eigenpairs_small(V, params, 1, eig=eig)[0]

    print(f"harmonic background on [0, {args.length}) with {args.points} points")
    print(f"ground level E0 = {e0:.12f}\n")

    state0 = stationary_phi(psi0, e0, 0.0, params, V)
    psi_init = to_wavefunction(state0)
    dt = 0.1 * stable_dt(V, params)
    total = args.periods * 2 * np.pi * params.hbar / e0
    steps = int(round(total / dt))
    print(f"forward map: {steps} Verlet steps at dt = {dt:.3e}")
    print(f"{'time':>10} {'L2 vs reference':>18}")

    def report(n, snap):
        mapped = to_wavefunction(snap).psi
        ref = exact_propagate_small(psi_init, V, n * dt, eig=eig).psi
        err = l2_norm(ComplexSampleField(grid, mapped.values - ref.values))
        print(f"{n * dt:10.4f} {err:18.3e}")

    run_verlet(state0, dt, steps, sink=report, snapshot_stride=max(1, steps // 8))

    x = grid.axis_coordinates(0)
    packet = np.exp(-((x - 0.6 * args.length) ** 2) / 2).astype(complex)
    packet /= np.sqrt(np.sum(np.abs(packet) ** 2) * grid.cell_volume)
    psi = WaveFunction(ComplexSampleField(grid, packet), params)
    cn_dt, cn_steps = 1e-3, 2000
    record = {}
    propagate_cn(psi, V, cn_dt, cn_steps, sink=record.__setitem__)
    psis = [wave.psi for wave in record.values()]
    states = reconstruct_phi([n * cn_dt for n in record], psis, V, params)
    worst = max(
        l2_norm(ComplexSampleField(grid, to_wavefunction(s).psi.values - f.values))
        for s, f in itertools.islice(zip(states, psis), 0, None, 200)
    )
    print(f"\nreverse map: {cn_steps} Crank-Nicolson steps recorded, potential rebuilt")
    print(f"sup round-trip L2 error: {worst:.3e}")


if __name__ == "__main__":
    main()
