#!/usr/bin/env python3
"""Measure the convergence orders of the three integrators.

Crank-Nicolson and velocity-Verlet should come out at order 2, RK4 at
order 4, each against an exact reference (dense propagator for the quantum
side, the analytic plane wave for Maxwell).
"""

import numpy as np

from wavepot.grids import ComplexSampleField, Grid, VectorSampleField3, l2_norm
from wavepot.maxwell import EMState, SourceSpec, run_rk4
from wavepot.schrodinger import (
    PotentialSpec,
    QuantumParams,
    WaveFunction,
    dense_eigensystem,
    exact_propagate_small,
    propagate_cn,
)
from wavepot.wavepotential import run_verlet, stationary_phi, to_wavefunction


def fit_order(dts, errs) -> float:
    return float(np.polyfit(np.log(dts), np.log(errs), 1)[0])


def main() -> None:
    params = QuantumParams(1.0, 1.0)
    grid = Grid.line(128, 20.0)
    V = PotentialSpec.from_expression("0.5*(x-10)^2", grid)
    eig = dense_eigensystem(V, params)
    x = grid.axis_coordinates(0)

    packet = np.exp(-((x - 12.0) ** 2) / 2).astype(complex)
    psi = WaveFunction(ComplexSampleField(grid, packet), params)
    t_final = 0.5
    ref = exact_propagate_small(psi, V, t_final, eig=eig)
    dts, errs = [], []
    for steps in (60, 120, 240, 480):
        state = propagate_cn(psi, V, t_final / steps, steps, sink=None)
        dts.append(t_final / steps)
        errs.append(l2_norm(ComplexSampleField(grid, state.psi.values - ref.psi.values)))
    print(f"Crank-Nicolson order: {fit_order(dts, errs):.3f} (expected 2)")

    e1, psi1 = float(eig.energies[1]), eig.eigenfield(1)
    state0 = stationary_phi(psi1, e1, 0.0, params, V)
    psi_init = to_wavefunction(state0)
    ref = exact_propagate_small(psi_init, V, t_final, eig=eig)
    dts, errs = [], []
    for steps in (500, 1000, 2000):
        mapped = to_wavefunction(run_verlet(state0, t_final / steps, steps, sink=None)).psi
        dts.append(t_final / steps)
        errs.append(l2_norm(ComplexSampleField(grid, mapped.values - ref.psi.values)))
    print(f"velocity-Verlet order: {fit_order(dts, errs):.3f} (expected 2)")

    cube = Grid.cube(16, 2 * np.pi)
    xx = np.meshgrid(*[cube.axis_coordinates(a) for a in range(3)], indexing="ij")[0]
    zero = np.zeros_like(xx)
    state = EMState(
        VectorSampleField3(cube, np.stack([zero, np.cos(xx), zero])),
        VectorSampleField3(cube, np.stack([zero, zero, np.cos(xx)])),
    )
    src = SourceSpec.vacuum()
    period = 2 * np.pi
    dts, errs = [], []
    for steps in (80, 160, 320):
        final = run_rk4(state, src, period / steps, steps, sink=None)
        dts.append(period / steps)
        errs.append(max(l2_norm(final.e - state.e), l2_norm(final.b - state.b)))
    print(f"RK4 order: {fit_order(dts, errs):.3f} (expected 4)")


if __name__ == "__main__":
    main()
