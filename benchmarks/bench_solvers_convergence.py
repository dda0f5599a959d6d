"""Application-layer benches: PDE solvers and operator convergence.

Beyond the paper's microbenchmarks: what a downstream scientific user
experiences — Jacobi/multigrid Poisson solves, wave stepping, and the
order-of-accuracy verification of the application operators.
"""

import numpy as np
import pytest

from _common import emit, emit_json
from repro.analysis.convergence import convergence_study, convergence_table
from repro.solvers import HeatSolver, JacobiPoisson, LeapfrogWave, MultigridPoisson
from repro.utils.rng import default_rng


def test_bench_jacobi_sweeps(benchmark):
    f = default_rng(0).standard_normal((65, 65))
    solver = JacobiPoisson(tol=1e-300, max_iterations=25)  # run all 25 sweeps

    def sweep25():
        return solver.solve(f).iterations

    assert benchmark(sweep25) == 25


def test_bench_multigrid_vcycle(benchmark):
    f = default_rng(0).standard_normal((129, 129))
    mg = MultigridPoisson()
    u = np.zeros_like(f)
    out = benchmark(mg.v_cycle, u, f)
    assert np.all(np.isfinite(out))


def test_bench_multigrid_full_solve(benchmark):
    f = default_rng(1).standard_normal((65, 65))

    def solve():
        return MultigridPoisson(tol=1e-6).solve(f)

    result = benchmark.pedantic(solve, rounds=3, iterations=1)
    assert result.converged


def test_bench_wave_steps(benchmark):
    wave = LeapfrogWave(courant=0.5)
    n = 128
    yy, xx = np.mgrid[0:n, 0:n].astype(float)
    wave.initialize(np.exp(-((xx - 64) ** 2 + (yy - 64) ** 2) / 32.0))
    out = benchmark(wave.step, 5)
    assert np.all(np.isfinite(out))


def test_bench_heat_fused_steps(benchmark):
    solver = HeatSolver(ndim=2, r=0.2)
    field = default_rng(2).random((256, 256))
    out = benchmark(solver.run, field, steps=3, boundary="periodic")
    assert np.all(np.isfinite(out))


def test_bench_emit_convergence(benchmark):
    rows = benchmark.pedantic(
        convergence_study, kwargs={"coarse_sizes": (32, 64)}, rounds=1, iterations=1
    )
    emit("convergence", convergence_table((32, 64)))
    emit_json("convergence", rows)
    assert all(abs(r.observed - r.formal_order) < 0.2 for r in rows)
