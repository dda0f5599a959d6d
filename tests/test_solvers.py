"""PDE solvers built on ConvStencil."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.solvers import HeatSolver, JacobiPoisson, LeapfrogWave


class TestJacobiPoisson:
    def test_solves_manufactured_problem(self):
        """∇²u = f with u* = x² + y² (so f = 4) and exact boundary data:
        Jacobi must recover u* to the iteration tolerance."""
        n = 24
        yy, xx = np.mgrid[0:n, 0:n].astype(float)
        exact = xx**2 + yy**2
        f = np.full((n, n), 4.0)
        solver = JacobiPoisson(tol=1e-5, max_iterations=20_000)
        result = solver.solve(f, boundary_values=exact)
        assert result.converged
        err = np.abs(result.solution - exact).max()
        assert err < 1e-2

    def test_residual_decreases(self):
        rng = np.random.default_rng(0)
        f = rng.standard_normal((20, 20))
        solver = JacobiPoisson(tol=1e-12, max_iterations=300)
        result = solver.solve(f)
        hist = result.residual_history
        assert hist[-1] < hist[0]

    def test_zero_rhs_zero_boundary_gives_zero(self):
        solver = JacobiPoisson(tol=1e-10, max_iterations=100)
        result = solver.solve(np.zeros((10, 10)))
        assert result.converged
        np.testing.assert_allclose(result.solution, 0.0, atol=1e-10)

    def test_boundary_held_fixed(self):
        n = 12
        bvals = np.zeros((n, n))
        bvals[0, :] = 7.0
        solver = JacobiPoisson(tol=1e-8, max_iterations=200)
        result = solver.solve(np.zeros((n, n)), boundary_values=bvals)
        np.testing.assert_array_equal(result.solution[0, :], 7.0)

    def test_laplace_maximum_principle(self):
        """With f = 0, the solution is bounded by its boundary data."""
        n = 16
        rng = np.random.default_rng(1)
        bvals = np.zeros((n, n))
        bvals[0, :] = rng.random(n)
        bvals[-1, :] = rng.random(n)
        bvals[:, 0] = rng.random(n)
        bvals[:, -1] = rng.random(n)
        result = JacobiPoisson(tol=1e-8, max_iterations=20_000).solve(
            np.zeros((n, n)), boundary_values=bvals
        )
        assert result.converged
        assert result.solution.max() <= bvals.max() + 1e-6
        assert result.solution.min() >= bvals.min() - 1e-6

    def test_validation(self):
        with pytest.raises(ReproError):
            JacobiPoisson(tol=0.0)
        with pytest.raises(ReproError):
            JacobiPoisson(max_iterations=0)
        with pytest.raises(ReproError):
            JacobiPoisson().solve(np.zeros(5))
        with pytest.raises(ReproError):
            JacobiPoisson().solve(np.zeros((8, 8)), boundary_values=np.zeros((4, 4)))


class TestLeapfrogWave:
    def _pulse(self, n=48):
        yy, xx = np.mgrid[0:n, 0:n].astype(float)
        return np.exp(-((xx - n / 2) ** 2 + (yy - n / 2) ** 2) / 16.0)

    def test_stable_run_bounded_energy(self):
        wave = LeapfrogWave(courant=0.5)
        wave.initialize(self._pulse())
        e0 = None
        for _ in range(6):
            wave.step(10)
            e = wave.energy()
            if e0 is None:
                e0 = e
            assert np.isfinite(e)
            assert e < 10 * e0  # bounded, no blow-up

    def test_cfl_guard(self):
        with pytest.raises(ReproError, match="CFL"):
            LeapfrogWave(courant=0.9)
        with pytest.raises(ReproError, match="CFL"):
            LeapfrogWave(courant=0.7, spatial_order=4)

    def test_matches_manual_recursion(self):
        from repro.stencils.applications import get_application_kernel
        from repro.stencils.reference import apply_stencil_reference

        wave = LeapfrogWave(courant=0.4)
        u0 = self._pulse(24)
        wave.initialize(u0)
        got = wave.step(3)
        # manual three-level recursion with the same operator; the Taylor
        # start (zero velocity) is u^{-1} = u0 + (c2/2) lap(u0)
        kernel = get_application_kernel("laplace-2d-5p")
        c2 = 0.4**2
        prev = u0 + 0.5 * c2 * apply_stencil_reference(u0, kernel)
        curr = u0
        for _ in range(3):
            nxt = 2 * curr - prev + c2 * apply_stencil_reference(curr, kernel)
            prev, curr = curr, nxt
        np.testing.assert_allclose(got, curr, rtol=1e-12, atol=1e-12)

    def test_fourth_order_operator_runs(self):
        wave = LeapfrogWave(courant=0.4, spatial_order=4)
        wave.initialize(self._pulse(32))
        out = wave.step(10)
        assert np.all(np.isfinite(out))

    def test_requires_initialize(self):
        with pytest.raises(ReproError, match="initialize"):
            LeapfrogWave().step()

    def test_initial_velocity_shifts_solution(self):
        u0 = self._pulse(20)
        still = LeapfrogWave(courant=0.3)
        still.initialize(u0)
        moving = LeapfrogWave(courant=0.3)
        moving.initialize(u0, velocity=np.full_like(u0, 0.01))
        assert not np.allclose(still.step(1), moving.step(1))


class TestHeatSolver:
    def test_stability_guard(self):
        with pytest.raises(ReproError, match="unstable"):
            HeatSolver(ndim=2, r=0.3)
        with pytest.raises(ReproError, match="unstable"):
            HeatSolver(ndim=3, r=0.2)
        HeatSolver(ndim=1, r=0.5)  # boundary value is allowed

    def test_diffusion_smooths(self):
        solver = HeatSolver(ndim=2, r=0.2)
        field = np.zeros((24, 24))
        field[12, 12] = 1.0
        out = solver.run(field, steps=30, boundary="periodic")
        assert out.var() < field.var()
        assert np.isclose(out.sum(), 1.0)

    def test_matches_reference_kernel(self):
        from repro.stencils.reference import run_reference

        solver = HeatSolver(ndim=1, r=0.25, fusion=1)
        x = np.random.default_rng(3).random(50)
        np.testing.assert_allclose(
            solver.run(x, steps=4), run_reference(x, solver.kernel, 4), rtol=1e-12
        )

    def test_fusion_active(self):
        assert HeatSolver(ndim=2, r=0.2).fusion_depth == 3

    def test_dim_check(self):
        with pytest.raises(ReproError):
            HeatSolver(ndim=2).run(np.zeros(10), steps=1)
