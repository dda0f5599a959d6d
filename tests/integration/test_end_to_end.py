"""End-to-end integration: physics sanity, cross-engine agreement, and the
full simulated pipeline against the public API."""

import numpy as np
import pytest

from repro import BoundaryCondition, ConvStencil, Grid, get_kernel, run_reference
from repro.baselines import all_baselines
from repro.core.simulated import run_simulated
from repro.stencils.grid import pad_halo


class TestHeatPhysics:
    def test_2d_heat_diffusion_smooths_and_converges(self):
        """A hot spot diffuses: variance decreases monotonically and the
        grid approaches the mean under periodic boundaries."""
        kernel = get_kernel("heat-2d")
        grid = np.zeros((32, 32))
        grid[16, 16] = 100.0
        cs = ConvStencil(kernel)
        prev_var = grid.var()
        state = grid
        for _ in range(10):
            state = cs.run(state, steps=5, boundary="periodic")
            assert state.var() < prev_var
            prev_var = state.var()
        assert np.isclose(state.sum(), 100.0, rtol=1e-9)  # mass conserved

    def test_1d_heat_maximum_principle(self):
        """Diffusion never exceeds the initial extrema (constant halo at 0)."""
        kernel = get_kernel("heat-1d")
        x = np.zeros(100)
        x[40:60] = 1.0
        out = ConvStencil(kernel).run(x, steps=50)
        assert out.max() <= 1.0 + 1e-12
        assert out.min() >= -1e-12


class TestCrossEngineAgreement:
    """ConvStencil, every baseline, and the simulated pipeline must agree."""

    def test_all_engines_agree_multistep(self, rng):
        kernel = get_kernel("box-2d9p")
        x = rng.random((26, 30))
        reference = run_reference(x, kernel, 4)
        conv = ConvStencil(kernel).run(x, steps=4)
        np.testing.assert_allclose(conv, reference, rtol=1e-12)
        for name, engine in all_baselines().items():
            if not engine.supports(kernel):
                continue
            got = engine.run(x, kernel, steps=4)
            tol = 2e-2 if name == "tcstencil" else 1e-10
            np.testing.assert_allclose(got, reference, rtol=tol, atol=tol, err_msg=name)

    def test_simulated_pipeline_equals_api(self, rng, kernel_name):
        kernel = get_kernel(kernel_name)
        shape = {1: (70,), 2: (18, 20), 3: (7, 8, 9)}[kernel.ndim]
        x = rng.random(shape)
        padded = pad_halo(x, kernel.radius)
        sim_out = run_simulated(padded, kernel).output
        api_out = ConvStencil(kernel).run(x, steps=1)
        np.testing.assert_allclose(sim_out, api_out, rtol=1e-12, atol=1e-13)


class TestGridWorkflow:
    def test_grid_roundtrip_with_fusion(self, rng):
        kernel = get_kernel("box-2d9p")
        grid = Grid(rng.random((24, 24)), boundary=BoundaryCondition.PERIODIC)
        fast = ConvStencil(kernel, fusion="auto").run(grid, steps=9)
        slow = run_reference(grid.data, kernel, 9, BoundaryCondition.PERIODIC)
        np.testing.assert_allclose(fast, slow, rtol=1e-11)

    def test_long_time_loop_stability(self, rng):
        kernel = get_kernel("heat-2d")
        grid = rng.random((16, 16))
        out = ConvStencil(kernel, fusion="auto").run(grid, steps=100, boundary="periodic")
        assert np.all(np.isfinite(out))
        assert out.min() >= grid.min() - 1e-9
        assert out.max() <= grid.max() + 1e-9
