"""Public ConvStencil API semantics."""

import numpy as np
import pytest

from repro.core.api import ConvStencil, convstencil_valid
from repro.errors import KernelError
from repro.stencils.catalog import get_kernel
from repro.stencils.grid import BoundaryCondition, Grid, pad_halo
from repro.stencils.reference import apply_stencil_reference, run_reference


class TestRun:
    def test_zero_steps_identity(self, rng):
        x = rng.random((12, 12))
        out = ConvStencil(get_kernel("heat-2d")).run(x, steps=0)
        np.testing.assert_array_equal(out, x)

    def test_negative_steps(self, rng):
        with pytest.raises(ValueError):
            ConvStencil(get_kernel("heat-2d")).run(rng.random((8, 8)), steps=-1)

    def test_multi_step_matches_reference(self, kernel_name, rng):
        kernel = get_kernel(kernel_name)
        shape = {1: (64,), 2: (20, 22), 3: (9, 10, 11)}[kernel.ndim]
        x = rng.random(shape)
        got = ConvStencil(kernel).run(x, steps=3)
        np.testing.assert_allclose(got, run_reference(x, kernel, 3), rtol=1e-12)

    def test_grid_metadata_overrides(self, rng):
        kernel = get_kernel("heat-1d")
        g = Grid(rng.random(40), boundary="periodic")
        got = ConvStencil(kernel).run(g, steps=2)
        expect = run_reference(g.data, kernel, 2, BoundaryCondition.PERIODIC)
        np.testing.assert_allclose(got, expect, rtol=1e-12)

    def test_string_boundary_on_raw_array(self, rng):
        kernel = get_kernel("heat-1d")
        x = rng.random(40)
        got = ConvStencil(kernel).run(x, steps=1, boundary="reflect")
        expect = apply_stencil_reference(x, kernel, BoundaryCondition.REFLECT)
        np.testing.assert_allclose(got, expect, rtol=1e-12)

    def test_dim_mismatch(self, rng):
        with pytest.raises(KernelError):
            ConvStencil(get_kernel("heat-2d")).run(rng.random(16), steps=1)

    def test_fill_value_constant_boundary(self, rng):
        kernel = get_kernel("heat-2d")
        x = rng.random((10, 10))
        a = ConvStencil(kernel).run(x, steps=1, fill_value=0.0)
        b = ConvStencil(kernel).run(x, steps=1, fill_value=3.0)
        assert a[0, 0] != b[0, 0]
        np.testing.assert_allclose(a[2:-2, 2:-2], b[2:-2, 2:-2])


class TestProperties:
    def test_fused_kernel_exposed(self):
        cs = ConvStencil(get_kernel("box-2d9p"), fusion="auto")
        assert cs.fusion_depth == 3
        assert cs.fused_kernel.edge == 7

    def test_default_is_unfused(self):
        cs = ConvStencil(get_kernel("box-2d9p"))
        assert cs.fusion_depth == 1

    def test_apply_valid(self, rng):
        kernel = get_kernel("heat-2d")
        cs = ConvStencil(kernel)
        x = rng.random((14, 14))
        padded = pad_halo(x, kernel.radius)
        np.testing.assert_allclose(
            cs.apply_valid(padded), apply_stencil_reference(x, kernel), rtol=1e-12
        )

    def test_convstencil_valid_dispatch(self, rng):
        for name, shape in [("heat-1d", (20,)), ("heat-2d", (9, 9)), ("heat-3d", (5, 5, 5))]:
            kernel = get_kernel(name)
            padded = rng.random(shape)
            out = convstencil_valid(padded, kernel)
            assert out.shape == tuple(s - kernel.edge + 1 for s in shape)

    def test_linearity(self, rng):
        # stencils are linear operators: f(a*x + y) == a*f(x) + f(y)
        kernel = get_kernel("box-2d9p")
        cs = ConvStencil(kernel)
        x, y = rng.random((2, 12, 12))
        lhs = cs.run(2.5 * x + y, steps=1)
        rhs = 2.5 * cs.run(x, steps=1) + cs.run(y, steps=1)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


class TestBoundaryPrecedence:
    """Explicit boundary keywords alongside a Grid are a contradiction."""

    def test_run_grid_plus_boundary_raises(self, rng):
        cs = ConvStencil(get_kernel("heat-1d"))
        g = Grid(rng.random(40), boundary="periodic")
        with pytest.raises(ValueError, match="boundary"):
            cs.run(g, steps=1, boundary="constant")

    def test_run_grid_plus_fill_value_raises(self, rng):
        cs = ConvStencil(get_kernel("heat-1d"))
        g = Grid(rng.random(40))
        with pytest.raises(ValueError, match="fill_value"):
            cs.run(g, steps=1, fill_value=1.0)

    def test_raw_array_keywords_still_work(self, rng):
        kernel = get_kernel("heat-1d")
        x = rng.random(40)
        got = ConvStencil(kernel).run(x, steps=2, boundary="periodic")
        want = ConvStencil(kernel).run(Grid(x, boundary="periodic"), steps=2)
        np.testing.assert_array_equal(got, want)
