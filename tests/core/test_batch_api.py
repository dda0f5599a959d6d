"""Batched public API."""

import numpy as np
import pytest

from repro.core.api import ConvStencil
from repro.errors import KernelError
from repro.stencils.catalog import get_kernel
from repro.stencils.reference import run_reference


class TestRunBatch:
    def test_matches_per_grid_runs_2d(self, rng):
        kernel = get_kernel("box-2d9p")
        cs = ConvStencil(kernel)
        batch = rng.random((5, 18, 20))
        got = cs.run_batch(batch, steps=3)
        for i in range(5):
            np.testing.assert_allclose(
                got[i], run_reference(batch[i], kernel, 3), rtol=1e-12, atol=1e-13
            )

    def test_fused_batch(self, rng):
        kernel = get_kernel("box-2d9p")
        cs = ConvStencil(kernel, fusion="auto")
        batch = rng.random((3, 24, 24))
        got = cs.run_batch(batch, steps=6, boundary="periodic")
        for i in range(3):
            np.testing.assert_allclose(
                got[i],
                run_reference(batch[i], kernel, 6, "periodic"),
                rtol=1e-11,
            )

    def test_1d_and_3d_fallback(self, rng):
        for name, shape in [("heat-1d", (4, 40)), ("heat-3d", (2, 8, 9, 10))]:
            kernel = get_kernel(name)
            batch = rng.random(shape)
            got = ConvStencil(kernel).run_batch(batch, steps=2)
            for i in range(shape[0]):
                np.testing.assert_allclose(
                    got[i], run_reference(batch[i], kernel, 2), rtol=1e-12
                )

    def test_zero_steps(self, rng):
        batch = rng.random((2, 10, 10))
        out = ConvStencil(get_kernel("heat-2d")).run_batch(batch, steps=0)
        np.testing.assert_array_equal(out, batch)

    def test_shape_validation(self, rng):
        cs = ConvStencil(get_kernel("heat-2d"))
        with pytest.raises(KernelError, match="run_batch"):
            cs.run_batch(rng.random((10, 10)), steps=1)
        with pytest.raises(ValueError):
            cs.run_batch(rng.random((2, 10, 10)), steps=-1)


class TestBatchInputForms:
    """run/run_batch signature unification: Grids, lists, boundary precedence."""

    def test_grid_stack_carries_boundary(self, rng):
        from repro.stencils.grid import Grid

        kernel = get_kernel("heat-2d")
        data = rng.random((3, 16, 16))
        got = ConvStencil(kernel).run_batch(Grid(data, boundary="periodic"), steps=2)
        want = ConvStencil(kernel).run_batch(data, steps=2, boundary="periodic")
        np.testing.assert_array_equal(got, want)

    def test_grid_stack_plus_boundary_keyword_conflicts(self, rng):
        from repro.stencils.grid import Grid

        cs = ConvStencil(get_kernel("heat-2d"))
        g = Grid(rng.random((2, 12, 12)), boundary="periodic")
        with pytest.raises(ValueError, match="boundary"):
            cs.run_batch(g, steps=1, boundary="constant")
        with pytest.raises(ValueError, match="fill_value"):
            cs.run_batch(g, steps=1, fill_value=2.0)

    def test_list_of_grids(self, rng):
        from repro.stencils.grid import Grid

        kernel = get_kernel("heat-2d")
        arrays = [rng.random((14, 15)) for _ in range(3)]
        grids = [Grid(a, boundary="reflect") for a in arrays]
        got = ConvStencil(kernel).run_batch(grids, steps=2)
        want = ConvStencil(kernel).run_batch(np.stack(arrays), steps=2, boundary="reflect")
        np.testing.assert_array_equal(got, want)

    def test_list_of_arrays(self, rng):
        kernel = get_kernel("heat-2d")
        arrays = [rng.random((14, 15)) for _ in range(3)]
        got = ConvStencil(kernel).run_batch(arrays, steps=2)
        want = ConvStencil(kernel).run_batch(np.stack(arrays), steps=2)
        np.testing.assert_array_equal(got, want)

    def test_mixed_boundaries_rejected(self, rng):
        from repro.stencils.grid import Grid

        cs = ConvStencil(get_kernel("heat-2d"))
        grids = [
            Grid(rng.random((12, 12)), boundary="periodic"),
            Grid(rng.random((12, 12)), boundary="constant"),
        ]
        with pytest.raises(ValueError, match="differing boundary"):
            cs.run_batch(grids, steps=1)

    def test_mismatched_shapes_rejected(self, rng):
        cs = ConvStencil(get_kernel("heat-2d"))
        with pytest.raises(KernelError, match="share one shape"):
            cs.run_batch([rng.random((12, 12)), rng.random((12, 13))], steps=1)

    def test_empty_batch_rejected(self):
        with pytest.raises(KernelError, match="empty"):
            ConvStencil(get_kernel("heat-2d")).run_batch([], steps=1)

    def test_grid_stack_wrong_ndim(self, rng):
        from repro.stencils.grid import Grid

        cs = ConvStencil(get_kernel("heat-2d"))
        with pytest.raises(KernelError, match="run_batch"):
            cs.run_batch(Grid(rng.random((12, 12))), steps=1)
