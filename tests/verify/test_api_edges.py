"""Edge-of-domain API semantics the differential generator exercises.

Pinned here as named tests so the contracts survive independently of the
randomized sweep: empty batches, zero-step loops, and minimum-legal
shapes must behave identically on every backend.  The rule's plans hand
no pass to a backend, so the per-backend cases pin ``gemm``.
"""

import numpy as np
import pytest

from repro.core.api import ConvStencil, PinnedStencil
from repro.errors import KernelError, ReproError
from repro.stencils.catalog import get_kernel
from repro.stencils.grid import Grid
from repro.utils.rng import default_rng

BACKENDS = ["serial", "reference", "tiled"]


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


class TestEmptyBatch:
    def test_shaped_empty_array_is_a_noop(self, backend):
        cs = PinnedStencil(get_kernel("heat-2d"), "gemm", backend=backend)
        out = cs.run_batch(np.empty((0, 16, 16)), steps=3)
        assert out.shape == (0, 16, 16)
        assert out.dtype == np.float64

    def test_grid_refuses_zero_extents(self):
        # A Grid models a simulation domain, and zero-extent domains stay
        # invalid there — the shaped-empty no-op is the raw-array batch
        # spelling only.
        from repro.errors import GridError

        with pytest.raises(GridError, match="positive"):
            Grid(np.empty((0, 16, 16)))

    def test_empty_list_raises_clearly(self, backend):
        cs = PinnedStencil(get_kernel("heat-2d"), "gemm", backend=backend)
        with pytest.raises(KernelError, match="empty list"):
            cs.run_batch([], steps=3)
        # The guidance names the fix.
        with pytest.raises(ReproError, match="np.empty"):
            cs.run_batch([], steps=3)

    def test_empty_batch_zero_steps(self, backend):
        cs = PinnedStencil(get_kernel("heat-1d"), "gemm", backend=backend)
        out = cs.run_batch(np.empty((0, 64)), steps=0)
        assert out.shape == (0, 64)
        assert out.dtype == np.float64


class TestZeroSteps:
    def test_run_returns_float64_copy(self, backend):
        x = default_rng(0).random((20, 20))
        cs = PinnedStencil(get_kernel("heat-2d"), "gemm", backend=backend)
        out = cs.run(x, steps=0)
        np.testing.assert_array_equal(out, x)
        assert out.dtype == np.float64
        assert out is not x
        out[0, 0] = 99.0  # mutating the result must not touch the input
        assert x[0, 0] != 99.0

    def test_run_integer_input_converts(self, backend):
        x = np.arange(12).reshape(3, 4)
        cs = PinnedStencil(get_kernel("heat-2d"), "gemm", backend=backend)
        out = cs.run(x, steps=0)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, x.astype(np.float64))

    def test_run_batch_zero_steps_copies(self, backend):
        stack = default_rng(1).random((3, 18, 18))
        cs = PinnedStencil(get_kernel("heat-2d"), "gemm", backend=backend)
        out = cs.run_batch(stack, steps=0)
        np.testing.assert_array_equal(out, stack)
        assert out is not stack
        assert not np.shares_memory(out, stack)

    def test_negative_steps_rejected(self, backend):
        cs = PinnedStencil(get_kernel("heat-2d"), "gemm", backend=backend)
        with pytest.raises(ValueError, match="non-negative"):
            cs.run(np.zeros((8, 8)), steps=-1)


class TestMinimumLegalShapes:
    @pytest.mark.parametrize("extent", [1, 2, 3])
    def test_tiny_grids_match_across_backends(self, extent):
        kernel = get_kernel("heat-2d")
        x = default_rng(extent).random((extent, extent + 1))
        outs = [
            PinnedStencil(kernel, "gemm", backend=b).run(x, steps=2) for b in BACKENDS
        ]
        for other in outs[1:]:
            np.testing.assert_array_equal(outs[0], other)

    def test_single_cell_grid(self):
        kernel = get_kernel("heat-2d")
        out = ConvStencil(kernel).run(np.array([[3.0]]), steps=4)
        assert out.shape == (1, 1)

    def test_batch_of_one(self, backend):
        kernel = get_kernel("heat-1d")
        stack = default_rng(5).random((1, 33))
        single = PinnedStencil(kernel, "gemm", backend=backend).run(stack[0], steps=2)
        batched = PinnedStencil(kernel, "gemm", backend=backend).run_batch(stack, steps=2)
        np.testing.assert_array_equal(batched[0], single)


class TestDefaultBackendFallback:
    def test_explicit_unknown_backend_still_raises(self):
        from repro.runtime import get_backend

        with pytest.raises(ReproError, match="unknown backend"):
            get_backend("warp-drive")
