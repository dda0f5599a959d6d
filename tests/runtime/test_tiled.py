"""Tiled backend: thread-pool slabs, tiling thresholds, bit identity with serial."""

import os

import numpy as np
import pytest

from repro.core.api import PinnedStencil
from repro.runtime import SerialBackend, TiledBackend, plan_for
from repro.stencils.catalog import get_kernel
from repro.utils.rng import default_rng


def _run_pair(backend, kernel_name="heat-2d", shape=(40, 41), steps=2):
    kernel = get_kernel(kernel_name)
    x = default_rng(9).random(shape)
    tiled_out = PinnedStencil(kernel, "gemm", backend=backend).run(x, steps=steps)
    serial_out = PinnedStencil(kernel, "gemm", backend="serial").run(x, steps=steps)
    return tiled_out, serial_out


class TestThreadPool:
    def test_thread_fallback_bit_identical(self):
        backend = TiledBackend(workers=2, min_rows_per_tile=2)
        for name, shape in [
            ("1d5p", (600,)),
            ("heat-2d", (40, 41)),
            ("heat-3d", (12, 13, 14)),
        ]:
            got, want = _run_pair(backend, name, shape)
            np.testing.assert_array_equal(got, want)

    def test_thread_batch_paths(self):
        backend = TiledBackend(workers=2, min_rows_per_tile=2)
        for name, shape in [("heat-2d", (3, 20, 20)), ("heat-1d", (3, 80))]:
            kernel = get_kernel(name)
            batch = default_rng(9).random(shape)
            got = PinnedStencil(kernel, "gemm", backend=backend).run_batch(batch, steps=2)
            want = PinnedStencil(kernel, "gemm", backend="serial").run_batch(batch, steps=2)
            np.testing.assert_array_equal(got, want)


class TestTilingPolicy:
    def test_small_grid_runs_serially(self):
        """Below the per-tile row floor the serial path is used untiled."""
        backend = TiledBackend(workers=4, min_rows_per_tile=1000)
        got, want = _run_pair(backend, shape=(30, 30))
        np.testing.assert_array_equal(got, want)

    def test_single_worker_is_serial(self):
        got, want = _run_pair(TiledBackend(workers=1))
        np.testing.assert_array_equal(got, want)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            TiledBackend(workers=0)
        with pytest.raises(ValueError):
            TiledBackend(workers=2, min_rows_per_tile=0)

    def test_default_workers_are_the_usable_cpus(self):
        assert TiledBackend().workers == len(os.sched_getaffinity(0))

    def test_is_a_serial_backend(self):
        """Tiled degrades to the plan-driven serial path, not a fourth engine."""
        assert issubclass(TiledBackend, SerialBackend)

    def test_close_idempotent(self):
        backend = TiledBackend(workers=2, min_rows_per_tile=2)
        _run_pair(backend)
        backend.close()
        backend.close()
        got, want = _run_pair(backend)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("name, extent", [("heat-1d", 1000), ("heat-2d", 101)])
    def test_slabs_cover_the_rows_on_group_boundaries(self, name, extent):
        kernel = get_kernel(name)
        pp = next(plan_for(kernel, (extent,) * kernel.ndim).passes_for(1))
        bounds = TiledBackend(workers=3, min_rows_per_tile=2).bounds(pp, extent)
        assert len(bounds) == 3
        assert bounds[0][0] == 0 and bounds[-1][1] == extent
        assert all(hi == lo for (_, hi), (lo, _) in zip(bounds, bounds[1:]))
        align = kernel.edge + 1 if kernel.ndim == 1 else 1
        assert all(lo % align == 0 for lo, _ in bounds)
