"""Keyword-only API: positional arguments past the input raise ``TypeError``."""

import warnings

import numpy as np
import pytest

from repro import ConvStencil, get_kernel
from repro.baselines.gemm_conv import GemmConvStencil
from repro.solvers.heat import HeatSolver


def _catch():
    ctx = warnings.catch_warnings(record=True)
    caught = ctx.__enter__()
    warnings.simplefilter("always")
    return ctx, caught


class TestConvStencilShims:
    def test_positional_steps_raises_type_error(self, rng):
        cs = ConvStencil(get_kernel("heat-2d"))
        with pytest.raises(TypeError, match="positional"):
            cs.run(rng.random((8, 8)), 3)

    def test_positional_boundary_raises_type_error(self, rng):
        cs = ConvStencil(get_kernel("heat-2d"))
        with pytest.raises(TypeError, match="positional"):
            cs.run(rng.random((8, 8)), 2, "periodic")

    def test_keyword_call_does_not_warn(self, rng):
        cs = ConvStencil(get_kernel("heat-2d"))
        x = rng.random((8, 8))
        ctx, caught = _catch()
        try:
            cs.run(x, steps=2, boundary="periodic")
            cs.run_batch(x[None], steps=2)
        finally:
            ctx.__exit__(None, None, None)
        assert not [w for w in caught if issubclass(w.category, DeprecationWarning)]

    def test_missing_steps_raises_type_error(self, rng):
        cs = ConvStencil(get_kernel("heat-2d"))
        with pytest.raises(TypeError, match="steps"):
            cs.run(rng.random((8, 8)))
        with pytest.raises(TypeError, match="steps"):
            cs.run_batch(rng.random((2, 8, 8)))

    def test_duplicate_steps_raises_type_error(self, rng):
        cs = ConvStencil(get_kernel("heat-2d"))
        with pytest.raises(TypeError, match="positional"):
            cs.run(rng.random((8, 8)), 2, steps=3)

    def test_too_many_positionals_raises_type_error(self, rng):
        cs = ConvStencil(get_kernel("heat-2d"))
        with pytest.raises(TypeError, match="positional"):
            cs.run(rng.random((8, 8)), 2, "periodic", 0.0, "extra")

    def test_run_batch_positional_raises_type_error(self, rng):
        cs = ConvStencil(get_kernel("heat-2d"))
        with pytest.raises(TypeError, match="positional"):
            cs.run_batch(rng.random((3, 8, 8)), 2)


class TestSolverAndBaselineShims:
    def test_heat_solver_positional_raises_type_error(self, rng):
        solver = HeatSolver(ndim=2, r=0.2)
        with pytest.raises(TypeError, match="positional"):
            solver.run(rng.random((10, 10)), 5)

    def test_heat_solver_keyword_does_not_warn(self, rng):
        solver = HeatSolver(ndim=2, r=0.2)
        ctx, caught = _catch()
        try:
            solver.run(rng.random((10, 10)), steps=5, boundary="periodic")
        finally:
            ctx.__exit__(None, None, None)
        assert not [w for w in caught if issubclass(w.category, DeprecationWarning)]

    def test_heat_solver_missing_steps_raises(self, rng):
        with pytest.raises(TypeError, match="steps"):
            HeatSolver(ndim=2, r=0.2).run(rng.random((10, 10)))

    def test_baseline_positional_raises_type_error(self, rng):
        engine = GemmConvStencil()
        with pytest.raises(TypeError, match="positional"):
            engine.run(rng.random((8, 8)), get_kernel("heat-2d"), 3)

    def test_baseline_duplicate_steps_raises_type_error(self, rng):
        engine = GemmConvStencil()
        kernel = get_kernel("heat-2d")
        with pytest.raises(TypeError, match="positional"):
            engine.run(rng.random((8, 8)), kernel, 5, steps=1)
        with pytest.raises(TypeError, match="positional"):
            engine.run(rng.random((8, 8)), kernel, 5, steps=3)

    def test_baseline_default_steps_is_one(self, rng):
        engine = GemmConvStencil()
        kernel = get_kernel("heat-2d")
        x = rng.random((8, 8))
        np.testing.assert_array_equal(
            engine.run(x, kernel), engine.run(x, kernel, steps=1)
        )

    def test_baseline_keyword_does_not_warn(self, rng):
        engine = GemmConvStencil()
        kernel = get_kernel("heat-2d")
        ctx, caught = _catch()
        try:
            engine.run(
                rng.random((8, 8)), kernel, steps=2, boundary="periodic"
            )
        finally:
            ctx.__exit__(None, None, None)
        assert not [w for w in caught if issubclass(w.category, DeprecationWarning)]
