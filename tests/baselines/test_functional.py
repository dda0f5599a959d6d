"""Every baseline engine must reproduce the reference numerics."""

import numpy as np
import pytest

from repro.baselines import all_baselines
from repro.errors import BaselineError
from repro.stencils.catalog import get_kernel
from repro.stencils.grid import BoundaryCondition
from repro.stencils.reference import run_reference

SHAPES = {1: (100,), 2: (33, 37), 3: (9, 10, 11)}
#: TCStencil runs in FP16; everything else is FP64-exact.
TOLERANCES = {"tcstencil": 5e-3}


@pytest.fixture(scope="module")
def engines():
    return all_baselines()


def test_registry_contents(engines):
    assert set(engines) == {"amos", "cudnn", "brick", "drstencil", "tcstencil", "direct"}


@pytest.mark.parametrize("steps", [1, 3])
def test_baseline_matches_reference(engines, kernel_name, steps, rng):
    kernel = get_kernel(kernel_name)
    x = rng.random(SHAPES[kernel.ndim])
    expected = run_reference(x, kernel, steps)
    for name, engine in engines.items():
        if not engine.supports(kernel):
            continue
        got = engine.run(x, kernel, steps=steps)
        rtol = TOLERANCES.get(name, 1e-11)
        np.testing.assert_allclose(got, expected, rtol=rtol, atol=rtol, err_msg=name)


@pytest.mark.parametrize("boundary", list(BoundaryCondition))
def test_boundary_conditions_respected(engines, boundary, rng):
    kernel = get_kernel("heat-2d")
    x = rng.random((20, 20))
    expected = run_reference(x, kernel, 2, boundary)
    for name, engine in engines.items():
        got = engine.run(x, kernel, steps=2, boundary=boundary)
        rtol = TOLERANCES.get(name, 1e-11)
        np.testing.assert_allclose(got, expected, rtol=rtol, atol=rtol, err_msg=name)


def test_tcstencil_rejects_3d(engines):
    kernel = get_kernel("heat-3d")
    assert not engines["tcstencil"].supports(kernel)
    with pytest.raises(BaselineError, match="does not support"):
        engines["tcstencil"].run(np.zeros((5, 5, 5)), kernel)


def test_dimension_mismatch(engines, rng):
    with pytest.raises(BaselineError):
        engines["direct"].run(rng.random(10), get_kernel("heat-2d"))


def test_negative_steps(engines, rng):
    with pytest.raises(BaselineError):
        engines["direct"].run(rng.random(10), get_kernel("heat-1d"), steps=-1)


def test_modelled_throughput_hook(engines):
    est = engines["brick"].modelled_throughput("heat-2d")
    assert est is not None and est.gstencils_per_s > 0
    assert engines["tcstencil"].modelled_throughput("heat-3d") is None
