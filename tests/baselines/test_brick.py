"""Brick decomposition specifics."""

import numpy as np
import pytest

from repro.baselines.brick import BrickDecomposition, BrickStencil
from repro.errors import BaselineError
from repro.stencils.catalog import get_kernel
from repro.stencils.reference import apply_stencil_reference


class TestDecomposition:
    def test_roundtrip_exact_multiple(self, rng):
        x = rng.random((16, 24))
        deco = BrickDecomposition(x, 8)
        assert deco.grid_bricks == (2, 3)
        np.testing.assert_array_equal(deco.to_array(), x)

    def test_roundtrip_ragged(self, rng):
        x = rng.random((17, 21))
        deco = BrickDecomposition(x, 8)
        assert deco.grid_bricks == (3, 3)
        np.testing.assert_array_equal(deco.to_array(), x)
        assert deco.bricks[(2, 2)].shape == (1, 5)

    def test_roundtrip_3d(self, rng):
        x = rng.random((9, 10, 11))
        np.testing.assert_array_equal(BrickDecomposition(x, 4).to_array(), x)

    def test_invalid_edge(self, rng):
        with pytest.raises(BaselineError):
            BrickDecomposition(rng.random((8, 8)), 0)


class TestBrickStencil:
    def test_ragged_grid_correct(self, rng):
        kernel = get_kernel("box-2d9p")
        x = rng.random((19, 23))
        got = BrickStencil(brick_edge=8).run(x, kernel, steps=1)
        np.testing.assert_allclose(got, apply_stencil_reference(x, kernel), rtol=1e-12)

    def test_custom_brick_edge(self, rng):
        kernel = get_kernel("heat-2d")
        x = rng.random((20, 20))
        for edge in (4, 8, 16):
            got = BrickStencil(brick_edge=edge).run(x, kernel, steps=1)
            np.testing.assert_allclose(
                got, apply_stencil_reference(x, kernel), rtol=1e-12
            )

    def test_radius_exceeding_brick_rejected(self, rng):
        kernel = get_kernel("box-2d49p")
        with pytest.raises(BaselineError, match="radius"):
            BrickStencil(brick_edge=2).run(rng.random((16, 16)), kernel, steps=1)
