"""Grid container and halo-padding semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GridError
from repro.stencils.grid import (
    BoundaryCondition,
    Grid,
    pad_halo,
    pad_halo_batch,
    refresh_halo,
)


class TestPadHalo:
    def test_constant_fill(self):
        out = pad_halo(np.ones((2, 2)), 1, BoundaryCondition.CONSTANT, 7.0)
        assert out.shape == (4, 4)
        assert out[0, 0] == 7.0
        assert out[1, 1] == 1.0

    def test_periodic_wraps(self):
        x = np.arange(4.0)
        out = pad_halo(x, 1, BoundaryCondition.PERIODIC)
        np.testing.assert_array_equal(out, [3, 0, 1, 2, 3, 0])

    def test_reflect_mirrors(self):
        x = np.arange(4.0)
        out = pad_halo(x, 2, BoundaryCondition.REFLECT)
        np.testing.assert_array_equal(out, [1, 0, 0, 1, 2, 3, 3, 2])

    def test_zero_halo_noop(self):
        x = np.arange(4.0)
        np.testing.assert_array_equal(pad_halo(x, 0), x)

    def test_negative_halo_rejected(self):
        with pytest.raises(GridError, match="non-negative"):
            pad_halo(np.ones(3), -1)

    def test_periodic_halo_wider_than_grid_rejected(self):
        with pytest.raises(GridError, match="periodic halo"):
            pad_halo(np.ones(3), 5, BoundaryCondition.PERIODIC)

    def test_string_boundary_accepted(self):
        out = pad_halo(np.ones(3), 1, "periodic")
        assert out.shape == (5,)


class TestGrid:
    def test_basic_properties(self):
        g = Grid(np.zeros((4, 5)))
        assert g.ndim == 2
        assert g.shape == (4, 5)
        assert g.boundary is BoundaryCondition.CONSTANT

    def test_string_boundary_coerced(self):
        g = Grid(np.zeros(4), boundary="periodic")
        assert g.boundary is BoundaryCondition.PERIODIC

    def test_rejects_4d(self):
        with pytest.raises(GridError):
            Grid(np.zeros((2, 2, 2, 2)))

    def test_rejects_empty_extent(self):
        with pytest.raises(GridError):
            Grid(np.zeros((0, 3)))

    def test_padded_uses_fill_value(self):
        g = Grid(np.ones((3, 3)), fill_value=5.0)
        assert g.padded(1)[0, 0] == 5.0

    def test_with_data_preserves_metadata(self):
        g = Grid(np.zeros(4), boundary="reflect", fill_value=2.0)
        h = g.with_data(np.ones(6))
        assert h.boundary is BoundaryCondition.REFLECT
        assert h.fill_value == 2.0
        assert h.shape == (6,)

    def test_random_is_deterministic(self):
        a = Grid.random((5, 5), seed=42).data
        b = Grid.random((5, 5), seed=42).data
        np.testing.assert_array_equal(a, b)

    def test_data_cast_to_float64(self):
        g = Grid(np.ones((3, 3), dtype=np.float32))
        assert g.data.dtype == np.float64


def _per_grid_pad(stack, halo, boundary, fill=0.0):
    """The ``numpy.pad`` bits, one grid at a time."""
    return np.stack([pad_halo(g, halo, boundary, fill) for g in stack])


class TestRefreshHalo:
    """An in-place halo refresh must equal a fresh pad bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        ndim=st.integers(1, 3),
        halo=st.integers(1, 3),
        boundary=st.sampled_from(list(BoundaryCondition)),
        many=st.booleans(),
        data=st.data(),
    )
    def test_equals_pad_halo(self, ndim, halo, boundary, many, data):
        # Periodic halos must fit the extent; reflect may exceed it.
        low = halo if boundary is BoundaryCondition.PERIODIC else 1
        shape = tuple(data.draw(st.lists(st.integers(low, 6), min_size=ndim, max_size=ndim)))
        # One grid is a batch of one.
        shape = (data.draw(st.integers(1, 3)) if many else 1,) + shape
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x = rng.standard_normal(shape)
        want = _per_grid_pad(x, halo, boundary, 0.75)
        # The halo holds junk from an earlier pass; the interior holds x.
        buf = rng.standard_normal(want.shape)
        buf[(slice(None),) + (slice(halo, -halo),) * ndim] = x
        assert refresh_halo(buf, halo, boundary, 0.75) is buf
        assert buf.tobytes() == want.tobytes()

    @pytest.mark.parametrize("many", [False, True])
    def test_periodic_halo_wider_than_extent_raises(self, many):
        buf = np.zeros((2 if many else 1, 7, 12))
        with pytest.raises(GridError, match="periodic halo 3 exceeds"):
            refresh_halo(buf, 3, BoundaryCondition.PERIODIC)

    def test_rejects_negative_halo(self):
        with pytest.raises(GridError):
            refresh_halo(np.zeros((1, 4)), -1)


class TestPadIntoBuffer:
    """``pad_halo_batch``, the runtime's halo-buffer fill, must give the
    bits of ``numpy.pad`` per grid, for one grid (a batch of one) and
    for several."""

    CASES = [
        (BoundaryCondition.CONSTANT, 2, -3.25),  # nonzero fill
        (BoundaryCondition.PERIODIC, 2, 0.0),
        (BoundaryCondition.REFLECT, 2, 0.0),  # halo <= extent
        (BoundaryCondition.REFLECT, 5, 0.0),  # halo > extent
    ]

    @pytest.mark.parametrize("boundary, halo, fill", CASES)
    @pytest.mark.parametrize("shape", [(4,), (4, 3), (3, 4, 2)])
    @pytest.mark.parametrize("many", [False, True])
    def test_equals_numpy_pad(self, boundary, halo, fill, shape, many):
        if boundary is BoundaryCondition.PERIODIC:
            shape = tuple(max(n, halo) for n in shape)
        shape = (3 if many else 1,) + shape
        x = np.random.default_rng(7).standard_normal(shape)
        want = _per_grid_pad(x, halo, boundary, fill)
        out = np.full(want.shape, np.nan)
        assert pad_halo_batch(x, halo, boundary, fill, out=out) is out
        assert out.tobytes() == want.tobytes()
        assert not np.shares_memory(out, x)

    @pytest.mark.parametrize("many", [False, True])
    def test_periodic_halo_wider_than_grid_raises(self, many):
        x = np.ones((2 if many else 1, 3, 3))
        out = np.empty(x.shape[:1] + (11, 11))
        with pytest.raises(GridError, match="periodic halo 4 exceeds"):
            pad_halo_batch(x, 4, BoundaryCondition.PERIODIC, out=out)

    def test_zero_halo_copies_into_the_buffer(self):
        x = np.arange(6.0).reshape(1, 2, 3)
        out = np.empty_like(x)
        assert pad_halo_batch(x, 0, out=out) is out
        np.testing.assert_array_equal(out, x)

    def test_wrong_buffer_shape_rejected(self):
        with pytest.raises(GridError, match="halo buffer has shape"):
            pad_halo_batch(np.ones((1, 3, 3)), 1, out=np.empty((1, 4, 4)))
