"""The banded-Toeplitz pass: accuracy, column tails, layouts and batch bits.

Its GEMM shapes are a pure function of the pass, so its bits must not
depend on where its operands live (a fresh array or a halo buffer), on
how many grids share a batch, or on which run entry point calls it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.api import PinnedStencil
from repro.core.toeplitz import BAND, band_matrices, toeplitz_valid
from repro.errors import TessellationError
from repro.runtime import execute, execute_batch, get_backend, plan_for
from repro.runtime.plan import build_plan
from repro.stencils.catalog import get_kernel
from repro.stencils.grid import pad_halo
from repro.stencils.kernel import StencilKernel
from repro.stencils.reference import apply_stencil_reference, run_reference
from repro.utils.rng import default_rng
from repro.verify.differential import DEFAULT_TIGHT_ULP, max_ulp

CASES = [
    ("heat-1d", (301,)),
    ("box-2d9p", (37, 41)),
    ("box-2d25p", (23, 50)),
    ("box-2d49p", (19, 33)),
    ("star-2d13p", (21, 40)),
    ("heat-3d", (9, 8, 35)),
    ("box-3d27p", (7, 10, 18)),
    # Stars: a row band and a column band.  Neither extent a multiple of
    # BAND, then fewer rows than BAND.
    ("star-2d9p", (37, 19)),
    ("star-2d13p", (9, 40)),
]

STARS = ["heat-2d", "star-2d9p", "star-2d13p"]


def _signed(shape, seed):
    """Inputs of both signs, where reassociation would show."""
    return default_rng(seed).random(shape) - 0.5


class TestAccuracy:
    @pytest.mark.parametrize("name, shape", CASES)
    @pytest.mark.parametrize("fusion", [1, 2])
    def test_within_the_mirror_budget_of_the_reference(self, name, shape, fusion):
        kernel = get_kernel(name)
        x = _signed(shape, 1)
        out = PinnedStencil(kernel, "toeplitz", fusion=fusion).run(x, steps=2, boundary="periodic")
        want = run_reference(x, kernel, 2, "periodic")
        assert max_ulp(out, want) <= DEFAULT_TIGHT_ULP

    @pytest.mark.parametrize("name, shape", CASES)
    def test_one_pass_matches_the_reference_step(self, name, shape):
        kernel = get_kernel(name)
        x = _signed(shape, 2)
        got = toeplitz_valid(pad_halo(x, kernel.radius)[None], kernel)[0]
        assert got.shape == x.shape
        assert max_ulp(got, apply_stencil_reference(x, kernel)) <= DEFAULT_TIGHT_ULP

    def test_zero_rows_are_skipped_and_an_all_zero_kernel_gives_zeros(self):
        heat = get_kernel("heat-3d")
        assert len(band_matrices(heat)) == 5  # of 9 (dz, dx) rows
        zero = StencilKernel(name="zero", weights=np.zeros((3, 3)), shape_kind="custom")
        assert band_matrices(zero) == {}
        out = toeplitz_valid(np.ones((1, 6, 7)), zero)
        assert out.shape == (1, 4, 5) and not out.any()


class TestStars:
    """A 2-D star is one band per axis: the centre row's, as for any
    kernel, and the centre column's without its centre point."""

    @pytest.mark.parametrize("name", STARS)
    def test_one_band_per_axis(self, name):
        kernel = get_kernel(name)
        k, r = kernel.edge, kernel.radius
        bands = band_matrices(kernel)
        assert list(bands) == [(r,), (..., r)]
        row, col = bands[(r,)], bands[(..., r)]
        assert row.shape == (BAND + k - 1, BAND) and col.shape == (BAND, BAND + k - 1)
        arm = kernel.weights[:, r].copy()
        arm[r] = 0.0
        for b in range(BAND):
            assert np.array_equal(row[b : b + k, b], kernel.weights[r])
            assert np.array_equal(col[b, b : b + k], arm)
        assert np.count_nonzero(row) + np.count_nonzero(col) == BAND * kernel.points

    def test_other_kernels_keep_their_row_bands(self):
        """Off-axis weights, or a single nonzero row, keep one band per row."""
        for name in ("box-2d9p", "box-2d25p"):
            assert len(band_matrices(get_kernel(name))) == get_kernel(name).edge
        fused = get_kernel("star-2d9p").fuse(2)  # fills its box
        assert all(offset[:1] != (...,) for offset in band_matrices(fused))
        row = np.zeros((5, 5))
        row[2] = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert list(band_matrices(StencilKernel(name="row", weights=row))) == [(2,)]

    def test_a_column_alone_is_one_column_band(self):
        weights = np.zeros((5, 5))
        weights[:, 2] = [1.0, -2.0, 0.0, 3.0, 0.5]
        kernel = StencilKernel(name="column", weights=weights)
        assert list(band_matrices(kernel)) == [(..., 2)]
        x = _signed((21, 18), 9)
        got = toeplitz_valid(pad_halo(x, 2)[None], kernel)[0]
        assert max_ulp(got, apply_stencil_reference(x, kernel)) <= DEFAULT_TIGHT_ULP

    @pytest.mark.parametrize("boundary", ["reflect", "periodic"])
    @pytest.mark.parametrize("shape", [(37, 41), (BAND, 2 * BAND), (5, 23), (BAND + 1, 3)])
    @pytest.mark.parametrize("name", STARS)
    def test_within_the_budget_of_the_reference(self, name, shape, boundary):
        """Whole row blocks plus a tail, whole blocks only, fewer rows
        than BAND, and a tail of one row."""
        kernel = get_kernel(name)
        x = _signed(shape, 10)
        out = PinnedStencil(kernel, "toeplitz").run(x, steps=3, boundary=boundary)
        assert max_ulp(out, run_reference(x, kernel, 3, boundary)) <= DEFAULT_TIGHT_ULP


class TestColumnTails:
    @pytest.mark.parametrize("tail", [0, 1, BAND - 1])
    @pytest.mark.parametrize("blocks", [0, 1, 3])
    @pytest.mark.parametrize("name", ["heat-1d", "box-2d25p", "box-3d27p", "star-2d13p"])
    def test_tails_and_narrow_grids(self, name, blocks, tail):
        """Whole blocks plus a tail of 0, 1 or BAND-1 columns, and grids
        narrower than one block."""
        if blocks == tail == 0:
            pytest.skip("no columns")
        kernel = get_kernel(name)
        width = blocks * BAND + tail
        shape = (5, 4, width)[3 - kernel.ndim:]
        x = _signed(shape, width)
        got = toeplitz_valid(pad_halo(x, kernel.radius)[None], kernel)[0]
        assert max_ulp(got, apply_stencil_reference(x, kernel)) <= DEFAULT_TIGHT_ULP


class TestLayouts:
    @pytest.mark.parametrize("name, shape", CASES)
    def test_strided_out_and_input_keep_the_bits(self, name, shape):
        """``out`` in a halo-buffer interior, and an input read in place
        from a wider buffer, give the bits of fresh contiguous arrays;
        the buffer around ``out`` is left alone."""
        kernel = get_kernel(name)
        padded = pad_halo(_signed(shape, 3), kernel.radius)[None]
        want = toeplitz_valid(padded, kernel)
        buf = np.full((1,) + tuple(s + 4 for s in shape), np.nan)
        interior = buf[(slice(None),) + (slice(2, -2),) * kernel.ndim]
        assert toeplitz_valid(padded, kernel, out=interior) is interior
        assert interior.tobytes() == want.tobytes()
        assert np.isnan(buf).sum() == buf.size - want.size
        wide = np.zeros((1,) + tuple(s + 6 for s in padded.shape[1:]))
        inner = wide[(slice(None),) + (slice(3, -3),) * kernel.ndim]
        inner[...] = padded
        assert toeplitz_valid(inner, kernel).tobytes() == want.tobytes()

    def test_rejects_wrong_rank_size_and_out(self):
        kernel = get_kernel("box-2d9p")
        with pytest.raises(TessellationError):
            toeplitz_valid(np.zeros((1, 9)), kernel)
        with pytest.raises(TessellationError):
            toeplitz_valid(np.zeros((1, 2, 9)), kernel)
        with pytest.raises(TessellationError):
            toeplitz_valid(np.zeros((1, 6, 9)), kernel, out=np.zeros((1, 4, 6)))

    def test_empty_batch(self):
        out = toeplitz_valid(np.zeros((0, 6, 7)), get_kernel("box-2d9p"))
        assert out.shape == (0, 4, 5)


class TestBatchBits:
    @pytest.mark.parametrize("name, shape", CASES)
    def test_per_grid_bits_ignore_batch_extent_and_slicing(self, name, shape):
        kernel = get_kernel(name)
        bands = band_matrices(kernel)
        stack = np.stack([pad_halo(g, kernel.radius) for g in _signed((5,) + shape, 4)])
        whole = toeplitz_valid(stack, kernel, bands=bands)
        for i in range(len(stack)):
            one = toeplitz_valid(stack[i : i + 1], kernel, bands=bands)
            assert one.tobytes() == whole[i].tobytes()
        for lo, hi in ((0, 1), (1, 3), (2, 5)):
            part = toeplitz_valid(stack[lo:hi], kernel, bands=bands)
            assert part.tobytes() == whole[lo:hi].tobytes()

    @pytest.mark.parametrize("name, shape", CASES)
    def test_run_batch_equals_run(self, name, shape):
        kernel = get_kernel(name)
        cs = PinnedStencil(kernel, "toeplitz", fusion=2)
        grids = _signed((3,) + shape, 5)
        batch = cs.run_batch(grids, steps=3, boundary="reflect")
        for grid, got in zip(grids, batch):
            assert got.tobytes() == cs.run(grid, steps=3, boundary="reflect").tobytes()

    @pytest.mark.strategy_rule
    def test_the_rule_plan_runs_it(self):
        """With the rule, box-2d25p and star-2d13p run ``toeplitz`` and
        their plans carry the bands ``band_matrices`` builds; a run and a
        batch agree."""
        for name in ("box-2d25p", "star-2d13p"):
            kernel = get_kernel(name)
            pp = build_plan(kernel, (20, 30)).fused_pass
            assert pp.strategy == "toeplitz"
            assert pp.bands is band_matrices(kernel)
            plan = build_plan(kernel, (20, 30))
            x = _signed((2, 20, 30), 6)
            assert np.array_equal(
                execute_batch(plan, x, steps=2)[1], execute(plan, x[1], steps=2)
            )

    def test_plans_of_one_kernel_share_read_only_bands(self):
        """The bands are memoised per kernel: two plans (other shapes,
        other boundaries) hold the same arrays, which nobody can write."""
        kernel = get_kernel("star-2d9p")
        one = build_plan(kernel, (20, 30), strategy="toeplitz").fused_pass.bands
        two = build_plan(kernel, (41, 17), "periodic", strategy="toeplitz").fused_pass.bands
        assert one is two
        assert all(a is b for a, b in zip(one.values(), two.values()))
        assert not any(band.flags.writeable for band in one.values())
        with pytest.raises(TypeError):
            one[(0,)] = np.zeros((1, 1))


def test_a_handed_pass_runs_as_gemm():
    """A benchmark sweep may hand a toeplitz pass to a backend: it builds
    the GEMM tables on first use and gives the gemm pass's bits."""
    kernel = get_kernel("box-2d49p")
    pp = plan_for(kernel, (20, 22), strategy="toeplitz").fused_pass
    gemm_pp = plan_for(kernel, (20, 22), strategy="gemm").fused_pass
    padded = pad_halo(_signed((20, 22), 7), kernel.radius)
    got = get_backend("serial").apply_pass(pp, padded)
    assert got.tobytes() == get_backend("serial").apply_pass(gemm_pp, padded).tobytes()
    assert pp.offsets is not None and pp.bands is not None
