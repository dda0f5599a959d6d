"""TCStencil: FP16 numerics and the Table-5 access-pattern replay."""

import numpy as np
import pytest

from repro.baselines.tcstencil import TCStencil
from repro.errors import BaselineError
from repro.stencils.catalog import get_kernel
from repro.stencils.reference import apply_stencil_reference


class TestNumerics:
    def test_fp16_precision_loss_is_observable(self, rng):
        """TCStencil's FP16 path must be close to—but measurably off—FP64."""
        kernel = get_kernel("heat-2d")
        x = rng.random((48, 48))
        got = TCStencil().run(x, kernel, steps=1)
        ref = apply_stencil_reference(x, kernel)
        err = np.abs(got - ref).max() / np.abs(ref).max()
        assert err < 5e-3  # correct to FP16 accuracy
        assert err > 1e-8  # but visibly below FP64 accuracy (§2: why FP64 matters)

    def test_1d_banded_formulation(self, rng):
        kernel = get_kernel("1d5p")
        x = rng.random(96)
        got = TCStencil().run(x, kernel, steps=1)
        ref = apply_stencil_reference(x, kernel)
        np.testing.assert_allclose(got, ref, rtol=5e-3, atol=5e-3)

    def test_box_kernel_supported(self, rng):
        kernel = get_kernel("box-2d49p")
        x = rng.random((40, 40))
        got = TCStencil().run(x, kernel, steps=1)
        ref = apply_stencil_reference(x, kernel)
        np.testing.assert_allclose(got, ref, rtol=2e-2, atol=2e-2)


class TestConflictReplay:
    def test_uncoalesced_near_half(self):
        m = TCStencil().conflict_metrics(get_kernel("heat-2d"), (128, 128))
        # paper Table 5: 49.40 % for Heat-2D
        assert m.uncoalesced_fraction == pytest.approx(0.494, abs=0.06)

    def test_bank_conflicts_in_paper_range(self):
        heat = TCStencil().conflict_metrics(get_kernel("heat-2d"), (128, 128))
        box = TCStencil().conflict_metrics(get_kernel("box-2d9p"), (128, 128))
        # paper Table 5: 0.91 (Heat-2D) and 1.29 (Box-2D9P)
        assert 0.5 < heat.bank_conflicts_per_request < 1.2
        assert 0.9 < box.bank_conflicts_per_request < 1.6
        assert box.bank_conflicts_per_request > heat.bank_conflicts_per_request

    def test_shape_too_small(self):
        with pytest.raises(BaselineError):
            TCStencil().conflict_metrics(get_kernel("heat-2d"), (8, 8))

    def test_requires_2d_kernel(self):
        with pytest.raises(BaselineError):
            TCStencil().conflict_metrics(get_kernel("heat-1d"), (128, 128))
