"""Structural ConvStencil model: Eq. 13/14 and the simulator cross-check."""

import numpy as np
import pytest

from repro.core.fusion import plan_fusion
from repro.core.simulated import run_simulated_2d
from repro.errors import ModelError
from repro.gpu.specs import A100
from repro.model.convstencil_model import (
    convstencil_mma_count,
    convstencil_pass_time,
    convstencil_throughput,
    mma_per_point_2d,
)
from repro.stencils.catalog import get_kernel
from repro.stencils.grid import pad_halo
from repro.utils.rng import default_rng


class TestEq13:
    @pytest.mark.parametrize("edge", [3, 5, 7])
    def test_formula(self, edge):
        # Eq. 13: 2 * ceil(k²/4) / (8 (k+1)) per point (k <= 7)
        expected = 2 * -(-edge * edge // 4) / (8.0 * (edge + 1))
        assert np.isclose(mma_per_point_2d(edge), expected)

    def test_count_scales_with_points(self):
        k = get_kernel("box-2d49p")
        assert np.isclose(
            convstencil_mma_count(k, 2_000_000), 2 * convstencil_mma_count(k, 1_000_000)
        )

    def test_model_matches_simulator(self):
        """Closed form vs actual simulated MMA tally (band rounding aside)."""
        kernel = get_kernel("box-2d49p")
        shape = (58, 58)
        x = default_rng(0).random(shape)
        padded = pad_halo(x, kernel.radius)
        run = run_simulated_2d(padded, kernel)
        modelled = convstencil_mma_count(kernel, int(np.prod(padded.shape)))
        measured = run.counters.mma_fp64
        # the simulator rounds bands/shifts up; agreement within 20 %
        assert measured == pytest.approx(modelled, rel=0.2)

    def test_invalid_inputs(self):
        with pytest.raises(ModelError):
            mma_per_point_2d(0)
        with pytest.raises(ModelError):
            convstencil_mma_count(get_kernel("heat-2d"), 0)


class TestPassTime:
    def test_heat2d_fused_is_compute_bound(self):
        # the §3.3 analysis: fused Heat-2D at 10240² is MMA-limited
        fused = plan_fusion(get_kernel("heat-2d"), "auto").fused
        _, bound = convstencil_pass_time(fused, 10240 * 10240, A100)
        assert bound == "compute"

    def test_heat1d_fused_is_memory_bound(self):
        fused = plan_fusion(get_kernel("heat-1d"), "auto").fused
        _, bound = convstencil_pass_time(fused, 10_240_000, A100)
        assert bound == "memory"

    def test_time_positive_for_all_kernels(self, kernel_name):
        kernel = get_kernel(kernel_name)
        t, bound = convstencil_pass_time(kernel, 10**6)
        assert t > 0
        assert bound in ("compute", "memory")


class TestThroughput:
    def test_matches_paper_artifact_output(self):
        """§A.5: box2d1r at 10240² → 188.27 GStencils/s on the real A100.

        The calibrated structural model must land within 5 % of the number
        the paper's own artifact prints.
        """
        est = convstencil_throughput(get_kernel("box-2d9p"), (10240, 10240))
        assert est.gstencils_per_s == pytest.approx(188.27, rel=0.05)

    def test_saturated_exceeds_small_grid(self):
        k = get_kernel("heat-2d")
        small = convstencil_throughput(k, (256, 256))
        big = convstencil_throughput(k, (8192, 8192))
        assert big.gstencils_per_s > 2 * small.gstencils_per_s

    def test_fusion_multiplies_steps_per_pass(self):
        k = get_kernel("box-2d9p")
        est = convstencil_throughput(k, (2048, 2048))
        assert est.steps_per_pass == 3
        unfused = convstencil_throughput(k, (2048, 2048), fusion=1)
        assert est.gstencils_per_s > unfused.gstencils_per_s

    def test_3d_tiling_fluctuation(self):
        k = get_kernel("heat-3d")
        aligned = convstencil_throughput(k, (512, 512, 512))
        ragged = convstencil_throughput(k, (544, 512, 512))
        # ragged extents waste partial 64-wide tiles
        per_point_aligned = aligned.gstencils_per_s / aligned.grid_points
        per_point_ragged = ragged.gstencils_per_s / ragged.grid_points
        assert per_point_ragged < per_point_aligned

    def test_shape_dim_mismatch(self):
        with pytest.raises(ModelError):
            convstencil_throughput(get_kernel("heat-2d"), (64,))

    def test_time_per_step_property(self):
        est = convstencil_throughput(get_kernel("box-2d9p"), (1024, 1024))
        assert np.isclose(est.time_per_step, est.time_per_pass / est.steps_per_pass)
