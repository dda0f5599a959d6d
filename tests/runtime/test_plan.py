"""Execution plans: keys and precomputed tables."""

import numpy as np
import pytest

from repro.core.stencil2row import stencil2row_offsets, stencil2row_shape
from repro.core.weights import weight_blocks_2d, weight_matrices_1d
from repro.errors import KernelError
from repro.runtime import build_plan, plan_key
from repro.stencils.catalog import get_kernel
from repro.stencils.grid import BoundaryCondition


class TestPlanKey:
    def test_same_problem_same_key(self):
        kernel = get_kernel("heat-2d")
        a = plan_key(kernel, (32, 32), BoundaryCondition.CONSTANT, 1)
        b = plan_key(kernel, (32, 32), "constant", 1)
        assert a == b and hash(a) == hash(b)

    def test_distinct_on_every_component(self):
        k1, k2 = get_kernel("heat-2d"), get_kernel("box-2d9p")
        base = plan_key(k1, (32, 32), "constant", 1)
        assert base != plan_key(k2, (32, 32), "constant", 1)
        assert base != plan_key(k1, (32, 33), "constant", 1)
        assert base != plan_key(k1, (32, 32), "periodic", 1)
        assert base != plan_key(k1, (32, 32), "constant", 2)


class TestBuildPlan:
    def test_1d_tables(self):
        kernel = get_kernel("1d5p")
        plan = build_plan(kernel, (200,))
        pp = plan.fused_pass
        k = kernel.edge
        assert pp.halo == kernel.radius
        assert pp.padded_shape == (200 + 2 * kernel.radius,)
        rows, _ = stencil2row_shape(pp.padded_shape, k)
        np.testing.assert_array_equal(pp.offsets, stencil2row_offsets(rows, k))
        wa, wb = weight_matrices_1d(kernel)
        np.testing.assert_array_equal(pp.weights[0], wa)
        np.testing.assert_array_equal(pp.weights[1], wb)

    def test_2d_tables(self):
        kernel = get_kernel("box-2d9p")
        plan = build_plan(kernel, (30, 40))
        pp = plan.fused_pass
        wa3, wb3 = weight_blocks_2d(kernel)
        np.testing.assert_array_equal(pp.weights[0], wa3)
        np.testing.assert_array_equal(pp.weights[1], wb3)
        assert pp.planes is None and pp.weights_by_plane is None

    def test_3d_tables(self):
        kernel = get_kernel("heat-3d")
        plan = build_plan(kernel, (10, 11, 12))
        pp = plan.fused_pass
        assert pp.planes is not None
        dense = {dz for dz, kind, _ in pp.planes if kind == "conv2d"}
        assert set(pp.weights_by_plane) == dense

    def test_fused_plan_has_two_passes(self):
        kernel = get_kernel("box-2d9p")
        plan = build_plan(kernel, (24, 24), fusion="auto")
        assert plan.fusion_depth == 3
        assert plan.base_pass is not plan.fused_pass
        assert plan.fused_pass.halo == kernel.radius * 3
        assert plan.base_pass.halo == kernel.radius

    def test_unfused_plan_shares_one_pass(self):
        plan = build_plan(get_kernel("heat-2d"), (24, 24))
        assert plan.base_pass is plan.fused_pass

    def test_passes_for_honours_step_count(self):
        plan = build_plan(get_kernel("box-2d9p"), (24, 24), fusion="auto")
        seq = list(plan.passes_for(7))  # depth 3 -> 2 fused + 1 base
        assert seq == [plan.fused_pass, plan.fused_pass, plan.base_pass]
        assert list(plan.passes_for(0)) == []
        with pytest.raises(ValueError):
            list(plan.passes_for(-1))

    def test_dim_mismatch(self):
        with pytest.raises(KernelError):
            build_plan(get_kernel("heat-2d"), (32,))

    def test_nbytes_positive(self):
        plan = build_plan(get_kernel("heat-2d"), (32, 32))
        assert plan.nbytes > 0
