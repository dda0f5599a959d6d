"""Temporal kernel fusion: edges, recommended depths, semantics."""

import numpy as np
import pytest

from repro.core.api import ConvStencil
from repro.core.fusion import fused_edge, plan_fusion, recommended_depth
from repro.errors import KernelError
from repro.stencils.catalog import get_kernel
from repro.stencils.grid import BoundaryCondition
from repro.stencils.reference import run_reference


class TestEdgeArithmetic:
    def test_fused_edge(self):
        assert fused_edge(3, 1) == 3
        assert fused_edge(3, 2) == 5
        assert fused_edge(3, 3) == 7
        assert fused_edge(5, 3) == 13

    def test_fused_edge_rejects_zero_depth(self):
        with pytest.raises(KernelError):
            fused_edge(3, 0)


class TestRecommendedDepth:
    @pytest.mark.parametrize(
        "name,depth",
        [
            ("box-2d9p", 3),   # the paper's Figure-4 example: 9P -> 49P
            ("heat-2d", 3),
            ("box-2d49p", 1),  # already fragment-wide
            ("star-2d13p", 1),
            ("heat-1d", 3),
            ("1d5p", 3),       # 1-D rows are cheap
            ("heat-3d", 1),    # 3-D never fuses (volume cubes)
            ("box-3d27p", 1),
        ],
    )
    def test_catalog_depths(self, name, depth):
        assert recommended_depth(get_kernel(name)) == depth

    def test_figure4_fusion_produces_49p(self):
        plan = plan_fusion(get_kernel("box-2d9p"), "auto")
        assert plan.depth == 3
        assert plan.fused.edge == 7
        assert plan.fused.volume == 49
        assert plan.utilisation_columns == 7

    def test_explicit_depth(self):
        plan = plan_fusion(get_kernel("heat-2d"), 2)
        assert plan.depth == 2
        assert plan.fused.edge == 5

    def test_invalid_depth(self):
        with pytest.raises(KernelError):
            plan_fusion(get_kernel("heat-2d"), 0)


class TestFusionSemantics:
    def test_periodic_exact_equivalence(self, rng):
        kernel = get_kernel("box-2d9p")
        x = rng.random((32, 32))
        fused = ConvStencil(kernel, fusion=3).run(x, steps=6, boundary="periodic")
        stepped = run_reference(x, kernel, 6, BoundaryCondition.PERIODIC)
        np.testing.assert_allclose(fused, stepped, rtol=1e-12)

    def test_constant_interior_equivalence(self, rng):
        kernel = get_kernel("heat-2d")
        x = rng.random((40, 40))
        depth = 3
        fused = ConvStencil(kernel, fusion=depth).run(x, steps=depth)
        stepped = run_reference(x, kernel, depth)
        # identical at distance >= depth*r from the boundary
        d = depth * kernel.radius
        np.testing.assert_allclose(
            fused[d:-d, d:-d], stepped[d:-d, d:-d], rtol=1e-12
        )

    def test_remainder_steps_run_unfused(self, rng):
        kernel = get_kernel("heat-1d")
        x = rng.random(80)
        got = ConvStencil(kernel, fusion=3).run(x, steps=7, boundary="periodic")
        expect = run_reference(x, kernel, 7, BoundaryCondition.PERIODIC)
        np.testing.assert_allclose(got, expect, rtol=1e-12)
