"""DRStencil fusion-partition and the AMOS mapping search."""

import numpy as np
import pytest

from repro.baselines.amos import AmosStencil, MappingCandidate
from repro.baselines.drstencil import DRStencil
from repro.errors import BaselineError
from repro.stencils.catalog import get_kernel
from repro.stencils.grid import BoundaryCondition
from repro.stencils.reference import run_reference


class TestDRStencil:
    def test_t3_name(self):
        assert DRStencil(fuse_steps=3).name == "drstencil-t3"
        assert DRStencil().name == "drstencil"

    def test_t3_periodic_equals_stepped(self, rng):
        kernel = get_kernel("box-2d9p")
        x = rng.random((24, 24))
        got = DRStencil(fuse_steps=3).run(x, kernel, steps=6, boundary="periodic")
        expect = run_reference(x, kernel, 6, BoundaryCondition.PERIODIC)
        np.testing.assert_allclose(got, expect, rtol=1e-12)

    def test_t3_remainder_handling(self, rng):
        kernel = get_kernel("heat-1d")
        x = rng.random(64)
        got = DRStencil(fuse_steps=3).run(x, kernel, steps=5, boundary="periodic")
        expect = run_reference(x, kernel, 5, BoundaryCondition.PERIODIC)
        np.testing.assert_allclose(got, expect, rtol=1e-12)

    def test_partition_invariance(self, rng):
        kernel = get_kernel("heat-2d")
        x = rng.random((40, 40))
        a = DRStencil(tile_edge=8).run(x, kernel, steps=2)
        b = DRStencil(tile_edge=64).run(x, kernel, steps=2)
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_ghost_overhead_grows_with_fusion(self):
        kernel = get_kernel("heat-2d")
        t1 = DRStencil(fuse_steps=1, tile_edge=32).ghost_overhead(kernel)
        t3 = DRStencil(fuse_steps=3, tile_edge=32).ghost_overhead(kernel)
        assert t3 > t1 > 1.0

    def test_invalid_params(self):
        with pytest.raises(BaselineError):
            DRStencil(fuse_steps=0)
        with pytest.raises(BaselineError):
            DRStencil(tile_edge=0)


class TestAmos:
    def test_search_is_deterministic(self):
        kernel = get_kernel("heat-2d")
        a = AmosStencil(trials=100, seed=9).search(kernel, (256, 256))
        b = AmosStencil(trials=100, seed=9).search(kernel, (256, 256))
        assert a[0] == b[0]
        assert a[1] == b[1]

    def test_cost_trace_monotone_nonincreasing(self):
        _, trace = AmosStencil(trials=300, seed=2).search(
            get_kernel("box-2d9p"), (512, 512)
        )
        assert all(b <= a for a, b in zip(trace, trace[1:]))
        assert trace[-1] < trace[0]  # the search found something better

    def test_more_trials_never_worse(self):
        kernel = get_kernel("heat-2d")
        short = AmosStencil(trials=20, seed=5).search(kernel, (256, 256))[1][-1]
        long = AmosStencil(trials=500, seed=5).search(kernel, (256, 256))[1][-1]
        assert long <= short

    def test_candidate_cost_positive(self):
        cand = MappingCandidate(tile_m=8, tile_n=1, k_split=1, stage_smem=True)
        from repro.gpu.specs import A100

        assert cand.cost(get_kernel("heat-2d"), 10**6, A100) > 0
        assert cand.mma_count(get_kernel("heat-2d"), 10**6) > 0

    def test_invalid_trials(self):
        with pytest.raises(BaselineError):
            AmosStencil(trials=0)
