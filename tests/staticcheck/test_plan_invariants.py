"""Layer-2 plan invariants: catalog acceptance and mutation rejection."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.errors import StaticCheckError
from repro.runtime.cache import PlanCache
from repro.runtime.plan import build_plan, plan_key
from repro.staticcheck import check_plan, check_plan_catalog, eq13_mma_count
from repro.stencils.catalog import get_kernel
from repro.verify.differential import generate_cases


def _mutate_base_pass(plan, **changes):
    """A copy of ``plan`` whose base (and fused, if shared) pass differs."""
    new_pass = dataclasses.replace(plan.base_pass, **changes)
    fused = new_pass if plan.fused_pass is plan.base_pass else plan.fused_pass
    return dataclasses.replace(plan, base_pass=new_pass, fused_pass=fused)


def test_catalog_plans_all_pass(kernel_name):
    kernel = get_kernel(kernel_name)
    shapes = {1: (67,), 2: (16, 21), 3: (8, 9, 11)}
    for depth in (1, 2):
        plan = build_plan(kernel, shapes[kernel.ndim], fusion=depth)
        assert check_plan(plan) == [], f"{kernel_name} depth={depth}"


def test_check_plan_catalog_sweep_is_clean():
    findings, checked = check_plan_catalog()
    assert findings == []
    assert checked > 0


def test_verify_harness_case_catalog_accepted():
    """Every plan the differential harness would build passes check_plan."""
    for case in generate_cases(seed=0, n=12, quick=True):
        plan = build_plan(
            case.resolve_kernel(), case.shape, case.boundary, case.fusion
        )
        assert check_plan(plan) == [], case.describe()


class TestMutationsRejected:
    def setup_method(self):
        self.plan = build_plan(get_kernel("heat-2d"), (16, 21))

    def _rules(self, plan):
        return {f.rule_id for f in check_plan(plan)}

    def test_mutated_lut_offset_caught(self):
        mutated = np.array(self.plan.base_pass.offsets)
        mutated[0, 0] += 1
        rules = self._rules(_mutate_base_pass(self.plan, offsets=mutated))
        assert "RPR201" in rules
        # column 0 is now gathered by neither matrix: coverage fires too
        assert "RPR202" in rules

    def test_out_of_bounds_lut_caught(self):
        mutated = np.array(self.plan.base_pass.offsets)
        mutated[-1, -1] += 1000
        assert "RPR201" in self._rules(_mutate_base_pass(self.plan, offsets=mutated))

    def test_mutated_weights_caught(self):
        wa, wb = self.plan.base_pass.weights
        bad_wa = np.array(wa)
        bad_wa[0, 0, 0] += 0.5
        rules = self._rules(_mutate_base_pass(self.plan, weights=(bad_wa, wb)))
        assert "RPR203" in rules

    def test_non_triangular_weights_caught(self):
        wa, wb = self.plan.base_pass.weights
        bad_wa = np.array(wa)
        bad_wa[0, 0, -1] = 1.0  # last column of A must be zero
        assert "RPR203" in self._rules(
            _mutate_base_pass(self.plan, weights=(bad_wa, wb))
        )

    def test_wrong_halo_caught(self):
        assert "RPR204" in self._rules(_mutate_base_pass(self.plan, halo=2))

    def test_3d_plane_weights_mismatch_caught(self):
        plan = build_plan(get_kernel("heat-3d"), (8, 9, 11))
        pp = plan.base_pass
        assert pp.weights_by_plane  # heat-3d has at least one dense plane
        dz = next(iter(pp.weights_by_plane))
        broken = dict(pp.weights_by_plane)
        del broken[dz]
        assert "RPR206" in {
            f.rule_id
            for f in check_plan(_mutate_base_pass(plan, weights_by_plane=broken))
        }


class TestStrategyInvariant:
    """RPR207: a known strategy, and a gemm pass keeps its tables."""

    def _rules(self, plan):
        return {f.rule_id for f in check_plan(plan)}

    @pytest.mark.parametrize("strategy", ["gemm", "direct", "toeplitz"])
    def test_both_strategies_accepted(self, strategy):
        for name, shape in (("heat-1d", (67,)), ("heat-2d", (16, 21)), ("heat-3d", (8, 9, 11))):
            plan = build_plan(get_kernel(name), shape, fusion=2, strategy=strategy)
            assert check_plan(plan) == []

    def test_unknown_strategy_caught(self):
        plan = build_plan(get_kernel("heat-2d"), (16, 21), strategy="gemm")
        assert "RPR207" in self._rules(_mutate_base_pass(plan, strategy="sparse"))

    def test_gemm_pass_without_tables_caught(self):
        plan = build_plan(get_kernel("heat-2d"), (16, 21), strategy="gemm")
        assert "RPR207" in self._rules(_mutate_base_pass(plan, weights=None))
        plan3 = build_plan(get_kernel("heat-3d"), (8, 9, 11), strategy="gemm")
        assert "RPR207" in self._rules(_mutate_base_pass(plan3, weights_by_plane=None))

    def test_direct_pass_needs_no_tables(self):
        plan = build_plan(get_kernel("heat-2d"), (16, 21), strategy="direct")
        stripped = _mutate_base_pass(plan, offsets=None, weights=None)
        assert "RPR207" not in self._rules(stripped)

    def test_toeplitz_pass_without_bands_caught(self):
        plan = build_plan(get_kernel("heat-2d"), (16, 21), strategy="toeplitz")
        assert plan.base_pass.bands is not None
        assert "RPR207" in self._rules(_mutate_base_pass(plan, bands=None))


class TestBands:
    """RPR203 re-derives every band of a ``toeplitz`` pass from the
    kernel weights."""

    @pytest.mark.parametrize(
        "name, shape", [("heat-1d", (67,)), ("box-2d25p", (16, 21)), ("heat-3d", (8, 9, 11))]
    )
    def test_honest_bands_pass(self, name, shape):
        for depth in (1, 2):
            plan = build_plan(get_kernel(name), shape, fusion=depth, strategy="toeplitz")
            assert check_plan(plan) == []

    def _with_bands(self, plan, bands):
        return {f.rule_id for f in check_plan(_mutate_base_pass(plan, bands=bands))}

    @pytest.mark.parametrize("name, shape", [("box-2d25p", (16, 21)), ("heat-3d", (8, 9, 11))])
    def test_one_mutated_entry_caught(self, name, shape):
        plan = build_plan(get_kernel(name), shape, strategy="toeplitz")
        bands = dict(plan.base_pass.bands)
        offset = list(bands)[-1]
        band = np.array(bands[offset])
        band[band.shape[0] // 2, band.shape[1] // 2] += 2.0**-40
        bands[offset] = band
        assert "RPR203" in self._with_bands(plan, bands)

    def test_missing_or_extra_row_caught(self):
        plan = build_plan(get_kernel("heat-3d"), (8, 9, 11), strategy="toeplitz")
        bands = dict(plan.base_pass.bands)
        first = next(iter(bands))
        missing = {o: b for o, b in bands.items() if o != first}
        assert "RPR203" in self._with_bands(plan, missing)
        # (0, 0) is an all-zero row of heat-3d: it must not carry a band.
        extra = {(0, 0): np.zeros_like(bands[first]), **bands}
        assert "RPR203" in self._with_bands(plan, extra)

    def test_ragged_widths_caught(self):
        plan = build_plan(get_kernel("box-2d9p"), (16, 21), strategy="toeplitz")
        bands = dict(plan.base_pass.bands)
        last = list(bands)[-1]
        bands[last] = np.ascontiguousarray(bands[last][:-1, :-1])
        assert "RPR203" in self._with_bands(plan, bands)


def test_eq13_count_matches_paper_values():
    # Eq. 13: 2 * ceil(k^2/4) * ceil((k+1)/8)
    # k=3: 2*3*1 = 6 ; k=5: 2*7*1 = 14 ; k=7: 2*13*1 = 26 ; k=9: 2*21*2 = 84
    assert eq13_mma_count(3) == 6
    assert eq13_mma_count(5) == 14
    assert eq13_mma_count(7) == 26
    assert eq13_mma_count(9) == 84


class TestPlanCacheHook:
    def test_hook_rejects_mutated_plan(self, monkeypatch):
        monkeypatch.setenv("REPRO_STATICCHECK", "1")
        kernel = get_kernel("heat-2d")
        good = build_plan(kernel, (16, 21))
        mutated = np.array(good.base_pass.offsets)
        mutated[0, 0] += 1
        bad = _mutate_base_pass(good, offsets=mutated)
        cache = PlanCache()
        key = plan_key(kernel, (16, 21), "constant", 1)
        with pytest.raises(StaticCheckError):
            cache.get_or_build(key, lambda: bad)
        assert key not in cache  # rejected plans are never cached
        # the key stays rebuildable with a good plan
        assert cache.get_or_build(key, lambda: good) is good

    def test_hook_accepts_good_plan(self, monkeypatch):
        monkeypatch.setenv("REPRO_STATICCHECK", "1")
        kernel = get_kernel("heat-1d")
        cache = PlanCache()
        key = plan_key(kernel, (67,), "constant", 1)
        plan = cache.get_or_build(key, lambda: build_plan(kernel, (67,)))
        assert key in cache
        assert check_plan(plan) == []

    def test_hook_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_STATICCHECK", raising=False)
        kernel = get_kernel("heat-2d")
        good = build_plan(kernel, (16, 21))
        mutated = np.array(good.base_pass.offsets)
        mutated[0, 0] += 1
        bad = _mutate_base_pass(good, offsets=mutated)
        cache = PlanCache()
        key = plan_key(kernel, (16, 21), "constant", 1)
        assert cache.get_or_build(key, lambda: bad) is bad
