"""Suite runner, efficiency counters, and the noise-aware check loop."""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.perfwatch import (
    default_suite,
    efficiency_counters,
    make_report,
    plan_cache_delta,
    run_check,
    run_suite,
)
from repro.perfwatch.suite import SUITE_BACKENDS
from repro.stencils.catalog import get_kernel
from tests.perfwatch.conftest import TINY_SPEC, make_scripted_clock


class TestDefaultSuite:
    def test_quick_covers_backends_and_kernels(self):
        suite = default_suite(quick=True)
        assert {w.backend for w in suite} == set(SUITE_BACKENDS)
        assert len({w.name for w in suite}) >= 6
        for w in suite:
            get_kernel(w.kernel)  # every pinned kernel resolves

    def test_keys_unique_and_stable_format(self):
        suite = default_suite(quick=True)
        keys = [w.key for w in suite]
        assert len(keys) == len(set(keys))
        assert all("@" in k for k in keys)

    def test_full_suite_distinct(self):
        assert {w.name for w in default_suite(False)} != {
            w.name for w in default_suite(True)
        }


class TestRunSuite:
    def test_entry_structure(self, tiny_suite, tiny_spec, tele):
        clock = make_scripted_clock(step=0.5)
        body = run_suite(workloads=tiny_suite, spec=tiny_spec, clock=clock)
        assert body["suite"] == "quick"
        (entry,) = body["entries"]
        assert entry["key"] == "tiny-heat-1d@serial"
        assert entry["timing"]["point"] == 0.5
        counters = entry["counters"]
        assert counters["mma_total"] > 0.0
        assert counters["stencil2row_factor"] == pytest.approx(1.5)
        assert "worker_utilisation" not in counters
        assert "plan_cache_hit_rate" in counters

    def test_empty_suite_rejected(self):
        with pytest.raises(ReproError, match="empty"):
            run_suite(workloads=[])


class TestCounters:
    def test_batch_scales_points_and_mmas(self):
        kernel = get_kernel("heat-2d")
        single = efficiency_counters(kernel, (64, 64), 2, 1, elapsed=1.0)
        double = efficiency_counters(kernel, (64, 64), 2, 1, elapsed=1.0, batch=2)
        assert double["n_points"] == 2 * single["n_points"]
        assert double["mma_total"] == pytest.approx(2 * single["mma_total"])

    def test_model_attainment_well_formed(self):
        kernel = get_kernel("heat-2d")
        c = efficiency_counters(kernel, (96, 96), 4, 1, elapsed=1e-3)
        assert c["achieved_gstencils_per_s"] > 0.0
        assert c["model_gstencils_per_s"] > 0.0
        assert 0.0 < c["model_attainment"] < 1.0  # numpy never beats an A100
        assert c["memory_saving_vs_im2row"] > 0.0

    def test_plan_cache_delta(self):
        before = {"hits": 2, "misses": 1}
        after = {"hits": 6, "misses": 2}
        delta = plan_cache_delta(before, after)
        assert delta["plan_cache_hits"] == 4.0
        assert delta["plan_cache_misses"] == 1.0
        assert delta["plan_cache_hit_rate"] == pytest.approx(0.8)

    def test_plan_cache_delta_idle_is_full_hit_rate(self):
        assert plan_cache_delta({}, {})["plan_cache_hit_rate"] == 1.0


class TestRunCheck:
    def _slow_then_fast_clock(self, slow_ticks, slow=2.0, fast=1.0):
        """Steps ``slow`` per tick for the first ``slow_ticks`` ticks, then
        ``fast`` — models a load spike that clears before the retry."""
        state = {"now": 0.0, "calls": 0}

        def clock() -> float:
            value = state["now"]
            step = slow if state["calls"] < slow_ticks else fast
            state["now"] += step
            state["calls"] += 1
            return value

        return clock

    def _baseline(self, tiny_suite):
        return make_report(
            run_suite(
                workloads=tiny_suite,
                spec=TINY_SPEC,
                clock=make_scripted_clock(step=1.0),
            )
        )

    def test_transient_spike_cleared_by_retry(self, tiny_suite, obs_on):
        baseline = self._baseline(tiny_suite)
        # TINY_SPEC times 3 batches -> 6 clock ticks per suite run; the
        # first (full) run sees the spike, the retry runs at baseline speed.
        result, report = run_check(
            baseline,
            workloads=tiny_suite,
            spec=TINY_SPEC,
            clock=self._slow_then_fast_clock(slow_ticks=6),
        )
        assert result.ok
        assert report["entries"][0]["timing"]["point"] == 1.0
        assert obs_on.get_collector().value("perfwatch.recheck") == 1

    def test_persistent_slowdown_still_gates(self, tiny_suite, tele):
        baseline = self._baseline(tiny_suite)
        result, _ = run_check(
            baseline,
            workloads=tiny_suite,
            spec=TINY_SPEC,
            clock=make_scripted_clock(step=2.0),  # 2x slower, every attempt
        )
        assert not result.ok
        assert result.regressions[0].slowdown == pytest.approx(1.0)

    def test_matching_speed_passes_without_retry(self, tiny_suite, obs_on):
        baseline = self._baseline(tiny_suite)
        collector = obs_on.get_collector()
        recheck = collector.value("perfwatch.recheck")
        result, _ = run_check(
            baseline,
            workloads=tiny_suite,
            spec=TINY_SPEC,
            clock=make_scripted_clock(step=1.0),
        )
        assert result.ok
        assert collector.value("perfwatch.recheck") == recheck
