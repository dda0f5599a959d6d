"""Obs collector: run accounting, SLO breaches, snapshots."""

from __future__ import annotations

import pytest

from repro.obs.collector import SLO_ENV, ObsCollector, run_label
from repro.runtime.execute import plan_for
from repro.stencils.catalog import get_kernel


@pytest.fixture
def plan():
    return plan_for(get_kernel("heat-2d"), (32, 32))


class TestRunAccounting:
    def test_label_format(self):
        assert run_label("heat-2d", (96, 128), "compiled", 3) == "heat-2d|96x128|compiled|f3"

    def test_record_run_accumulates_under_plan_key(self, plan):
        col = ObsCollector(slo_seconds=None)
        col.record_run(plan, "serial", steps=2, batch=0, elapsed=0.01)
        col.record_run(plan, "serial", steps=2, batch=0, elapsed=0.02)
        snap = col.snapshot()
        (label,) = snap["runs"]
        assert label == "heat-2d|32x32|serial|f1"
        stats = snap["runs"][label]
        assert stats["runs"] == 2
        assert stats["grids"] == 2
        assert stats["stencil_updates"] == pytest.approx(2 * 2 * 32 * 32)
        assert stats["latency"]["count"] == 2
        assert stats["achieved_mma_per_s"] > 0
        assert stats["achieved_gstencils_per_s"] > 0
        assert stats["model_gstencils_per_s"] > 0
        assert stats["model_mma_per_s"] > 0
        assert stats["model_attainment"] >= 0
        assert stats["p95_s"] >= stats["p50_s"]

    def test_batch_multiplies_grids_and_updates(self, plan):
        col = ObsCollector(slo_seconds=None)
        col.record_run(plan, "serial", steps=3, batch=4, elapsed=0.05)
        stats = next(iter(col.snapshot()["runs"].values()))
        assert stats["grids"] == 4
        assert stats["stencil_updates"] == pytest.approx(3 * 32 * 32 * 4)

    def test_distinct_backends_get_distinct_keys(self, plan):
        col = ObsCollector(slo_seconds=None)
        col.record_run(plan, "serial", steps=1, batch=0, elapsed=0.01)
        col.record_run(plan, "compiled", steps=1, batch=0, elapsed=0.01)
        assert len(col.snapshot()["runs"]) == 2

    def test_plan_keys_and_pricing_caches_are_lru_bounded(self, monkeypatch):
        """Requests pick their shapes: past the bound, the run stats and both
        pricing caches evict oldest first, and the snapshot still renders."""
        from repro.obs.exporter import render_prometheus

        monkeypatch.setattr("repro.obs.collector.MAX_PLAN_KEYS", 2)
        kernel = get_kernel("heat-2d")
        col = ObsCollector(slo_seconds=None)
        first = plan_for(kernel, (4, 5))
        col.record_run(first, "serial", steps=1, batch=0, elapsed=0.01)
        for n in range(6, 10):
            col.record_run(plan_for(kernel, (4, n)), "serial", steps=1, batch=0, elapsed=0.01)
            col.record_run(first, "serial", steps=1, batch=0, elapsed=0.01)  # keep it recent
            assert len(col._runs) == len(col._mma_cache) == len(col._model_cache) == 2
        snap = col.snapshot()
        assert set(snap["runs"]) == {"heat-2d|4x5|serial|f1", "heat-2d|4x9|serial|f1"}
        assert snap["runs"]["heat-2d|4x5|serial|f1"]["runs"] == 5
        text = render_prometheus(snap)
        runs = [line for line in text.splitlines() if line.startswith("repro_run_total{")]
        assert len(runs) == 2 and any("heat-2d|4x9|serial|f1" in line for line in runs)


class TestSLO:
    def test_breaches_counted_against_budget(self, plan):
        col = ObsCollector(slo_seconds=0.005)
        col.record_run(plan, "serial", steps=1, batch=0, elapsed=0.010)  # breach
        col.record_run(plan, "serial", steps=1, batch=0, elapsed=0.001)  # within
        stats = next(iter(col.snapshot()["runs"].values()))
        assert stats["slo_breaches"] == 1

    def test_env_knob_parsed_as_milliseconds(self, monkeypatch):
        monkeypatch.setenv(SLO_ENV, "250")
        assert ObsCollector().slo_seconds == pytest.approx(0.25)
        monkeypatch.setenv(SLO_ENV, "not-a-number")
        assert ObsCollector().slo_seconds is None
        monkeypatch.delenv(SLO_ENV)
        assert ObsCollector().slo_seconds is None

    def test_tenants_are_lru_bounded_and_slo_totals_survive_eviction(self, monkeypatch):
        monkeypatch.setattr("repro.obs.collector.MAX_TENANTS", 2)
        col = ObsCollector(slo_seconds=0.005)
        assert col.record_request("a", 0.010)  # breach
        assert not col.record_request("b", 0.001)
        col.record_request("a", 0.001)  # "a" is now the most recent
        before = col.slo_totals()
        col.record_request("c", 0.0, "rejected_quota")  # evicts "b"
        assert set(col.snapshot()["tenants"]) == {"a", "c"}
        assert col.slo_totals() == before == (3, 1)


class TestSnapshotShape:
    def test_top_level_fields(self, plan):
        col = ObsCollector(slo_seconds=0.1)
        col.record_run(plan, "serial", steps=1, batch=0, elapsed=0.002)
        snap = col.snapshot()
        for field in (
            "pid",
            "uptime_s",
            "slo_seconds",
            "plan_cache",
            "runs",
            "tenants",
            "serve",
        ):
            assert field in snap
        assert snap["slo_seconds"] == pytest.approx(0.1)
        assert "hit_rate" in snap["plan_cache"]
        assert "profile" not in snap  # no profiler passed

    def test_snapshot_is_json_serialisable(self, plan):
        import json

        from repro.obs.profiler import SamplingProfiler

        col = ObsCollector(slo_seconds=None)
        col.record_run(plan, "serial", steps=1, batch=0, elapsed=0.002)
        prof = SamplingProfiler()
        prof.sample_once()
        snap = col.snapshot(profiler=prof)
        assert "profile" in snap
        json.dumps(snap)  # must not raise
