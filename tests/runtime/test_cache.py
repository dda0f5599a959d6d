"""PlanCache: LRU eviction, hit/miss/eviction stats, hit rates."""

import numpy as np
import pytest

from repro import ConvStencil
from repro.runtime import PlanCache, get_plan_cache, set_plan_cache
from repro.stencils.catalog import get_kernel
from repro.utils.rng import default_rng


@pytest.fixture
def fresh_cache():
    """Swap in an isolated cache, restoring the previous one afterwards."""
    previous = get_plan_cache()
    cache = PlanCache(capacity=4)
    set_plan_cache(cache)
    yield cache
    set_plan_cache(previous)


@pytest.fixture
def stand_in_plans(monkeypatch):
    """Tests of the LRU mechanics cache strings, not plans: keep the
    ``REPRO_STATICCHECK`` insert check, which reads real plans, off."""
    monkeypatch.delenv("REPRO_STATICCHECK", raising=False)


@pytest.mark.usefixtures("stand_in_plans")
class TestPlanCache:
    def test_get_or_build_builds_once(self, fresh_cache):
        calls = []
        for _ in range(3):
            got = fresh_cache.get_or_build("k", lambda: calls.append(1) or "plan")
            assert got == "plan"
        assert len(calls) == 1
        assert fresh_cache.stats["hits"] == 2
        assert fresh_cache.stats["misses"] == 1

    def test_lru_eviction_order(self, fresh_cache):
        for i in range(4):
            fresh_cache.get_or_build(i, lambda i=i: f"plan{i}")
        fresh_cache.get_or_build(0, lambda: "refetched")  # 0 is now most recent
        fresh_cache.get_or_build(99, lambda: "new")  # evicts 1, the LRU entry
        assert 0 in fresh_cache and 99 in fresh_cache
        assert 1 not in fresh_cache
        assert fresh_cache.stats["evictions"] == 1
        assert len(fresh_cache) == 4

    def test_clear(self, fresh_cache):
        fresh_cache.get_or_build("a", lambda: 1)
        fresh_cache.clear()
        assert len(fresh_cache) == 0 and "a" not in fresh_cache

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)

    def test_hit_rate_property(self, fresh_cache):
        fresh_cache.get_or_build("a", lambda: 1)
        for _ in range(9):
            fresh_cache.get_or_build("a", lambda: 1)
        assert fresh_cache.stats["hit_rate"] == pytest.approx(0.9)


class TestCacheIntegration:
    def test_50_step_run_loop_hit_rate(self, fresh_cache):
        """Acceptance: >90% plan-cache hit rate across a 50-step run loop."""
        cs = ConvStencil(get_kernel("heat-2d"))
        x = default_rng(0).random((32, 32))
        for _ in range(50):
            x = cs.run(x, steps=1)
        stats = fresh_cache.stats
        assert stats["misses"] == 1
        assert stats["hit_rate"] > 0.9

    def test_telemetry_counters_update(self, fresh_cache, obs_on):
        """The cache's own stats are the one tally: the obs snapshot reads
        them, and no duplicate named counter is written."""
        before = fresh_cache.stats
        cs = ConvStencil(get_kernel("heat-1d"))
        x = default_rng(0).random(64)
        cs.run(x, steps=1)
        cs.run(x, steps=1)
        after = fresh_cache.stats
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] == before["hits"] + 1
        snap = obs_on.snapshot()
        assert snap["plan_cache"] == after
        assert not any(name.startswith("runtime.") for name in snap["counters"])

    def test_distinct_problems_distinct_plans(self, fresh_cache):
        cs = ConvStencil(get_kernel("heat-2d"))
        rng = default_rng(0)
        cs.run(rng.random((16, 16)), steps=1)
        cs.run(rng.random((16, 17)), steps=1)
        cs.run(rng.random((16, 16)), steps=1, boundary="periodic")
        assert fresh_cache.stats["misses"] == 3

    def test_eviction_keeps_results_correct(self, fresh_cache):
        """A plan rebuilt after eviction gives the same answer."""
        cs = ConvStencil(get_kernel("heat-1d"))
        x = default_rng(0).random(40)
        first = cs.run(x, steps=1)
        # Evict the plan by filling the (capacity-4) cache with new shapes.
        for extent in (41, 42, 43, 44, 45):
            cs.run(default_rng(1).random(extent), steps=1)
        assert fresh_cache.stats["evictions"] >= 1
        np.testing.assert_array_equal(cs.run(x, steps=1), first)


@pytest.mark.usefixtures("stand_in_plans")
class TestCacheConcurrency:
    """The per-key build-lock rewrite: builds run outside the global lock."""

    def test_slow_build_does_not_block_other_keys(self, fresh_cache):
        import threading
        import time

        gate = threading.Event()
        order = []

        def slow_builder():
            gate.wait(timeout=5.0)
            order.append("slow")
            return "slow-plan"

        t = threading.Thread(
            target=fresh_cache.get_or_build, args=("slow", slow_builder)
        )
        t.start()
        time.sleep(0.05)  # let the slow build take its per-key lock
        # A different key must complete while "slow" is still building.
        got = fresh_cache.get_or_build("fast", lambda: order.append("fast") or "fast-plan")
        assert got == "fast-plan"
        assert order == ["fast"]
        gate.set()
        t.join(timeout=5.0)
        assert not t.is_alive()
        assert "slow" in fresh_cache and "fast" in fresh_cache

    def test_same_key_shares_one_build(self, fresh_cache):
        import threading

        builds = []
        barrier = threading.Barrier(8)
        results = []

        def request():
            barrier.wait()
            results.append(
                fresh_cache.get_or_build("k", lambda: builds.append(1) or "plan")
            )

        threads = [threading.Thread(target=request) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5.0)
        assert len(builds) == 1
        assert results == ["plan"] * 8
        stats = fresh_cache.stats
        assert stats["misses"] == 1
        assert stats["hits"] == 7

    def test_raising_builder_counts_one_miss_and_allows_retry(self, fresh_cache):
        def explode():
            raise RuntimeError("builder boom")

        with pytest.raises(RuntimeError, match="builder boom"):
            fresh_cache.get_or_build("k", explode)
        stats = fresh_cache.stats
        assert stats["misses"] == 1
        assert stats["hits"] == 0
        assert "k" not in fresh_cache
        # The key is rebuildable afterwards — no stuck build lock.
        assert fresh_cache.get_or_build("k", lambda: "recovered") == "recovered"
        assert fresh_cache.stats["misses"] == 2

    def test_hammering_many_keys_from_many_threads(self, fresh_cache):
        import threading

        errors = []

        def worker(tid):
            try:
                for i in range(50):
                    key = ("k", i % 6)
                    plan = fresh_cache.get_or_build(key, lambda key=key: ("plan", key))
                    assert plan == ("plan", key)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert not errors
        stats = fresh_cache.stats
        # Counters stay consistent under contention: every request is
        # exactly one hit or one miss.
        assert stats["hits"] + stats["misses"] == 8 * 50
