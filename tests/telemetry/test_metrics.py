"""Named counters and gauges in the obs collector, and the PerfCounters fold."""

from __future__ import annotations

import threading

import pytest

from repro.gpu.counters import PerfCounters
from repro.obs.collector import ObsCollector


class TestCounter:
    def test_inc_accumulates(self, obs_on):
        obs_on.count("t.c")
        obs_on.count("t.c", 4)
        assert obs_on.get_collector().value("t.c") == 5

    def test_negative_increment_rejected(self, obs_on):
        with pytest.raises(ValueError, match="cannot decrease"):
            obs_on.count("t.c", -1)

    def test_concurrent_increments_are_not_lost(self, obs_on):
        def work():
            for _ in range(1000):
                obs_on.count("t.conc")

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert obs_on.get_collector().value("t.conc") == 4000


class TestGauge:
    def test_set_is_last_write_wins(self, obs_on):
        obs_on.set_gauge("t.g", 2.5)
        obs_on.set_gauge("t.g", 1.5)
        assert obs_on.get_collector().value("t.g") == 1.5


class TestRegistry:
    def test_kind_conflict_raises(self, obs_on):
        obs_on.count("t.conflict")
        with pytest.raises(TypeError, match="is a counter, not a gauge"):
            obs_on.set_gauge("t.conflict", 1.0)
        obs_on.set_gauge("t.gauge-first", 1.0)
        with pytest.raises(TypeError, match="is a gauge, not a counter"):
            obs_on.count("t.gauge-first")
        # A rejected write changes neither entry.
        assert obs_on.get_collector().value("t.conflict") == 1
        assert obs_on.get_collector().value("t.gauge-first") == 1.0

    def test_concurrent_first_creation_yields_one_instrument(self):
        """Racing first writes to a new name create one entry, no lost count."""
        collector = ObsCollector()
        threads = 8
        start = threading.Barrier(threads)

        def first_write():
            start.wait()
            collector.count("t.race")

        workers = [threading.Thread(target=first_write) for _ in range(threads)]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        assert collector.snapshot()["counters"] == {"t.race": threads}

    def test_snapshot_shapes(self, obs_on):
        obs_on.count("t.c", 3)
        obs_on.set_gauge("t.g", 0.5)
        snap = obs_on.snapshot()
        assert snap["counters"] == {"t.c": 3}
        assert snap["gauges"] == {"t.g": 0.5}

    def test_clear(self, obs_on):
        obs_on.count("t.c")
        obs_on.set_gauge("t.g", 1.0)
        obs_on._reset_for_tests()
        snap = obs_on.snapshot()
        assert snap["counters"] == {} and snap["gauges"] == {}


class TestPerfCountersFold:
    def test_round_trip_bit_exact(self, obs_on):
        counters = PerfCounters(
            mma_fp64=12345,
            fma_fp64=7,
            global_read_bytes=987654321,
            global_transactions=4242,
            uncoalesced_transactions=17,
            shared_load_requests=1000,
            shared_load_conflicts=123,
            shared_store_requests=500,
            shared_store_conflicts=45,
            fragment_columns_total=4096,
            fragment_columns_useful=3584,
        )
        obs_on.fold_perf_counters(counters)
        assert obs_on.perf_counters_from_registry() == counters

    def test_derived_gauges_present(self, obs_on):
        counters = PerfCounters(
            shared_load_requests=10,
            shared_load_conflicts=5,
            fragment_columns_total=8,
            fragment_columns_useful=7,
        )
        obs_on.fold_perf_counters(counters)
        gauges = obs_on.snapshot()["gauges"]
        assert gauges["sim.bank_conflicts_per_request"] == pytest.approx(0.5)
        assert gauges["sim.tensor_core_utilisation"] == pytest.approx(7 / 8)

    def test_repeated_folds_accumulate_like_merge(self, obs_on):
        a = PerfCounters(mma_fp64=3, shared_load_requests=10)
        b = PerfCounters(mma_fp64=4, shared_load_requests=2)
        obs_on.fold_perf_counters(a)
        obs_on.fold_perf_counters(b)
        merged = a.copy().merge(b)
        assert obs_on.perf_counters_from_registry() == merged

    def test_custom_registry_and_prefix(self, obs_on):
        collector = ObsCollector()
        counters = PerfCounters(mma_fp16=9)
        obs_on.fold_perf_counters(counters, collector=collector, prefix="dev0")
        assert (
            obs_on.perf_counters_from_registry(collector=collector, prefix="dev0")
            == counters
        )
        # the process-wide collector is untouched
        assert obs_on.get_collector().value("dev0.mma_fp16", None) is None

    def test_unfolded_registry_reads_as_zero(self, obs_on):
        assert obs_on.perf_counters_from_registry() == PerfCounters()
