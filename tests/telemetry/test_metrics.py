"""Metrics registry: instruments, lookups, PerfCounters fold round-trip."""

from __future__ import annotations

import threading

import pytest

from repro.gpu.counters import PerfCounters
from repro.telemetry.metrics import MetricsRegistry


class TestCounter:
    def test_inc_accumulates(self, tele):
        c = tele.counter("t.c")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_negative_increment_rejected(self, tele):
        with pytest.raises(ValueError, match="cannot decrease"):
            tele.counter("t.c").inc(-1)

    def test_get_or_create_returns_same_instrument(self, tele):
        assert tele.counter("t.same") is tele.counter("t.same")

    def test_concurrent_increments_are_not_lost(self, tele):
        c = tele.counter("t.conc")

        def work():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 4000


class TestGauge:
    def test_set_and_add(self, tele):
        g = tele.gauge("t.g")
        g.set(2.5)
        g.add(-1.0)
        assert g.value == 1.5


class TestRegistry:
    def test_kind_conflict_raises(self, tele):
        tele.counter("t.conflict")
        with pytest.raises(TypeError, match="already registered"):
            tele.gauge("t.conflict")
        # The lock-free hit path checks the kind too, every time, both ways.
        tele.gauge("t.gauge-first")
        tele.gauge("t.gauge-first")
        with pytest.raises(TypeError, match="registered as Gauge, requested Counter"):
            tele.counter("t.gauge-first")
        with pytest.raises(TypeError, match="registered as Counter, requested Gauge"):
            tele.gauge("t.conflict")

    def test_concurrent_first_creation_yields_one_instrument(self):
        reg = MetricsRegistry()
        threads = 8
        start = threading.Barrier(threads)
        got = []

        def create():
            start.wait()
            got.append(reg.counter("t.race"))

        workers = [threading.Thread(target=create) for _ in range(threads)]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        assert len(got) == threads
        assert all(c is got[0] for c in got)
        assert reg.names() == ["t.race"]

    def test_snapshot_shapes(self, tele):
        tele.counter("t.c").inc(3)
        tele.gauge("t.g").set(0.5)
        snap = tele.get_registry().snapshot()
        assert snap == {
            "t.c": {"type": "counter", "value": 3},
            "t.g": {"type": "gauge", "value": 0.5},
        }

    def test_clear(self, tele):
        tele.counter("t.c").inc()
        tele.get_registry().clear()
        assert tele.get_registry().names() == []


class TestPerfCountersFold:
    def test_round_trip_bit_exact(self, tele):
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
        tele.fold_perf_counters(counters)
        assert tele.perf_counters_from_registry() == counters

    def test_derived_gauges_present(self, tele):
        counters = PerfCounters(
            shared_load_requests=10,
            shared_load_conflicts=5,
            fragment_columns_total=8,
            fragment_columns_useful=7,
        )
        tele.fold_perf_counters(counters)
        reg = tele.get_registry()
        assert reg.get("sim.bank_conflicts_per_request").value == pytest.approx(0.5)
        assert reg.get("sim.tensor_core_utilisation").value == pytest.approx(7 / 8)

    def test_repeated_folds_accumulate_like_merge(self, tele):
        a = PerfCounters(mma_fp64=3, shared_load_requests=10)
        b = PerfCounters(mma_fp64=4, shared_load_requests=2)
        tele.fold_perf_counters(a)
        tele.fold_perf_counters(b)
        merged = a.copy().merge(b)
        assert tele.perf_counters_from_registry() == merged

    def test_custom_registry_and_prefix(self, tele):
        reg = MetricsRegistry()
        counters = PerfCounters(mma_fp16=9)
        tele.fold_perf_counters(counters, registry=reg, prefix="dev0")
        assert tele.perf_counters_from_registry(registry=reg, prefix="dev0") == counters
        # default registry untouched
        assert tele.get_registry().get("dev0.mma_fp16") is None

    def test_unfolded_registry_reads_as_zero(self, tele):
        assert tele.perf_counters_from_registry() == PerfCounters()
