"""End-to-end telemetry over the real engine and the device simulator."""

from __future__ import annotations

import pytest

from repro import obs
from repro.core.api import ConvStencil
from repro.core.simulated import run_simulated_2d
from repro.stencils.catalog import get_kernel
from repro.utils.rng import default_rng


class TestEngineSpans:
    def test_run_produces_bounded_pass_spans(self, tele):
        """ConvStencil.run over box-2d9p: pass spans nest under the run span
        and their summed wall time never exceeds the run's wall time."""
        obs.set_level("trace")
        kernel = get_kernel("box-2d9p")
        x = default_rng(3).random((64, 64))
        steps = 4
        cs = ConvStencil(kernel)
        cs.run(x, steps=steps)

        spans = tele.get_tracer().spans()
        runs = [sp for sp in spans if sp.name == "convstencil.run"]
        passes = [sp for sp in spans if sp.name == "convstencil.pass"]
        assert len(runs) == 1
        run = runs[0]
        assert run.attributes["kernel"] == "box-2d9p"
        assert run.attributes["steps"] == steps
        # fusion may batch several steps per pass, but at least one pass ran
        assert 1 <= len(passes) <= steps
        for p in passes:
            assert p.parent_id == run.span_id
            assert p.attributes["kernel"].startswith("box-2d9p")
        assert sum(p.duration for p in passes) <= run.duration

        # the engine layers underneath also left spans, all inside the run
        tess = [sp for sp in spans if sp.name == "dual_tessellation"]
        assert tess, "engine2d should emit dual_tessellation spans"
        assert all(run.start <= sp.start and sp.end <= run.end for sp in tess)

    def test_disabled_run_is_untraced(self, tele):
        obs.set_level("off")
        kernel = get_kernel("box-2d9p")
        ConvStencil(kernel).run(default_rng(3).random((32, 32)), steps=2)
        assert len(tele.get_tracer()) == 0


@pytest.mark.strategy_rule
class TestStrategySpans:
    def test_pass_spans_name_the_rule_strategy(self, tele):
        """Every pass span says how it ran: the strategy the rule picks."""
        obs.set_level("trace")
        x = default_rng(3).random((40, 40))
        for name, want in (("star-2d9p", "direct"), ("box-2d49p", "toeplitz")):
            tele.get_tracer().clear()
            ConvStencil(get_kernel(name)).run(x, steps=2)
            spans = tele.get_tracer().spans()
            passes = [sp for sp in spans if sp.name == "convstencil.pass"]
            assert len(passes) == 2
            assert {p.attributes["strategy"] for p in passes} == {want}


class TestSimulatorMetrics:
    def test_counters_fold_matches_run_exactly(self, tele):
        """run_simulated_2d folds its PerfCounters into the obs collector;
        the collector must reconstruct them bit-for-bit."""
        obs.set_level("trace")
        kernel = get_kernel("box-2d9p")
        x = default_rng(4).random((48, 48))
        run = run_simulated_2d(x, kernel)
        assert obs.perf_counters_from_registry() == run.counters
        # the run did real tensor-core work, so this is not a 0 == 0 check
        assert run.counters.mma_fp64 > 0

    def test_two_runs_accumulate(self, tele):
        obs.set_level("trace")
        kernel = get_kernel("box-2d9p")
        x = default_rng(4).random((48, 48))
        first = run_simulated_2d(x, kernel)
        second = run_simulated_2d(x, kernel)
        expected = first.counters.copy().merge(second.counters)
        assert obs.perf_counters_from_registry() == expected

    def test_disabled_run_folds_nothing(self, tele):
        obs.set_level("off")
        run_simulated_2d(default_rng(4).random((48, 48)), get_kernel("box-2d9p"))
        snap = obs.get_collector().snapshot()
        assert snap["counters"] == {} and snap["gauges"] == {}
