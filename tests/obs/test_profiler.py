"""Sampling profiler: phase classification, sampling, folds, overhead."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.obs.profiler import (
    PHASES,
    SamplingProfiler,
    classify_frame,
    classify_stack,
)


class TestClassifyFrame:
    @pytest.mark.parametrize(
        ("module", "func", "phase"),
        [
            ("repro.core.stencil2row", "stencil2row_views_2d", "stencil2row"),
            ("repro.core.stencil2row", "stencil2row_views_batched", "stencil2row"),
            ("repro.core.stencil2row", "_extend_columns", "fixup"),
            ("repro.core.engine2d", "convstencil_valid_2d", "gemm"),
            ("repro.core.engine1d", "convstencil_valid_1d", "gemm"),
            ("repro.gpu.im2row", "im2row_matrix", "gemm"),
            ("repro.stencils.grid", "pad_halo_batch", "halo"),
            ("repro.stencils.grid", "unpad", "halo"),
            ("repro.stencils.grid", "refresh_halo", "halo"),
            ("repro.core.direct", "direct_valid", "direct"),
            ("repro.core.direct", "_blocked", "direct"),
            ("repro.baselines.direct_cuda", "anything", None),
            ("repro.stencils.padding", "anything", "fixup"),
            ("repro.runtime.tiled", "apply_dirty_fix", "fixup"),
            ("repro.runtime.plan", "passes_for", "plan"),
            ("repro.runtime.cache", "get_or_build", "plan"),
            ("repro.runtime.execute", "build_plan_tables", "plan"),
            ("repro.runtime.execute", "execute_batch", None),
            ("numpy.core", "dot", None),
            # exec-compiled kernels (repro.codegen.compiled): the generated
            # module body is the GEMM stage, its gather helpers stencil2row
            (
                "repro.codegen.generated.compiled_engine_2d_ab12cd34",
                "compiled_pass",
                "gemm",
            ),
            (
                "repro.codegen.generated.compiled_engine_2d_batched_ab12cd34",
                "compiled_pass",
                "gemm",
            ),
            ("repro.codegen.compiled", "stencil2row_gather", "stencil2row"),
        ],
    )
    def test_frame_phases(self, module, func, phase):
        assert classify_frame(module, func) == phase


class TestClassifyStack:
    def test_innermost_repro_frame_wins(self):
        stack = [
            ("repro.runtime.execute", "execute"),
            ("repro.runtime.tiled", "apply_pass"),
            ("repro.core.engine2d", "convstencil_valid_2d"),
        ]
        assert classify_stack(stack) == "gemm"

    def test_wait_innermost_is_idle_despite_repro_frames(self):
        stack = [
            ("repro.runtime.tiled", "_run_threaded"),
            ("concurrent.futures._base", "result"),
            ("threading", "wait"),
        ]
        assert classify_stack(stack) == "idle"

    def test_default_path_stacks_have_their_own_phases(self):
        run = [("repro.core.api", "run"), ("repro.runtime.execute", "_run_passes")]
        direct = run + [("repro.core.direct", "direct_valid"), ("repro.core.direct", "_blocked")]
        assert classify_stack(direct) == "direct"
        halo = run + [
            ("repro.stencils.grid", "refresh_halo"),
            ("repro.stencils.grid", "_reflect_sources"),
        ]
        assert classify_stack(halo) == "halo"

    def test_unclassified_repro_stack_is_other(self):
        assert classify_stack([("repro.utils.tables", "format_table")]) == "other"

    def test_no_repro_frame_is_idle(self):
        assert classify_stack([("runpy", "_run_code"), ("select", "poll")]) == "idle"
        assert classify_stack([]) == "idle"


def _busy(stop: threading.Event) -> None:
    x = np.ones((64, 64))
    while not stop.is_set():
        x = x @ x * 1e-3


class TestSampling:
    def test_samples_accumulate_and_phases_cover_all_keys(self):
        stop = threading.Event()
        worker = threading.Thread(target=_busy, args=(stop,), daemon=True)
        worker.start()
        prof = SamplingProfiler(interval=0.002)
        try:
            prof.start()
            assert prof.running
            deadline = time.perf_counter() + 2.0
            while prof.samples < 5 and time.perf_counter() < deadline:
                time.sleep(0.01)
        finally:
            prof.stop()
            stop.set()
            worker.join(timeout=2.0)
        assert not prof.running
        assert prof.samples >= 5
        assert set(prof.phase_counts()) == set(PHASES)

    def test_start_is_idempotent_and_clear_keeps_running(self):
        prof = SamplingProfiler(interval=0.002)
        try:
            prof.start()
            first = prof._thread
            prof.start()
            assert prof._thread is first
            prof.clear()
            assert prof.samples == 0
            assert prof.running
        finally:
            prof.stop()

    def test_sample_once_skips_own_thread(self):
        prof = SamplingProfiler()
        prof.sample_once()
        for key in prof.stacks():
            assert all("sample_once" not in frame for frame in key)


class TestExport:
    def _seeded(self, stacks):
        prof = SamplingProfiler()
        for key, phase, n in stacks:
            with prof._lock:
                prof._samples += n
                prof._ticks += n
                prof._phases[phase] = prof._phases.get(phase, 0) + n
                if key:
                    prof._stacks[key] = prof._stacks.get(key, 0) + n
        return prof

    def test_collapsed_format(self):
        prof = self._seeded(
            [(("a:f", "b:g"), "gemm", 5), (("a:f",), "other", 2)]
        )
        lines = prof.collapsed().splitlines()
        assert lines == ["a:f;b:g 5", "a:f 2"]

    def test_chrome_trace_structure(self):
        prof = self._seeded([(("a:f", "b:g"), "gemm", 4)])
        doc = prof.chrome_trace()
        assert len(doc["traceEvents"]) == 2  # one event per frame depth
        assert {e["ph"] for e in doc["traceEvents"]} == {"X"}
        assert doc["otherData"]["samples"] == 4

    def test_export_dispatches_on_extension(self, tmp_path):
        import json

        prof = self._seeded([(("a:f",), "other", 1)])
        prof.export(tmp_path / "flame.txt")
        prof.export(tmp_path / "flame.json")
        assert (tmp_path / "flame.txt").read_text() == "a:f 1\n"
        assert "traceEvents" in json.loads((tmp_path / "flame.json").read_text())


class TestOverhead:
    """The sampler must be cheap on a warm serial heat-2d run, and the
    disabled hooks must cost one level check."""

    def _best_of(self, fn, repeats: int = 5) -> float:
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    def test_enabled_overhead_under_two_percent(self):
        from repro.core.api import ConvStencil
        from repro.stencils.catalog import get_kernel
        from repro.utils.rng import default_rng

        cs = ConvStencil(get_kernel("heat-2d"), backend="serial")
        x = default_rng(0xBE7C).random((96, 96))
        run = lambda: cs.run(x, steps=4)  # noqa: E731 - the timed thunk
        run()  # warm the plan cache
        # Noise-aware: keep the minimum ratio over a few attempts — a
        # transient load spike inflates one attempt, never all of them.
        best_ratio = float("inf")
        for _ in range(5):
            base = self._best_of(run)
            prof = SamplingProfiler(interval=0.005)
            prof.start()
            try:
                sampled = self._best_of(run)
            finally:
                prof.stop()
            best_ratio = min(best_ratio, sampled / base)
            if best_ratio < 1.02:
                break
        assert best_ratio < 1.02, f"profiler overhead {best_ratio:.3f}x"

    def test_disabled_hooks_are_near_free(self):
        from repro import obs

        level = obs.get_level()
        obs.set_level("off")
        try:
            n = 20_000
            t0 = time.perf_counter()
            for _ in range(n):
                with obs.record_run(None, "serial", 1):
                    pass
            per_call = (time.perf_counter() - t0) / n
            t0 = time.perf_counter()
            for _ in range(n):
                obs.count("t.near_free")
            per_count = (time.perf_counter() - t0) / n
            obs.set_gauge("t.near_free_gauge", 1.0)
            assert obs.record_run(None, "serial", 1) is obs._NOOP
            snap = obs.get_collector().snapshot()
            assert "t.near_free" not in snap["counters"]
            assert "t.near_free_gauge" not in snap["gauges"]
        finally:
            obs.set_level(level)
        assert per_call < 5e-6  # a few hundred ns in practice
        assert per_count < 5e-6
