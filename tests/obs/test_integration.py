"""End-to-end obs acceptance: batched workloads drive every live gauge."""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime.execute import execute_batch, plan_for
from repro.stencils.catalog import get_kernel
from repro.utils.rng import default_rng


def _serial_batch(obs_mod, runs: int = 1):
    """A serial heat-2d run_batch workload big enough to sample."""
    kernel = get_kernel("heat-2d")
    batch = default_rng(1).random((4, 128, 128))
    plan = plan_for(kernel, (128, 128), strategy="gemm")
    out = batch
    for _ in range(runs):
        out = execute_batch(plan, batch, 4, backend="serial")
    return out


class TestRunBatch:
    def test_phase_attributed_profile_covers_stencil2row_and_gemm(
        self, obs_profiled, monkeypatch
    ):
        monkeypatch.setenv("REPRO_OBS_PROFILE_INTERVAL_MS", "1")
        # Sampling is statistical: repeat the workload until both compute
        # phases have been caught on the stack (bounded, normally 1-2 runs).
        for _ in range(30):
            _serial_batch(obs_profiled)
            profiler = obs_profiled.get_profiler()
            assert profiler is not None
            phases = profiler.phase_counts()
            if phases["stencil2row"] > 0 and phases["gemm"] > 0:
                break
        else:
            pytest.fail(f"phases never covered both compute stages: {phases}")
        collapsed = profiler.collapsed()
        assert "stencil2row" in collapsed
        assert any(
            module in collapsed for module in ("engine2d", "engine1d", "engine3d")
        )

    def test_snapshot_carries_health_gauges(self, obs_on):
        _serial_batch(obs_on, runs=3)
        snap = obs_on.snapshot()
        (label,) = [k for k in snap["runs"] if k.startswith("heat-2d|128x128|serial")]
        stats = snap["runs"][label]
        assert stats["runs"] == 3
        assert stats["latency"]["count"] == 3
        assert stats["achieved_mma_per_s"] > 0
        assert stats["model_mma_per_s"] > 0
        assert 0 <= stats["model_attainment"]
        assert snap["plan_cache"]["hits"] + snap["plan_cache"]["misses"] > 0

    def test_results_identical_with_obs_on_and_off(self, obs_on):
        with_obs = _serial_batch(obs_on)
        obs_on.set_level("off")
        without_obs = _serial_batch(obs_on)
        assert np.array_equal(with_obs, without_obs)
