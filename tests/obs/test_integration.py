"""End-to-end obs acceptance: batched workloads drive every live gauge."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
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
        monkeypatch.setattr(obs_profiled, "PROFILE_INTERVAL", 0.001)
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
        assert stats["achieved_gstencils_per_s"] > 0
        assert snap["plan_cache"]["hits"] + snap["plan_cache"]["misses"] > 0

    def test_results_identical_with_obs_on_and_off(self, obs_on):
        with_obs = _serial_batch(obs_on)
        obs_on.set_level("off")
        without_obs = _serial_batch(obs_on)
        assert np.array_equal(with_obs, without_obs)


_RUN_ONCE = """
import json, sys
import numpy as np
from repro import ConvStencil, get_kernel, obs
ConvStencil(get_kernel("heat-2d")).run(np.ones((16, 16)), steps=2)
print(json.dumps({
    "runs": sorted(obs.snapshot()["runs"]),
    "model": sorted(m for m in sys.modules if m.startswith("repro.model")),
}))
"""


def test_recorded_run_loads_no_performance_model():
    """The ledger only measures: recording a run in a fresh interpreter
    imports nothing from :mod:`repro.model`."""
    env = dict(
        os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]), REPRO_OBS="metrics"
    )
    out = subprocess.run(
        [sys.executable, "-c", _RUN_ONCE],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    result = json.loads(out)
    assert result["runs"] == ["heat-2d|16x16|serial|f1"]
    assert result["model"] == []
