"""``repro top`` rendering + the obs CLI subcommands."""

from __future__ import annotations

import json

import pytest

from repro import cli
from repro.errors import ReproError
from repro.obs.top import fetch_snapshot, render_top, run_live

SNAP = {
    "pid": 4242,
    "uptime_s": 12.5,
    "slo_seconds": 0.25,
    "plan_cache": {
        "hits": 9,
        "misses": 1,
        "hit_rate": 0.9,
        "size": 1,
        "capacity": 64,
        "evictions": 0,
    },
    "runs": {
        "heat-2d|96x96|serial|f1": {
            "runs": 10,
            "p50_s": 0.002,
            "p95_s": 0.004,
            "p99_s": 0.004,
            "slo_breaches": 0,
            "achieved_mma_per_s": 1.5e6,
            "achieved_gstencils_per_s": 0.01,
            "model_attainment": 0.42,
        }
    },
    "profile": {
        "interval_s": 0.005,
        "phases": {"gemm": 30, "stencil2row": 10, "idle": 60},
    },
}


class TestRenderTop:
    def test_render_is_deterministic(self):
        assert render_top(SNAP, color=False) == render_top(SNAP, color=False)

    def test_plain_render_has_every_section(self):
        text = "\n".join(render_top(SNAP, color=False))
        assert "repro top — pid 4242" in text
        assert "SLO 250.0ms" in text
        assert "plan cache: 9 hit / 1 miss (rate 90.0%)" in text
        assert "heat-2d|96x96|serial|f1" in text
        assert "Profiler phases (100 samples" in text
        assert "gemm" in text and "stencil2row" in text

    def test_no_color_strips_ansi(self):
        assert "\x1b[" not in "\n".join(render_top(SNAP, color=False))
        assert "\x1b[" in "\n".join(render_top(SNAP, color=True))

    def test_empty_snapshot_renders_placeholders(self):
        text = "\n".join(render_top({}, color=False))
        assert "no runs recorded yet" in text
        assert "profiler: no samples" in text

    def test_run_live_renders_requested_frames(self, obs_on):
        printed = []
        rendered = run_live(
            interval=0.0, frames=2, color=False, print_fn=printed.append
        )
        assert rendered == 2
        assert len(printed) == 2

    def test_fetch_snapshot_unreachable_raises(self):
        with pytest.raises(ReproError, match="cannot fetch"):
            fetch_snapshot("http://127.0.0.1:1/")


class TestCLI:
    def test_top_once_renders_local_snapshot(self, obs_on):
        lines = cli.run(["top", "--once", "--no-color"])
        assert any("repro top" in line for line in lines)

    def test_top_once_demo_populates_runs(self, obs_on):
        lines = cli.run(["top", "--once", "--demo", "--no-color"])
        text = "\n".join(lines)
        assert "heat-2d|48x48|serial|f1" in text

    def test_obs_snapshot_requires_enabled_layer(self):
        from repro import obs

        was_enabled = obs.enabled()
        obs.disable()
        try:
            with pytest.raises(ReproError, match="REPRO_OBS"):
                cli.run(["obs-snapshot"])
        finally:
            if was_enabled:
                obs.enable()

    def test_obs_snapshot_json_and_prom(self, obs_on, tmp_path):
        cli.run(["top", "--once", "--demo", "--no-color"])  # populate
        out = tmp_path / "snap.json"
        lines = cli.run(["obs-snapshot", "--output", str(out)])
        payload = json.loads("\n".join(ln for ln in lines if not ln.startswith("OBS:")))
        assert "heat-2d|48x48|serial|f1" in payload["runs"]
        assert json.loads(out.read_text())["runs"] == payload["runs"]
        prom = cli.run(["obs-snapshot", "--format", "prom"])
        assert any(ln.startswith("# HELP repro_run_total") for ln in prom)

    def test_obs_snapshot_profile_out(self, obs_profiled, tmp_path):
        cli.run(["top", "--once", "--demo", "--no-color"])  # populate
        flame = tmp_path / "flame.txt"
        lines = cli.run(["obs-snapshot", "--profile-out", str(flame)])
        assert any("OBS: wrote" in ln and "flame.txt" in ln for ln in lines)
        assert flame.exists()
