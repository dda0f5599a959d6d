"""Prometheus rendering + the HTTP exporter endpoints."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.obs.collector import ObsCollector
from repro.obs.exporter import render_prometheus, start_exporter
from repro.runtime.execute import plan_for
from repro.stencils.catalog import get_kernel


@pytest.fixture
def snap():
    col = ObsCollector(slo_seconds=0.001)
    plan = plan_for(get_kernel("heat-2d"), (32, 32))
    col.record_run(plan, "serial", steps=2, batch=0, elapsed=0.004)
    col.record_run(plan, "serial", steps=2, batch=0, elapsed=0.0005)
    return col.snapshot()


def _parse(text: str):
    """Minimal exposition parser: samples + per-family HELP/TYPE counts."""
    samples, helps, types = [], {}, {}
    for line in text.splitlines():
        if line.startswith("# HELP "):
            helps[line.split()[2]] = helps.get(line.split()[2], 0) + 1
        elif line.startswith("# TYPE "):
            types[line.split()[2]] = line.split()[3]
        elif line and not line.startswith("#"):
            name_labels, value = line.rsplit(" ", 1)
            samples.append((name_labels, value))
            float(value.replace("+Inf", "inf"))  # every value must parse
    return samples, helps, types


EXPECTED_FAMILIES = (
    "repro_obs_uptime_seconds",
    "repro_plan_cache_hit_rate",
    "repro_run_total",
    "repro_slo_breaches_total",
    "repro_achieved_mma_per_second",
    "repro_model_mma_per_second",
    "repro_achieved_gstencils_per_second",
    "repro_model_gstencils_per_second",
    "repro_model_attainment",
    "repro_run_latency_seconds",
    "repro_profiler_samples_total",
)


class TestRenderPrometheus:
    def test_expected_families_present_with_single_headers(self, snap):
        text = render_prometheus(snap)
        samples, helps, types = _parse(text)
        for family in EXPECTED_FAMILIES:
            assert family in types, f"missing family {family}"
            assert helps[family] == 1  # one HELP line per family
        assert types["repro_run_latency_seconds"] == "histogram"

    def test_histogram_buckets_are_cumulative_and_end_at_inf(self, snap):
        text = render_prometheus(snap)
        buckets = [
            (name, float(value))
            for name, value in _parse(text)[0]
            if name.startswith("repro_run_latency_seconds_bucket")
        ]
        counts = [v for _, v in buckets]
        assert counts == sorted(counts)
        assert 'le="+Inf"' in buckets[-1][0]
        count = next(
            float(v)
            for name, v in _parse(text)[0]
            if name.startswith("repro_run_latency_seconds_count")
        )
        assert buckets[-1][1] == count == 2.0

    def test_slo_breach_counted(self, snap):
        text = render_prometheus(snap)
        (breaches,) = [
            float(v)
            for name, v in _parse(text)[0]
            if name.startswith("repro_slo_breaches_total")
        ]
        assert breaches == 1.0

    def test_corrupt_histogram_is_skipped_not_fatal(self, snap):
        label = next(iter(snap["runs"]))
        snap["runs"][label]["latency"] = {"layout": "alien", "buckets": {}}
        text = render_prometheus(snap)
        assert "repro_run_latency_seconds_bucket" not in text
        assert "repro_run_total" in text  # the rest still renders

    def test_empty_snapshot_renders(self):
        text = render_prometheus({})
        assert "repro_obs_uptime_seconds 0.0" in text


class TestHTTPServer:
    @pytest.fixture
    def server(self, snap):
        srv = start_exporter(port=0, snapshot_fn=lambda: snap)
        yield srv
        srv.stop()

    def _get(self, url):
        with urllib.request.urlopen(url, timeout=5) as resp:
            return resp.status, resp.headers.get("Content-Type"), resp.read()

    def test_metrics_endpoint(self, server):
        status, ctype, body = self._get(server.url + "/metrics")
        assert status == 200
        assert ctype.startswith("text/plain")
        assert "version=0.0.4" in ctype
        samples, _, _ = _parse(body.decode())
        assert samples  # non-empty, all values parsed

    def test_health_endpoint_serves_snapshot_json(self, server, snap):
        for path in ("/health", "/"):
            status, ctype, body = self._get(server.url + path)
            assert status == 200
            assert ctype == "application/json"
            payload = json.loads(body)
            assert payload["runs"].keys() == snap["runs"].keys()

    def test_unknown_path_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            self._get(server.url + "/nope")
        assert err.value.code == 404
