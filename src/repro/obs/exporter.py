"""Prometheus-text + JSON-health exporter for the obs layer.

Two consumers, one snapshot: :func:`render_prometheus` turns the
collector's JSON-able snapshot into Prometheus exposition text
(version 0.0.4 — ``HELP``/``TYPE`` headers, cumulative ``le`` histogram
buckets), and :class:`ExporterServer` serves both representations from a
stdlib ``http.server`` daemon thread:

* ``GET /metrics`` — Prometheus text;
* ``GET /health`` (and ``/``) — the raw JSON snapshot, which is also
  what ``repro report --live URL`` polls.

The server binds loopback by default and is started explicitly
(:func:`start_exporter` or the CLI) — never as an import side effect.
"""

from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional

from repro.telemetry.log import get_logger

__all__ = [
    "DEFAULT_PORT",
    "ExporterServer",
    "render_prometheus",
    "start_exporter",
]

_log = get_logger("obs.exporter")

#: The exporter's port when the caller names none.
DEFAULT_PORT = 9109


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _fmt(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    return repr(float(value))


class _Lines:
    """Accumulates exposition lines with one HELP/TYPE header per family."""

    def __init__(self) -> None:
        self._out: List[str] = []
        self._declared: set = set()

    def family(self, name: str, kind: str, help_text: str) -> None:
        if name not in self._declared:
            self._out.append(f"# HELP {name} {help_text}")
            self._out.append(f"# TYPE {name} {kind}")
            self._declared.add(name)

    def sample(
        self,
        name: str,
        labels: Optional[Dict[str, str]],
        value: float,
        exemplar: Optional[Dict[str, Any]] = None,
    ) -> None:
        """One sample line, optionally with an OpenMetrics-style exemplar.

        The exemplar renders as a ``# {label="..."} value`` annotation
        after the sample — Prometheus 0.0.4 scrapers treat everything
        past ``#`` as a comment, OpenMetrics-aware ones pick up the
        linked trace.
        """
        if labels:
            rendered = ",".join(
                f'{k}="{_escape_label(str(v))}"' for k, v in sorted(labels.items())
            )
            line = f"{name}{{{rendered}}} {_fmt(value)}"
        else:
            line = f"{name} {_fmt(value)}"
        if exemplar:
            ex_value = exemplar.get("value", 0.0)
            ex_labels = ",".join(
                f'{k}="{_escape_label(str(v))}"'
                for k, v in sorted(exemplar.items())
                if k != "value" and v
            )
            line += f" # {{{ex_labels}}} {_fmt(float(ex_value))}"
        self._out.append(line)

    def text(self) -> str:
        return "\n".join(self._out) + "\n"


def render_prometheus(snap: Dict[str, Any]) -> str:
    """Prometheus exposition text for one collector snapshot."""
    from repro.obs.hist import LatencyHistogram

    out = _Lines()

    out.family("repro_obs_uptime_seconds", "gauge", "Seconds since the obs collector started.")
    out.sample("repro_obs_uptime_seconds", None, float(snap.get("uptime_s", 0.0)))

    cache = snap.get("plan_cache") or {}
    out.family("repro_plan_cache_hits_total", "counter", "Plan cache hits.")
    out.sample("repro_plan_cache_hits_total", None, float(cache.get("hits", 0)))
    out.family("repro_plan_cache_misses_total", "counter", "Plan cache misses.")
    out.sample("repro_plan_cache_misses_total", None, float(cache.get("misses", 0)))
    out.family("repro_plan_cache_evictions_total", "counter", "Plan cache evictions.")
    out.sample("repro_plan_cache_evictions_total", None, float(cache.get("evictions", 0)))
    out.family("repro_plan_cache_size", "gauge", "Plans currently cached.")
    out.sample("repro_plan_cache_size", None, float(cache.get("size", 0)))
    out.family("repro_plan_cache_hit_rate", "gauge", "Plan cache hit rate.")
    out.sample("repro_plan_cache_hit_rate", None, float(cache.get("hit_rate", 0.0)))

    for label, stats in sorted((snap.get("runs") or {}).items()):
        plan = {"plan": label}
        out.family("repro_run_total", "counter", "Completed run/run_batch calls.")
        out.sample("repro_run_total", plan, float(stats.get("runs", 0)))
        out.family(
            "repro_slo_breaches_total",
            "counter",
            "Runs whose latency exceeded REPRO_OBS_SLO_MS.",
        )
        out.sample("repro_slo_breaches_total", plan, float(stats.get("slo_breaches", 0)))
        out.family(
            "repro_achieved_gstencils_per_second",
            "gauge",
            "Achieved stencil updates per second (1e9/s).",
        )
        out.sample(
            "repro_achieved_gstencils_per_second",
            plan,
            float(stats.get("achieved_gstencils_per_s", 0.0)),
        )

        latency = stats.get("latency")
        if latency:
            try:
                hist = LatencyHistogram.from_dict(latency)
            except (TypeError, ValueError) as exc:
                _log.warning("snapshot histogram for %s unusable: %s", label, exc)
                continue
            out.family(
                "repro_run_latency_seconds",
                "histogram",
                "run/run_batch latency distribution.",
            )
            for bound, cumulative in hist.cumulative():
                le = dict(plan)
                le["le"] = "+Inf" if bound == math.inf else _fmt(bound)
                out.sample("repro_run_latency_seconds_bucket", le, float(cumulative))
            out.sample("repro_run_latency_seconds_sum", plan, float(hist.sum))
            out.sample("repro_run_latency_seconds_count", plan, float(hist.count))

    for tenant, entry in sorted((snap.get("tenants") or {}).items()):
        base = {"tenant": tenant}
        out.family(
            "repro_tenant_requests_total",
            "counter",
            "Serving-layer requests by tenant and outcome.",
        )
        for outcome, count in sorted((entry.get("outcomes") or {}).items()):
            labels = dict(base)
            labels["outcome"] = outcome
            out.sample("repro_tenant_requests_total", labels, float(count))
        out.family(
            "repro_tenant_slo_breaches_total",
            "counter",
            "Served requests whose latency exceeded the SLO budget.",
        )
        out.sample(
            "repro_tenant_slo_breaches_total", base, float(entry.get("slo_breaches", 0))
        )
        latency = entry.get("latency")
        if latency:
            try:
                hist = LatencyHistogram.from_dict(latency)
            except (TypeError, ValueError) as exc:
                _log.warning("tenant histogram for %s unusable: %s", tenant, exc)
                continue
            out.family(
                "repro_tenant_latency_seconds",
                "histogram",
                "Serving-layer request latency distribution by tenant.",
            )
            for index, (bound, cumulative) in enumerate(hist.cumulative()):
                le = dict(base)
                le["le"] = "+Inf" if bound == math.inf else _fmt(bound)
                ex = hist.bucket_exemplar(index)
                out.sample(
                    "repro_tenant_latency_seconds_bucket",
                    le,
                    float(cumulative),
                    exemplar=(
                        {
                            "trace_id": ex.trace_id,
                            "tenant": ex.tenant,
                            "plan": ex.label,
                            "value": ex.value,
                        }
                        if ex is not None
                        else None
                    ),
                )
            out.sample("repro_tenant_latency_seconds_sum", base, float(hist.sum))
            out.sample("repro_tenant_latency_seconds_count", base, float(hist.count))

    serve = snap.get("serve") or {}
    if serve.get("batches"):
        out.family(
            "repro_serve_batches_total", "counter", "Coalesced serving batches flushed."
        )
        out.sample("repro_serve_batches_total", None, float(serve.get("batches", 0)))
        out.family(
            "repro_serve_batched_requests_total",
            "counter",
            "Requests served through coalesced batches.",
        )
        out.sample(
            "repro_serve_batched_requests_total",
            None,
            float(serve.get("batched_requests", 0)),
        )
        out.family(
            "repro_serve_batch_size_max", "gauge", "Largest coalesced batch observed."
        )
        out.sample("repro_serve_batch_size_max", None, float(serve.get("max_batch", 0)))
        out.family(
            "repro_serve_batch_size_mean", "gauge", "Mean coalesced batch size."
        )
        out.sample(
            "repro_serve_batch_size_mean", None, float(serve.get("mean_batch", 0.0))
        )
        out.family(
            "repro_serve_affinity_hits_total",
            "counter",
            "Batches routed to a lane already holding the warm plan.",
        )
        out.sample(
            "repro_serve_affinity_hits_total", None, float(serve.get("affinity_hits", 0))
        )
        out.family(
            "repro_serve_affinity_misses_total",
            "counter",
            "Batches that had to warm a plan on a new lane.",
        )
        out.sample(
            "repro_serve_affinity_misses_total",
            None,
            float(serve.get("affinity_misses", 0)),
        )
        out.family(
            "repro_serve_queue_depth", "gauge", "Admitted-but-unanswered requests."
        )
        out.sample("repro_serve_queue_depth", None, float(serve.get("queue_depth", 0)))
        out.family(
            "repro_serve_queue_peak", "gauge", "Peak admitted-but-unanswered requests."
        )
        out.sample("repro_serve_queue_peak", None, float(serve.get("queue_peak", 0)))

    profile = snap.get("profile") or {}
    out.family(
        "repro_profiler_samples_total",
        "counter",
        "Sampling-profiler stack samples by pipeline phase.",
    )
    for phase, count in sorted((profile.get("phases") or {}).items()):
        out.sample("repro_profiler_samples_total", {"phase": phase}, float(count))
    return out.text()


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-obs/1"

    def _send(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler naming)
        path = self.path.split("?", 1)[0]
        try:
            if path == "/metrics":
                snap = self.server.snapshot_fn()  # type: ignore[attr-defined]
                body = render_prometheus(snap).encode()
                self._send(200, "text/plain; version=0.0.4; charset=utf-8", body)
            elif path in ("/", "/health"):
                snap = self.server.snapshot_fn()  # type: ignore[attr-defined]
                body = json.dumps(snap, sort_keys=True).encode()
                self._send(200, "application/json", body)
            else:
                self._send(404, "text/plain; charset=utf-8", b"not found\n")
        except (OSError, ValueError) as exc:
            # Client went away mid-write or a snapshot field failed to
            # serialise; log and keep the server thread alive.
            _log.warning("exporter request %s failed: %s", self.path, exc)

    def log_message(self, fmt: str, *args) -> None:
        _log.debug("exporter: " + fmt, *args)


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True


class ExporterServer:
    """A running exporter: daemon HTTP thread + stop handle."""

    def __init__(self, host: str, port: int, snapshot_fn) -> None:
        self._httpd = _Server((host, port), _Handler)
        self._httpd.snapshot_fn = snapshot_fn  # type: ignore[attr-defined]
        self.host, self.port = self._httpd.server_address[:2]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-obs-exporter",
            daemon=True,
        )
        self._thread.start()
        _log.info("obs exporter listening on http://%s:%d/metrics", self.host, self.port)

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stop(self) -> None:
        """Shut the server down and join its thread."""
        self._httpd.shutdown()
        self._thread.join(timeout=5.0)
        self._httpd.server_close()


def start_exporter(
    port: Optional[int] = None,
    host: str = "127.0.0.1",
    snapshot_fn=None,
) -> ExporterServer:
    """Start the exporter thread on ``port`` (:data:`DEFAULT_PORT` when
    ``None``; ``0`` picks an ephemeral port).

    ``snapshot_fn`` defaults to :func:`repro.obs.snapshot`; tests inject a
    canned snapshot instead.
    """
    if snapshot_fn is None:
        from repro import obs

        snapshot_fn = obs.snapshot
    return ExporterServer(host, DEFAULT_PORT if port is None else port, snapshot_fn)
