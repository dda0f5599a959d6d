"""Observability for the ConvStencil reproduction.

The paper's whole evaluation (§5) rests on measured internals — per-phase
kernel breakdowns (Fig. 6), bank-conflict rates and fragment utilisation
(Table 5) — so this package gives the reproduction the same powers over
its own execution:

* :mod:`repro.telemetry.trace` — nested wall-time **spans** with
  attributes, a thread-safe buffer, and JSONL / Chrome ``trace_event``
  exporters.  Off by default; enable with ``REPRO_TELEMETRY=1`` or
  :func:`enable`, at near-zero cost while off.
* :mod:`repro.telemetry.metrics` — a **registry** of counters, gauges,
  and fixed-bucket histograms, plus adapters folding the GPU simulator's
  :class:`~repro.gpu.counters.PerfCounters` in (and back out, bit-exactly).
* :mod:`repro.telemetry.log` — library-style ``logging`` wiring
  (``NullHandler`` by default, :func:`configure_logging` to opt in).
* :mod:`repro.telemetry.report` — Fig.-6-style phase-breakdown tables
  rebuilt from a saved trace (``python -m repro telemetry-report``).

Typical use::

    from repro import telemetry

    telemetry.enable()
    cs.run(grid, steps=12)                       # hot paths emit spans
    telemetry.get_tracer().export("run.json")    # Chrome trace_event
    print(telemetry.get_registry().snapshot())   # folded sim counters
"""

from repro.telemetry.log import LOGGER_NAME, configure_logging, get_logger
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    fold_perf_counters,
    gauge,
    get_registry,
    histogram,
    perf_counters_from_registry,
)
from repro.telemetry.report import (
    PhaseStat,
    load_trace,
    perfwatch_summary,
    phase_breakdown,
    render_phase_report,
    staticcheck_summary,
)
from repro.telemetry.trace import (
    Span,
    SpanContext,
    TraceContext,
    Tracer,
    current_trace,
    disable,
    enable,
    enabled,
    get_tracer,
    new_trace_id,
    record_span,
    reset_trace,
    set_trace,
    span,
    trace_scope,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LOGGER_NAME",
    "MetricsRegistry",
    "PhaseStat",
    "Span",
    "SpanContext",
    "TraceContext",
    "Tracer",
    "configure_logging",
    "counter",
    "current_trace",
    "disable",
    "enable",
    "enabled",
    "fold_perf_counters",
    "gauge",
    "get_logger",
    "get_registry",
    "get_tracer",
    "histogram",
    "load_trace",
    "new_trace_id",
    "perf_counters_from_registry",
    "perfwatch_summary",
    "phase_breakdown",
    "record_span",
    "render_phase_report",
    "reset_trace",
    "set_trace",
    "span",
    "staticcheck_summary",
    "trace_scope",
]
