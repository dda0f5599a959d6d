"""Observability for the ConvStencil reproduction.

The paper's whole evaluation (§5) rests on measured internals — per-phase
kernel breakdowns (Fig. 6), bank-conflict rates and fragment utilisation
(Table 5) — so this package gives the reproduction the same powers over
its own execution:

* :mod:`repro.telemetry.level` — the one observability switch,
  ``REPRO_OBS`` ∈ ``off`` < ``metrics`` < ``trace`` < ``profile``, read
  once at import; :func:`repro.obs.set_level` is its programmatic setter.
* :mod:`repro.telemetry.trace` — nested wall-time **spans** with
  attributes and a bounded ring buffer (the only event record: the serve
  stages and the :mod:`repro.flight` black box are spans in it too), with
  JSONL / Chrome ``trace_event`` exporters.  Recorded from level
  ``trace`` up, at near-zero cost below it.  Counters, gauges and
  histograms live in one store, the :mod:`repro.obs` collector.
* :mod:`repro.telemetry.log` — library-style ``logging`` wiring
  (``NullHandler`` by default, :func:`configure_logging` to opt in).
* :mod:`repro.telemetry.report` — Fig.-6-style phase-breakdown tables
  rebuilt from a saved trace (``python -m repro report TRACE``).

Typical use::

    from repro import obs, telemetry

    obs.set_level("trace")                       # or REPRO_OBS=trace
    cs.run(grid, steps=12)                       # hot paths emit spans
    telemetry.get_tracer().export("run.json")    # Chrome trace_event
    print(obs.snapshot()["counters"])            # named counters
"""

from repro.telemetry.log import LOGGER_NAME, configure_logging, get_logger
from repro.telemetry.report import (
    PhaseStat,
    load_trace,
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
    "LOGGER_NAME",
    "PhaseStat",
    "Span",
    "SpanContext",
    "TraceContext",
    "Tracer",
    "configure_logging",
    "current_trace",
    "enabled",
    "get_logger",
    "get_tracer",
    "load_trace",
    "new_trace_id",
    "phase_breakdown",
    "record_span",
    "render_phase_report",
    "reset_trace",
    "set_trace",
    "span",
    "staticcheck_summary",
    "trace_scope",
]
