"""Stage waterfalls rebuilt from span JSONL.

The serve path records each request's pipeline as ``serve.<stage>``
spans stamped with ``request_id``/``trace_id``/``tenant``; the terminal
span (``split`` when served, ``admit`` when rejected, ``execute`` on
error) also carries ``status``, ``reason`` and ``slo_breached``.  Tracer
exports and black-box dumps are both plain span JSONL, read here through
one loader (:func:`repro.telemetry.report.load_trace_details`).

:func:`traces_by_request` folds spans into per-request trace dicts,
:func:`render_waterfall` draws one as a proportional bar chart — queue
wait vs execute vs split — plus the coalesced-batch membership the
``execute`` stage links.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import ReproError
from repro.serve.request import STAGES
from repro.telemetry.report import load_trace_details

__all__ = [
    "load_requests",
    "missing_stages",
    "render_request_list",
    "render_request_report",
    "render_waterfall",
    "spans_to_trace",
    "traces_by_request",
]

_BAR_WIDTH = 40

#: Attributes lifted from the stage spans onto the trace itself.
_IDENTITY = ("request_id", "trace_id", "tenant")
_OUTCOME = ("status", "reason", "slo_breached")


def traces_by_request(spans: Iterable[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Per-request trace dicts from span dicts, in admission order.

    A trace's ``status`` comes from its terminal span; a request with no
    terminal span yet reads ``open``.  When a request id is admitted
    again (``repro serve`` replays its ids every cycle), the newest
    admission wins.
    """
    traces: Dict[str, Dict[str, Any]] = {}
    for span in spans:
        name = str(span.get("name", ""))
        stage = name[len("serve."):]
        if not name.startswith("serve.") or stage not in STAGES:
            continue
        attrs = span.get("attributes") or {}
        rid = str(attrs.get("request_id", ""))
        if not rid:
            continue
        if stage == "admit":
            traces.pop(rid, None)  # a reused request id: the newest wins
        trace = traces.setdefault(
            rid,
            {
                "request_id": rid,
                "tenant": str(attrs.get("tenant", "")),
                "trace_id": str(attrs.get("trace_id", "")),
                "status": "open",
                "stages": [],
            },
        )
        for key in _OUTCOME:
            if key in attrs:
                trace[key] = attrs[key]
        extra = {k: v for k, v in attrs.items() if k not in _IDENTITY + _OUTCOME}
        trace["stages"].append(
            {
                "name": stage,
                "start": float(span.get("start", 0.0)),
                "end": float(span.get("end", 0.0)),
                "attributes": extra,
            }
        )
    for trace in traces.values():
        trace["stages"].sort(key=lambda s: (s["start"], STAGES.index(s["name"])))
    return traces


def spans_to_trace(
    spans: Iterable[Dict[str, Any]], request_id: str
) -> Optional[Dict[str, Any]]:
    """The trace dict of one request, or ``None`` when it never appears.

    ``request_id`` may also be a ``trace_id`` (what an exemplar and the
    live view's ``slowest`` column name).  A trace id names one
    admission, so it is matched before the newest-wins fold: a
    re-admitted request id still finds its older trace.
    """
    spans = list(spans)
    admission = traces_by_request(
        sp for sp in spans if (sp.get("attributes") or {}).get("trace_id") == request_id
    )
    if admission:
        return next(iter(admission.values()))
    return traces_by_request(spans).get(request_id)


def missing_stages(trace: Dict[str, Any]) -> Tuple[str, ...]:
    """Pipeline stages the trace never recorded."""
    seen = {s["name"] for s in trace.get("stages") or []}
    return tuple(name for name in STAGES if name not in seen)


def _fmt_duration(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.0f}µs"


def _extent(stages: List[Dict[str, Any]]) -> Tuple[float, float]:
    return (
        min(float(s.get("start", 0.0)) for s in stages),
        max(float(s.get("end", 0.0)) for s in stages),
    )


def render_waterfall(trace: Dict[str, Any]) -> List[str]:
    """Render one trace dict as a proportional stage waterfall."""
    stages = trace.get("stages") or []
    lines: List[str] = []
    head = (
        f"request {trace.get('request_id', '?')}  "
        f"tenant={trace.get('tenant') or '-'}  "
        f"trace={trace.get('trace_id') or '-'}  "
        f"status={trace.get('status', '?')}"
    )
    if trace.get("slo_breached"):
        head += "  [SLO BREACH]"
    lines.append(head)
    if trace.get("reason"):
        lines.append(f"  reason: {trace['reason']}")
    if not stages:
        lines.append("  (no stages recorded)")
        return lines

    t0, t1 = _extent(stages)
    span = max(t1 - t0, 1e-12)
    total = t1 - t0
    name_w = max(len(str(s.get("name", ""))) for s in stages)
    for s in stages:
        start = float(s.get("start", 0.0))
        end = float(s.get("end", 0.0))
        dur = max(0.0, end - start)
        lo = int(round((start - t0) / span * _BAR_WIDTH))
        hi = int(round((end - t0) / span * _BAR_WIDTH))
        hi = max(hi, lo + 1)
        bar = " " * lo + "█" * (hi - lo)
        pct = (dur / total * 100.0) if total > 0 else 0.0
        lines.append(
            f"  {str(s.get('name', '')).ljust(name_w)} "
            f"|{bar.ljust(_BAR_WIDTH)}| {_fmt_duration(dur):>9}  {pct:5.1f}%"
        )
    lines.append(f"  total {_fmt_duration(total)}")

    execute = next(
        (s for s in stages if s.get("name") == "execute"), None
    )
    if execute is not None:
        attrs = execute.get("attributes") or {}
        links = attrs.get("links") or []
        batch_id = attrs.get("batch_id", "")
        if batch_id or links:
            lines.append(
                f"  coalesced into batch {batch_id or '-'} "
                f"with {len(links)} member(s): {', '.join(str(x) for x in links)}"
            )

    missing = missing_stages(trace)
    if missing and trace.get("status", "ok") == "ok":
        lines.append(
            f"  warning: trace truncated — missing stage(s): {', '.join(missing)}"
        )
    return lines


def load_requests(path: "str | Path") -> Tuple[Dict[str, Dict[str, Any]], List[str]]:
    """Per-request traces of a span JSONL file, plus its skipped lines.

    Malformed lines are reported, never fatal: a black-box dump may be
    truncated by the very failure it was recording.
    """
    spans, skipped = load_trace_details(path)
    return traces_by_request(spans), skipped


def render_request_report(path: "str | Path", request_id: str) -> List[str]:
    """Render the stage waterfall for one request from a span JSONL file.

    ``request_id`` may be a request id or a trace id
    (:func:`spans_to_trace`).  Raises :class:`~repro.errors.ReproError`
    with the known request ids when it does not appear at all.
    """
    spans, skipped = load_trace_details(path)
    trace = spans_to_trace(spans, request_id)
    if trace is None:
        known = list(traces_by_request(spans))
        hint = (
            f" — known request ids: {', '.join(known[:10])}"
            + ("..." if len(known) > 10 else "")
            if known
            else " — the file contains no request-stamped spans"
        )
        raise ReproError(
            f"request or trace id {request_id!r} not found in {path}{hint}"
        )
    lines = render_waterfall(trace)
    lines.extend(f"  note: skipped {problem}" for problem in skipped)
    return lines


def render_request_list(path: "str | Path") -> List[str]:
    """One line per request recorded in a span JSONL file."""
    traces, skipped = load_requests(path)
    if not traces:
        lines = [f"FLIGHT: no request-stamped spans in {path}"]
    else:
        lines = [f"FLIGHT: {len(traces)} request(s) in {path}"]
    for trace in traces.values():
        stages = trace["stages"]
        t0, t1 = _extent(stages)
        flags = "  [SLO BREACH]" if trace.get("slo_breached") else ""
        if trace.get("reason"):
            flags += f"  reason={trace['reason']}"
        lines.append(
            f"  {trace['request_id']:>12}  "
            f"tenant={trace['tenant'] or '-':<10} "
            f"status={trace['status']:<8} "
            f"{len(stages)} stage(s)  {(t1 - t0) * 1e3:8.2f}ms{flags}"
        )
    lines.extend(f"  note: skipped {problem}" for problem in skipped)
    if traces:
        lines.append("FLIGHT: replay one with --request-id <id>")
    return lines
