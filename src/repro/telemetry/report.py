"""Phase-breakdown reporting from saved traces (Fig. 6 style).

The paper's Figure 6 argues from a *per-phase decomposition* of kernel
time — layout transformation vs. Tensor-Core compute vs. write-back —
across the optimisation ladder.  This module rebuilds the same view from
a trace file this library emitted: load spans (either export format),
aggregate wall time by span name, and render an aligned table of

``phase | count | total ms | mean ms | % of run``

where the percentage is taken against the root spans' total (spans with
no parent), i.e. against end-to-end run time rather than the sum of
leaves.  Exposed on the command line as ``python -m repro
telemetry-report TRACE``.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.errors import ReproError
from repro.utils.tables import format_table

__all__ = [
    "PhaseStat",
    "load_trace",
    "load_trace_details",
    "perfwatch_summary",
    "phase_breakdown",
    "render_phase_report",
    "staticcheck_summary",
    "strategy_summary",
]


@dataclass(frozen=True)
class PhaseStat:
    """Aggregated timing of one span name across a trace."""

    name: str
    count: int
    total: float  # seconds
    share: float  # fraction of root-span wall time

    @property
    def mean(self) -> float:
        """Mean span duration in seconds."""
        return self.total / self.count if self.count else 0.0


def _from_chrome(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    spans = []
    for ev in payload.get("traceEvents", []):
        if ev.get("ph") != "X":
            continue
        start = float(ev.get("ts", 0.0)) / 1e6
        dur = float(ev.get("dur", 0.0)) / 1e6
        spans.append(
            {
                "name": str(ev.get("name", "?")),
                "start": start,
                "end": start + dur,
                "duration": dur,
                "span_id": None,
                "parent_id": None,
                "attributes": dict(ev.get("args", {})),
            }
        )
    return spans


def load_trace_details(path: "str | Path") -> "Tuple[List[Dict[str, Any]], List[str]]":
    """Load spans plus a list of skipped-line descriptions.

    Live sessions (a crashed worker, a ``kill -9`` mid-export, an exporter
    scraped while writing) leave truncated or corrupt JSONL lines behind.
    Those lines are **skipped, not fatal**: each produces one entry in the
    returned ``skipped`` list (``"path:lineno: reason"``) so callers can
    report them.  Raises :class:`ReproError` only when the file is
    unreadable, empty, or contains *no* parseable span at all.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ReproError(f"cannot read trace file {path}: {exc}")
    if not text.strip():
        raise ReproError(f"trace file {path} is empty")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        payload = None
    if isinstance(payload, dict) and "traceEvents" in payload:
        return _from_chrome(payload), []
    spans: List[Dict[str, Any]] = []
    skipped: List[str] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            skipped.append(f"{path}:{lineno}: {exc.msg}")
            continue
        if not isinstance(obj, dict) or "name" not in obj:
            skipped.append(f"{path}:{lineno}: not a span object")
            continue
        try:
            obj.setdefault(
                "duration", float(obj.get("end", 0.0)) - float(obj.get("start", 0.0))
            )
        except (TypeError, ValueError):
            skipped.append(f"{path}:{lineno}: non-numeric start/end")
            continue
        obj.setdefault("attributes", {})
        obj.setdefault("parent_id", None)
        obj.setdefault("span_id", None)
        spans.append(obj)
    if not spans:
        first = skipped[0] if skipped else f"{path}: unrecognised format"
        raise ReproError(
            f"trace file {path} contains no parseable spans "
            f"({len(skipped)} malformed line(s); first: {first})"
        )
    return spans, skipped


def load_trace(path: "str | Path") -> List[Dict[str, Any]]:
    """Load spans from a JSONL or Chrome ``trace_event`` file.

    Returns uniform dicts with ``name``/``start``/``end``/``duration``/
    ``span_id``/``parent_id``/``attributes`` keys.  Chrome traces carry no
    parent links; the breakdown then treats the longest-covering span
    heuristic via start/end containment.  Malformed JSONL lines are
    skipped (see :func:`load_trace_details` to also get the skip list).
    """
    spans, _skipped = load_trace_details(path)
    return spans


def _is_root(sp: Dict[str, Any], spans: List[Dict[str, Any]]) -> bool:
    if sp.get("parent_id") is not None:
        return False
    if sp.get("span_id") is not None:
        return True
    # Chrome export lost parent links: treat spans not strictly contained
    # in any other span as roots.
    for other in spans:
        if other is sp:
            continue
        if (
            other["start"] <= sp["start"]
            and sp["end"] <= other["end"]
            and other["duration"] > sp["duration"]
        ):
            return False
    return True


def phase_breakdown(spans: List[Dict[str, Any]]) -> List[PhaseStat]:
    """Aggregate spans by name into :class:`PhaseStat` rows (longest first)."""
    if not spans:
        return []
    totals: Dict[str, List[float]] = {}
    for sp in spans:
        bucket = totals.setdefault(sp["name"], [0, 0.0])
        bucket[0] += 1
        bucket[1] += float(sp["duration"])
    wall = sum(sp["duration"] for sp in spans if _is_root(sp, spans))
    if wall <= 0.0:
        wall = max((sp["duration"] for sp in spans), default=0.0) or 1.0
    stats = [
        PhaseStat(name=name, count=int(count), total=total, share=total / wall)
        for name, (count, total) in totals.items()
    ]
    return sorted(stats, key=lambda s: s.total, reverse=True)


def staticcheck_summary(spans: List[Dict[str, Any]]) -> Dict[str, int]:
    """Aggregate ``staticcheck.*`` span attributes from a trace.

    Returns zeroed totals when the trace contains no staticcheck spans
    (the common case for plain functional runs).
    """
    totals = {"runs": 0, "files": 0, "plans_checked": 0, "findings": 0}
    for sp in spans:
        if not str(sp.get("name", "")).startswith("staticcheck."):
            continue
        totals["runs"] += 1
        attrs = sp.get("attributes", {}) or {}
        for key in ("files", "plans_checked", "findings"):
            try:
                totals[key] += int(attrs.get(key, 0))
            except (TypeError, ValueError):
                pass
    return totals


def strategy_summary(spans: List[Dict[str, Any]]) -> Dict[str, Any]:
    """How passes ran and what choosing cost.

    Counts ``convstencil.pass`` spans per ``strategy=`` attribute, and
    ``runtime.plan.calibrate`` spans with their total seconds and the
    strategy each chose.  Empty counts for traces without runtime passes.
    """
    passes: Counter = Counter()
    chosen: Counter = Counter()
    calibrate_s = 0.0
    for sp in spans:
        name = str(sp.get("name", ""))
        attrs = sp.get("attributes", {}) or {}
        if name == "convstencil.pass":
            passes[str(attrs.get("strategy", "gemm"))] += 1
        elif name == "runtime.plan.calibrate":
            chosen[str(attrs.get("strategy", "?"))] += 1
            calibrate_s += float(sp.get("duration", 0.0))
    return {
        "passes": dict(passes),
        "calibrations": sum(chosen.values()),
        "calibrate_s": calibrate_s,
        "chosen": dict(chosen),
    }


def _counts(counts: Dict[str, int]) -> str:
    return ", ".join(f"{n} {key}" for key, n in sorted(counts.items()))


def perfwatch_summary(spans: List[Dict[str, Any]]) -> Dict[str, int]:
    """Aggregate ``perfwatch.*`` span attributes from a trace.

    Mirrors :func:`staticcheck_summary` for the performance-watch layer:
    suite runs, workloads timed, and timing samples collected.  Zeroed
    when the trace holds no perfwatch spans.
    """
    totals = {"suites": 0, "workloads": 0, "samples": 0}
    for sp in spans:
        name = str(sp.get("name", ""))
        attrs = sp.get("attributes", {}) or {}
        if name == "perfwatch.suite":
            totals["suites"] += 1
            try:
                totals["workloads"] += int(attrs.get("workloads", 0))
            except (TypeError, ValueError):
                pass
        elif name == "perfwatch.workload":
            try:
                totals["samples"] += int(attrs.get("samples", 0))
            except (TypeError, ValueError):
                pass
    return totals


def render_phase_report(trace_path: "str | Path", top: int = 0) -> str:
    """Render the Fig.-6-style phase table for a saved trace file.

    Traces containing ``staticcheck.*`` spans get a one-line footer with
    the aggregated files / plans-checked / findings totals; traces with
    malformed lines get a footer counting what was skipped.
    """
    spans, skipped = load_trace_details(trace_path)
    stats = phase_breakdown(spans)
    if top > 0:
        stats = stats[:top]
    rows = [
        (
            s.name,
            s.count,
            f"{s.total * 1e3:.3f}",
            f"{s.mean * 1e3:.3f}",
            f"{100.0 * s.share:.1f}%",
        )
        for s in stats
    ]
    table = format_table(
        ["phase", "count", "total [ms]", "mean [ms]", "% of run"],
        rows,
        title=f"Phase breakdown ({len(spans)} spans, Fig. 6 style) — {trace_path}",
    )
    sc = staticcheck_summary(spans)
    if sc["runs"]:
        table += (
            f"\nStatic checks: {sc['runs']} run(s), {sc['files']} files, "
            f"{sc['plans_checked']} plans checked, {sc['findings']} findings"
        )
    st = strategy_summary(spans)
    if st["passes"] or st["calibrations"]:
        table += f"\nPass strategies: {_counts(st['passes']) or 'no passes'}"
        if st["calibrations"]:
            table += (
                f"; {st['calibrations']} calibration(s) in "
                f"{st['calibrate_s'] * 1e3:.3f} ms chose {_counts(st['chosen'])}"
            )
    pw = perfwatch_summary(spans)
    if pw["suites"]:
        table += (
            f"\nPerf watch: {pw['suites']} suite run(s), "
            f"{pw['workloads']} workload(s), {pw['samples']} timing sample(s)"
        )
    if skipped:
        table += (
            f"\nSkipped {len(skipped)} malformed trace line(s) "
            f"(first: {skipped[0]})"
        )
    return table
