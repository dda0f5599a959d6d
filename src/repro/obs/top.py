"""``repro top`` — curses-free ANSI live view of the obs snapshot.

Renders, entirely from the collector's JSON snapshot (local or fetched
from a running exporter's ``/health`` endpoint):

* the plan cache line (hit rate, size, evictions);
* a per-plan-key table — runs, p50/p95/p99 latency, SLO breaches,
  achieved MMA/s and GStencil/s, model attainment;
* per-tenant serving state;
* the profiler's phase attribution as proportional bars.

Rendering is a pure function of the snapshot (deterministic given the
data — what the CI smoke's ``repro top --once`` leans on); the live loop
just clears the screen and re-renders every interval.  Only ANSI escape
sequences are used — no curses — so output degrades gracefully when
piped (``--no-color`` drops the escapes entirely).
"""

from __future__ import annotations

import json
import math
import time
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ReproError
from repro.utils.tables import format_table

__all__ = ["fetch_snapshot", "render_top", "run_demo_workload", "run_live"]

_CLEAR = "\x1b[2J\x1b[H"
_BOLD = "\x1b[1m"
_DIM = "\x1b[2m"
_GREEN = "\x1b[32m"
_YELLOW = "\x1b[33m"
_RED = "\x1b[31m"
_RESET = "\x1b[0m"

#: Phase-bar glyphs: full block for the filled part, light shade for the rest.
_BAR_WIDTH = 24


def _fmt_latency(seconds: float) -> str:
    if seconds != seconds or seconds == math.inf:
        return ">10s"
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds * 1e6:.0f}us"


def _paint(text: str, code: str, color: bool) -> str:
    return f"{code}{text}{_RESET}" if color else text


def _attainment_cell(fraction: float, color: bool) -> str:
    text = f"{100.0 * fraction:.1f}%"
    if not color:
        return text
    code = _GREEN if fraction >= 0.5 else (_YELLOW if fraction >= 0.1 else _RED)
    return _paint(text, code, color)


def _slowest_exemplar(entry: Dict[str, Any]) -> str:
    """``trace@latency`` of the worst exemplar in a tenant's histogram."""
    exemplars = (entry.get("latency") or {}).get("exemplars") or {}
    best: Optional[List[Any]] = None
    for raw in exemplars.values():
        if not raw:
            continue
        if best is None or float(raw[0]) > float(best[0]):
            best = raw
    if best is None:
        return "-"
    trace_id = str(best[1]) if len(best) > 1 else ""
    return f"{trace_id or '?'}@{_fmt_latency(float(best[0]))}"


_ALERT_CODES = {"ok": _GREEN, "pending": _YELLOW, "firing": _RED}


def render_top(snap: Dict[str, Any], color: bool = True) -> List[str]:
    """Render one frame of the live view as a list of lines."""
    lines: List[str] = []
    slo = snap.get("slo_seconds")
    header = (
        f"repro top — pid {snap.get('pid', '?')}, "
        f"uptime {snap.get('uptime_s', 0.0):.1f}s"
    )
    if slo:
        header += f", SLO {_fmt_latency(float(slo))}"
    lines.append(_paint(header, _BOLD, color))

    cache = snap.get("plan_cache") or {}
    lines.append(
        "plan cache: "
        f"{int(cache.get('hits', 0))} hit / {int(cache.get('misses', 0))} miss "
        f"(rate {100.0 * float(cache.get('hit_rate', 0.0)):.1f}%), "
        f"{int(cache.get('size', 0))}/{int(cache.get('capacity', 0))} plans, "
        f"{int(cache.get('evictions', 0))} evicted"
    )
    lines.append("")

    runs = snap.get("runs") or {}
    if runs:
        rows = []
        for label, stats in sorted(runs.items()):
            rows.append(
                (
                    label,
                    stats.get("runs", 0),
                    _fmt_latency(float(stats.get("p50_s", 0.0))),
                    _fmt_latency(float(stats.get("p95_s", 0.0))),
                    _fmt_latency(float(stats.get("p99_s", 0.0))),
                    stats.get("slo_breaches", 0),
                    f"{float(stats.get('achieved_mma_per_s', 0.0)):.3g}",
                    f"{float(stats.get('achieved_gstencils_per_s', 0.0)):.4f}",
                    _attainment_cell(float(stats.get("model_attainment", 0.0)), color),
                )
            )
        lines.extend(
            format_table(
                ["plan", "runs", "p50", "p95", "p99", "slo✗", "MMA/s", "GSt/s", "attain"],
                rows,
                title="Runs (per plan key)",
            ).splitlines()
        )
    else:
        lines.append(_paint("no runs recorded yet", _DIM, color))
    lines.append("")

    tenants = snap.get("tenants") or {}
    if tenants:
        rows = []
        for tenant, entry in sorted(tenants.items()):
            outcomes = entry.get("outcomes") or {}
            rows.append(
                (
                    tenant,
                    int(entry.get("requests", 0)),
                    int(outcomes.get("ok", 0)),
                    int(outcomes.get("rejected_quota", 0))
                    + int(outcomes.get("rejected_queue", 0)),
                    _fmt_latency(float(entry.get("p50_s", 0.0))),
                    _fmt_latency(float(entry.get("p99_s", 0.0))),
                    int(entry.get("slo_breaches", 0)),
                    _slowest_exemplar(entry),
                )
            )
        lines.extend(
            format_table(
                ["tenant", "req", "ok", "rej", "p50", "p99", "slo✗", "slowest"],
                rows,
                title="Tenants (serving)",
            ).splitlines()
        )
        serve = snap.get("serve") or {}
        if serve.get("batches"):
            hits = int(serve.get("affinity_hits", 0))
            total_batches = hits + int(serve.get("affinity_misses", 0))
            rate = 100.0 * hits / total_batches if total_batches else 0.0
            lines.append(
                f"serving: {int(serve.get('batches', 0))} batch(es), "
                f"mean {float(serve.get('mean_batch', 0.0)):.2f} / "
                f"max {int(serve.get('max_batch', 0))} coalesced, "
                f"affinity {rate:.1f}%, "
                f"queue peak {int(serve.get('queue_peak', 0))}"
            )
        lines.append("")

    alerts = snap.get("alerts") or []
    if alerts:
        lines.append(_paint("Alerts (SLO burn rate)", _BOLD, color))
        for alert in alerts:
            state = str(alert.get("state", "ok"))
            windows = alert.get("windows") or {}
            burns = ", ".join(
                f"{name} {float(info.get('burn_rate', 0.0)):.2f}x"
                f"/{float(info.get('threshold', 0.0)):.1f}x"
                for name, info in sorted(windows.items())
            )
            lines.append(
                f"  {alert.get('name', '?')}: "
                f"{_paint(state.upper(), _ALERT_CODES.get(state, _RED), color)}"
                f"  ({burns}; {int(alert.get('transitions', 0))} transition(s))"
            )
        lines.append("")

    profile = snap.get("profile") or {}
    phases = profile.get("phases") or {}
    total = sum(int(n) for n in phases.values())
    if total > 0:
        lines.append(
            _paint(
                f"Profiler phases ({total} samples @ "
                f"{float(profile.get('interval_s', 0.0)) * 1e3:.1f}ms)",
                _BOLD,
                color,
            )
        )
        width = max(len(p) for p in phases)
        for phase, count in sorted(phases.items(), key=lambda kv: (-kv[1], kv[0])):
            share = int(count) / total
            filled = round(share * _BAR_WIDTH)
            bar = "█" * filled + "░" * (_BAR_WIDTH - filled)
            lines.append(f"  {phase:<{width}} {bar} {100.0 * share:5.1f}% ({count})")
    else:
        lines.append(_paint("profiler: no samples", _DIM, color))
    return lines


def fetch_snapshot(url: str, timeout: float = 2.0) -> Dict[str, Any]:
    """Fetch ``/health`` from a running exporter."""
    import urllib.error
    import urllib.request

    target = url.rstrip("/")
    if not target.endswith("/health"):
        target += "/health"
    try:
        with urllib.request.urlopen(target, timeout=timeout) as resp:
            return json.loads(resp.read().decode())
    except (urllib.error.URLError, OSError, ValueError) as exc:
        raise ReproError(f"cannot fetch obs snapshot from {target}: {exc}")


def run_demo_workload(runs: int = 1) -> None:
    """A small ``serial`` ``run_batch`` workload that exercises the run gauges.

    Used by ``repro top --demo`` and ``repro obs-snapshot --demo`` so the
    view has data without a separately running workload.  The plan is
    pinned to the ``gemm`` strategy, so the profiler sees the
    stencil2row and GEMM phases a measured ``direct`` choice would skip.
    """
    from repro import obs
    from repro.runtime.execute import execute_batch, plan_for
    from repro.stencils.catalog import get_kernel
    from repro.utils.rng import default_rng

    obs.enable()
    kernel = get_kernel("heat-2d")
    batch = default_rng(0).random((2, 48, 48))
    plan = plan_for(kernel, (48, 48), strategy="gemm")
    for _ in range(max(1, runs)):
        execute_batch(plan, batch, 2, backend="serial")


def run_live(
    interval: float = 2.0,
    frames: Optional[int] = None,
    url: Optional[str] = None,
    demo: bool = False,
    color: bool = True,
    print_fn: Callable[[str], None] = print,
) -> int:
    """The live loop: snapshot → clear screen → render, every interval.

    ``frames=None`` runs until interrupted; returns frames rendered.
    """
    rendered = 0
    try:
        while frames is None or rendered < frames:
            if demo:
                run_demo_workload(runs=1)
            if url:
                snap = fetch_snapshot(url)
            else:
                from repro import obs

                snap = obs.snapshot()
            frame = "\n".join(render_top(snap, color=color))
            if color:
                print_fn(_CLEAR + frame)
            else:
                print_fn(frame)
            rendered += 1
            if frames is not None and rendered >= frames:
                break
            time.sleep(interval)
    except KeyboardInterrupt:
        pass
    return rendered
