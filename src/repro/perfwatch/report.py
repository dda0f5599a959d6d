"""Text dashboards over committed ``BENCH_*.json`` baselines.

Two views:

* :func:`render_trajectory` — the performance *trajectory*: one row per
  workload cell, one column per committed baseline (sorted by PR number),
  median wall time in ms, plus a last-vs-first delta column.  This is the
  at-a-glance answer to "has anything drifted since PR N?".
* :func:`render_run` — one run in detail: timing with CI bounds next to
  the Eq.-13/Table-3 efficiency counters, the form the acceptance
  criteria of a perf PR should quote.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, List, Tuple

from repro.errors import ReproError
from repro.perfwatch.baseline import load_baseline
from repro.utils.tables import format_table

__all__ = [
    "discover_baselines",
    "render_run",
    "render_trajectory",
]

_BENCH_RE = re.compile(r"^BENCH_PR(\d+)\.json$")


def discover_baselines(directory: "str | Path | None" = None) -> List[Path]:
    """``BENCH_PR<N>.json`` files under ``directory`` (default cwd),
    sorted by PR number."""
    base = Path(directory) if directory is not None else Path.cwd()
    found: List[Tuple[int, Path]] = []
    for path in base.glob("BENCH_PR*.json"):
        match = _BENCH_RE.match(path.name)
        if match:
            found.append((int(match.group(1)), path))
    return [path for _, path in sorted(found)]


def _label(path: Path) -> str:
    match = _BENCH_RE.match(path.name)
    return f"PR{match.group(1)}" if match else path.stem


def render_trajectory(directory: "str | Path | None" = None) -> str:
    """The cross-PR trajectory table over every committed baseline."""
    paths = discover_baselines(directory)
    if not paths:
        raise ReproError(
            "no BENCH_PR<N>.json baselines found; run `python -m repro "
            "bench --quick` to create the first one"
        )
    reports = [(path, load_baseline(path)) for path in paths]
    labels = [_label(path) for path, _ in reports]
    points: Dict[str, Dict[str, float]] = {}
    for (path, report), label in zip(reports, labels):
        for entry in report["entries"]:
            key = str(entry.get("key", "?"))
            points.setdefault(key, {})[label] = float(entry["timing"]["point"])
    rows = []
    for key in sorted(points):
        series = points[key]
        cells: List[object] = [key]
        for label in labels:
            cells.append(
                f"{series[label] * 1e3:.3f}" if label in series else "-"
            )
        present = [series[label] for label in labels if label in series]
        if len(present) >= 2 and present[0] > 0.0:
            cells.append(f"{100.0 * (present[-1] / present[0] - 1.0):+.1f}%")
        else:
            cells.append("-")
        rows.append(cells)
    return format_table(
        ["workload"] + [f"{lb} [ms]" for lb in labels] + ["drift"],
        rows,
        title=(
            f"Performance trajectory — {len(paths)} baseline(s), "
            "median wall time per run"
        ),
    )


def render_run(report: Dict) -> str:
    """Detail table for one run: timing CI + efficiency counters."""
    rows = []
    for entry in report.get("entries", []):
        timing = entry["timing"]
        counters = entry.get("counters", {})
        rows.append(
            (
                str(entry.get("key", "?")),
                f"{timing['point'] * 1e3:.3f}",
                f"[{timing['ci_low'] * 1e3:.3f}, {timing['ci_high'] * 1e3:.3f}]",
                f"{counters.get('achieved_mma_per_s', 0.0) / 1e6:.2f}",
                f"{counters.get('model_attainment', 0.0):.2e}",
                f"{counters.get('stencil2row_factor', 0.0):.2f}",
                f"{counters.get('plan_cache_hit_rate', 0.0):.2f}",
            )
        )
    table = format_table(
        [
            "workload",
            "median [ms]",
            "95% CI [ms]",
            "MMA/s [M]",
            "vs model",
            "s2r factor",
            "cache hit",
        ],
        rows,
        title=(
            f"perfwatch {report.get('suite', '?')} suite — schema "
            f"{report.get('schema', '?')}, {len(report.get('entries', []))} entries"
        ),
    )
    return table
