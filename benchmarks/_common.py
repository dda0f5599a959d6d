"""Shared helpers for the benchmark harness.

Every bench regenerates one paper table/figure: it times the relevant code
path under pytest-benchmark and *emits* the paper-format rows both to the
terminal (bypassing capture, so ``pytest benchmarks/ --benchmark-only``
shows them) and to ``benchmarks/results/<name>.txt`` for the record.

On read-only checkouts (CI artifacts, mounted images) the results
directory falls back to a per-user temp directory with a warning instead
of crashing the bench.  When telemetry is enabled, :func:`emit_telemetry`
persists the span trace and metrics snapshot next to the results so a
bench's numbers and its trace travel together.
"""

from __future__ import annotations

import os
import sys
import tempfile
import warnings
from pathlib import Path

from repro import obs, telemetry
from repro.utils.io import dump_json, experiment_record

RESULTS_DIR = Path(__file__).parent / "results"


def _results_dir() -> Path:
    """``RESULTS_DIR``, created on demand; temp-dir fallback if read-only."""
    try:
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        if not os.access(RESULTS_DIR, os.W_OK):
            raise PermissionError(f"no write permission on {RESULTS_DIR}")
        return RESULTS_DIR
    except OSError as exc:
        fallback = Path(tempfile.gettempdir()) / "repro-bench-results"
        fallback.mkdir(parents=True, exist_ok=True)
        warnings.warn(
            f"results dir {RESULTS_DIR} is not writable ({exc}); "
            f"falling back to {fallback}",
            RuntimeWarning,
            stacklevel=3,
        )
        return fallback


def emit(name: str, text: str) -> None:
    """Print a result table uncaptured and persist it under results/.

    Routed through telemetry (a ``bench.emit`` span + obs counter) so a traced
    benchmark run records *which* tables it produced and when.
    """
    with telemetry.span("bench.emit", bench=name, kind="text"):
        (_results_dir() / f"{name}.txt").write_text(text + "\n")
    obs.count("bench.emit")
    sys.__stdout__.write("\n" + text + "\n")
    sys.__stdout__.flush()


def emit_json(name: str, rows, **metadata) -> None:
    """Persist an experiment's structured rows as results/<name>.json.

    JSON results are written durably (fsync + atomic rename): a benchmark
    process killed mid-write must never leave a truncated
    ``results/*.json`` that poisons later tooling.
    """
    with telemetry.span("bench.emit", bench=name, kind="json"):
        dump_json(
            _results_dir() / f"{name}.json",
            experiment_record(name, rows, **metadata),
            fsync=True,
        )
    obs.count("bench.emit")


def emit_obs(name: str) -> None:
    """Persist the live-observability snapshot as results/<name>.obs.json.

    No-op below the ``metrics`` observability level (``REPRO_OBS`` or
    ``obs.set_level``); when active, the snapshot — per-plan latency
    quantiles, achieved-vs-model throughput, worker state — lands next to
    the bench's tables so numbers and runtime health travel together.
    """
    if not obs.enabled():
        return
    with telemetry.span("bench.emit", bench=name, kind="obs"):
        dump_json(_results_dir() / f"{name}.obs.json", obs.snapshot(), fsync=True)
    obs.count("bench.emit")


def emit_telemetry(name: str) -> None:
    """Persist the current trace + metrics snapshot next to the results.

    No-op unless telemetry is enabled and spans were recorded; writes
    ``results/<name>.trace.json`` (Chrome ``trace_event``) and
    ``results/<name>.metrics.json``.
    """
    tracer = telemetry.get_tracer()
    if not telemetry.enabled() or len(tracer) == 0:
        return
    out = _results_dir()
    tracer.export_chrome_trace(out / f"{name}.trace.json")
    snap = obs.get_collector().snapshot()
    dump_json(
        out / f"{name}.metrics.json",
        {"counters": snap["counters"], "gauges": snap["gauges"]},
    )
