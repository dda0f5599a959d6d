"""repro.obs — live runtime introspection (env-gated, near-free when off).

Traces (:mod:`repro.telemetry`) say *where the time went* after the fact;
this layer is the process's one metrics store and keeps the same signals
**live**: while a workload runs it maintains per-plan-key and
per-tenant latency histograms with SLO accounting, the measured
GStencil/s of each plan key, named counters and gauges (:func:`count`,
:func:`set_gauge`, and the simulator's ``sim.*`` fold), and a sampling
profiler attributing time to the pipeline's phases — servable over HTTP
(:mod:`repro.obs.exporter`) and rendered by ``repro report --live``
(the :mod:`repro.obs.top` frame, JSON or Prometheus text).

Everything here runs from the ``metrics`` observability level up
(``REPRO_OBS=metrics``, see :mod:`repro.telemetry.level`), and the
sampler from ``profile``; :func:`set_level` is the one programmatic
switch for every layer.  Below ``metrics`` every hook —
:func:`record_run` in the executor, :func:`count`, :func:`set_gauge`,
the serve hooks — returns after a single attribute check, so the cost
of shipping this layer always-on is one branch per event.

Environment knobs::

    REPRO_OBS=metrics             # off | metrics | trace | profile
    REPRO_OBS_SLO_MS=250          # per-run and per-request latency budget

The sampler's period is :data:`PROFILE_INTERVAL`; the exporter's default
port is :data:`repro.obs.exporter.DEFAULT_PORT`.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, Optional

from repro.obs.collector import (
    ObsCollector,
    fold_perf_counters,
    perf_counters_from_registry,
)
from repro.obs.profiler import DEFAULT_INTERVAL, SamplingProfiler
from repro.telemetry.level import LEVELS, METRICS, PROFILE
from repro.telemetry.level import rank as _rank
from repro.telemetry.level import state as _level

__all__ = [
    "count",
    "enabled",
    "fold_perf_counters",
    "get_collector",
    "get_level",
    "get_profiler",
    "perf_counters_from_registry",
    "record_request",
    "record_run",
    "set_gauge",
    "set_level",
    "snapshot",
]

#: Sampling period of the process-wide profiler, in seconds.
PROFILE_INTERVAL = DEFAULT_INTERVAL

#: Audited clock reference (keeps raw ``time.*`` reads out of hot paths;
#: see the staticcheck RPR004 rationale in :mod:`repro.obs.collector`).
_CLOCK: Callable[[], float] = time.perf_counter


class _State:
    """Module-global collector/profiler pair."""

    __slots__ = ("collector", "profiler", "lock")

    def __init__(self) -> None:
        self.collector = ObsCollector()
        self.profiler: Optional[SamplingProfiler] = None
        self.lock = threading.Lock()


_state = _State()


def get_level() -> str:
    """The current observability level name (see :data:`~repro.telemetry.level.LEVELS`)."""
    return LEVELS[_level.rank]


def set_level(level: str) -> None:
    """Set the observability level for every layer (``REPRO_OBS`` at runtime).

    ``off`` < ``metrics`` (this collector) < ``trace`` (spans) <
    ``profile`` (the sampler).  Dropping below ``profile`` stops the
    sampler; recorded data is kept at every level.
    """
    rank = _rank(level)
    _level.set(rank)
    if rank < PROFILE:
        with _state.lock:
            profiler = _state.profiler
        if profiler is not None:
            profiler.stop()


def enabled() -> bool:
    """Whether the collector is recording (level ``metrics`` or up)."""
    return _level.rank >= METRICS


def get_collector() -> ObsCollector:
    """The process-wide collector instance."""
    return _state.collector


def get_profiler() -> Optional[SamplingProfiler]:
    """The process-wide profiler, if one has been created."""
    return _state.profiler


def _ensure_profiler() -> Optional[SamplingProfiler]:
    """Create/start the sampler on first use (never at import time)."""
    if _level.rank < PROFILE:
        return _state.profiler
    with _state.lock:
        if _state.profiler is None:
            _state.profiler = SamplingProfiler(interval=PROFILE_INTERVAL)
        profiler = _state.profiler
    if not profiler.running:
        profiler.start()
    return profiler


def _reset_for_tests(
    collector: Optional[ObsCollector] = None,
) -> ObsCollector:
    """Swap in a fresh collector/profiler (test isolation hook)."""
    old = _state.profiler
    if old is not None:
        old.stop()
    _state.profiler = None
    _state.collector = collector if collector is not None else ObsCollector()
    return _state.collector


# -- run accounting (executor hook) ---------------------------------------


class _NoopTimer:
    """Shared inert stand-in while the layer is off."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP = _NoopTimer()


class _RunTimer:
    """Times one run/run_batch and accounts it on success."""

    __slots__ = ("_plan", "_backend", "_steps", "_batch", "_t0")

    def __init__(self, plan, backend: str, steps: int, batch: int) -> None:
        self._plan = plan
        self._backend = backend
        self._steps = steps
        self._batch = batch
        self._t0 = 0.0

    def __enter__(self):
        _ensure_profiler()
        self._t0 = _CLOCK()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            _state.collector.record_run(
                self._plan,
                self._backend,
                self._steps,
                self._batch,
                _CLOCK() - self._t0,
            )
        return False


def record_run(plan, backend: str, steps: int, batch: int = 0):
    """Context manager accounting one executor run under its plan key.

    The near-free off path: one attribute check, return the shared no-op.
    """
    if _level.rank < METRICS:
        return _NOOP
    return _RunTimer(plan, backend, steps, batch)


# -- serving accounting (repro.serve hooks) --------------------------------


def record_request(
    tenant: str,
    elapsed: float,
    outcome: str = "ok",
    trace_id: str = "",
    plan_label: str = "",
) -> bool:
    """Account one serving-layer request; whether it breached the SLO.

    ``outcome`` is the serve vocabulary: ``ok``, ``rejected_quota``,
    ``rejected_queue``.  A non-empty ``trace_id`` attaches the request's
    identity as the latency bucket's exemplar candidate.  While disabled
    this is one level check and returns ``False``.
    """
    if _level.rank < METRICS:
        return False
    return _state.collector.record_request(
        tenant, elapsed, outcome, trace_id=trace_id, plan_label=plan_label
    )


# -- named counters and gauges ---------------------------------------------


def count(name: str, amount: "int | float" = 1) -> None:
    """Add ``amount`` (>= 0) to the counter ``name`` (no-op while disabled)."""
    if _level.rank < METRICS:
        return
    _state.collector.count(name, amount)


def set_gauge(name: str, value: "int | float") -> None:
    """Overwrite the gauge ``name`` (no-op while disabled)."""
    if _level.rank < METRICS:
        return
    _state.collector.set_gauge(name, value)


# -- snapshots -------------------------------------------------------------


def snapshot() -> Dict[str, Any]:
    """The collector's JSON-able health snapshot (profiler included)."""
    return _state.collector.snapshot(profiler=_state.profiler)
