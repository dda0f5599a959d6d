"""The obs collector: per-plan-key run stats, serving gauges, efficiency.

One process-wide :class:`ObsCollector` accumulates, while the obs layer
is enabled:

* per plan key — ``kernel|shape|backend|fusion`` — run counts, latency
  histograms (:class:`~repro.obs.hist.LatencyHistogram`), SLO breach
  counters, and the paper-model quantities needed to price each run
  (Eq.-13 MMA totals and the calibrated model ceiling, from
  :mod:`repro.model.convstencil_model`), LRU-bounded at
  :data:`MAX_PLAN_KEYS` because a served request picks its own shape;
* per tenant — the serving layer's request outcomes, latency
  histograms and SLO breaches (LRU-bounded at :data:`MAX_TENANTS`);
* named counters and gauges (``solver.*``, ``staticcheck.*``,
  ``verify.*``, …) written through :func:`repro.obs.count` and
  :func:`repro.obs.set_gauge`, and the GPU simulator's
  :class:`~repro.gpu.counters.PerfCounters` folded in as ``sim.*``
  (:func:`fold_perf_counters`, reversed bit-exactly by
  :func:`perf_counters_from_registry`).

``snapshot()`` renders everything — plus what other owners count, read
at snapshot time: the plan cache's ``PlanCache.stats``, the running
services' batch, routing and queue counters, and the profiler's
aggregates — into one JSON-able dict that both the exporter and the
``repro report --live`` view consume.

The collector touches the wall clock through a module-level reference so
sampling stays cheap and the staticcheck RPR004 rule (raw clock reads in
measurement code) has a single audited call site.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from dataclasses import fields
from typing import Any, Callable, Dict, Optional, Tuple

from repro.gpu.counters import PerfCounters
from repro.obs.hist import LatencyHistogram
from repro.telemetry.log import get_logger

__all__ = [
    "ObsCollector",
    "RunStats",
    "TenantStats",
    "fold_perf_counters",
    "perf_counters_from_registry",
    "run_label",
]

_log = get_logger("obs.collector")

#: Audited clock reference (see module docstring).
_CLOCK: Callable[[], float] = time.perf_counter

#: SLO threshold knob: per-run and per-request latency budget in
#: milliseconds (the only one; the serving layer reads it from here).
SLO_ENV = "REPRO_OBS_SLO_MS"

#: LRU bound on per-tenant entries, so a long-lived multi-tenant service
#: stays bounded; :meth:`ObsCollector.slo_totals` survives evictions.
MAX_TENANTS = 4096

#: LRU bound on the per-plan-key run stats and on each pricing cache:
#: requests choose their grid shapes, so a long-lived service would
#: otherwise keep one histogram (and one exported series) per shape.
MAX_PLAN_KEYS = 4096

#: The snapshot's ``serve`` block: counters summed over the running
#: services, and peaks that take their maximum.
_SERVE_SUMS = (
    "batches", "inline_batches", "batched_requests", "affinity_hits", "affinity_misses"
)
_SERVE_PEAKS = ("max_batch", "queue_peak")


def _env_slo_seconds() -> Optional[float]:
    raw = os.environ.get(SLO_ENV)
    if raw is None or not raw.strip():
        return None
    try:
        ms = float(raw)
    except ValueError:
        _log.warning("%s=%r is not a number; SLO accounting disabled", SLO_ENV, raw)
        return None
    return ms / 1e3 if ms > 0 else None


def _lru_entry(
    table: "OrderedDict[Any, Any]", key: Any, make: Callable[[], Any], bound: int
) -> Any:
    """``table[key]``, made by ``make()`` on a miss, now the most recently
    used entry; entries past ``bound`` are evicted oldest first."""
    entry = table.get(key)
    if entry is None:
        entry = table[key] = make()
        while len(table) > bound:
            table.popitem(last=False)
    else:
        table.move_to_end(key)
    return entry


def run_label(
    kernel_name: str, grid_shape: Tuple[int, ...], backend: str, fusion_depth: int
) -> str:
    """Human-stable plan-key label: ``kernel|HxW|backend|f<depth>``."""
    shape = "x".join(str(n) for n in grid_shape)
    return f"{kernel_name}|{shape}|{backend}|f{fusion_depth}"


class RunStats:
    """Accumulated state for one plan key."""

    __slots__ = (
        "kernel",
        "shape",
        "backend",
        "fusion",
        "runs",
        "grids",
        "steps",
        "stencil_updates",
        "mma_total",
        "elapsed",
        "slo_breaches",
        "hist",
        "model_gstencils_per_s",
        "model_bound",
    )

    def __init__(
        self,
        kernel: str,
        shape: Tuple[int, ...],
        backend: str,
        fusion: int,
        model_gstencils_per_s: float,
        model_bound: str,
    ) -> None:
        self.kernel = kernel
        self.shape = shape
        self.backend = backend
        self.fusion = fusion
        self.runs = 0
        self.grids = 0
        self.steps = 0
        self.stencil_updates = 0.0
        self.mma_total = 0.0
        self.elapsed = 0.0
        self.slo_breaches = 0
        self.hist = LatencyHistogram()
        self.model_gstencils_per_s = model_gstencils_per_s
        self.model_bound = model_bound

    def to_dict(self) -> Dict[str, Any]:
        achieved_gst = (
            self.stencil_updates / self.elapsed / 1e9 if self.elapsed > 0 else 0.0
        )
        model_gst = self.model_gstencils_per_s
        # Model MMA/s ceiling: the per-update MMA price times the model's
        # update rate — the live analogue of Eq.-13 over the roofline.
        mma_per_update = (
            self.mma_total / self.stencil_updates if self.stencil_updates > 0 else 0.0
        )
        return {
            "kernel": self.kernel,
            "shape": list(self.shape),
            "backend": self.backend,
            "fusion": self.fusion,
            "runs": self.runs,
            "grids": self.grids,
            "steps": self.steps,
            "stencil_updates": self.stencil_updates,
            "elapsed_s": self.elapsed,
            "mma_total": self.mma_total,
            "achieved_mma_per_s": (
                self.mma_total / self.elapsed if self.elapsed > 0 else 0.0
            ),
            "achieved_gstencils_per_s": achieved_gst,
            "model_gstencils_per_s": model_gst,
            "model_mma_per_s": mma_per_update * model_gst * 1e9,
            "model_attainment": achieved_gst / model_gst if model_gst > 0 else 0.0,
            "model_bound": self.model_bound,
            "slo_breaches": self.slo_breaches,
            "latency": self.hist.to_dict(),
            "p50_s": self.hist.p50,
            "p95_s": self.hist.p95,
            "p99_s": self.hist.p99,
        }


class TenantStats:
    """Accumulated serving state for one tenant."""

    __slots__ = ("requests", "outcomes", "slo_breaches", "hist")

    def __init__(self) -> None:
        self.requests = 0
        self.outcomes: Dict[str, int] = {}
        self.slo_breaches = 0
        self.hist = LatencyHistogram()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "requests": self.requests,
            "outcomes": dict(sorted(self.outcomes.items())),
            "slo_breaches": self.slo_breaches,
            "latency": self.hist.to_dict(),
            "p50_s": self.hist.p50,
            "p95_s": self.hist.p95,
            "p99_s": self.hist.p99,
        }


class ObsCollector:
    """Thread-safe aggregate of live run and serving observations."""

    def __init__(self, slo_seconds: Optional[float] = None) -> None:
        self.pid = os.getpid()
        self.slo_seconds = slo_seconds if slo_seconds is not None else _env_slo_seconds()
        self._lock = threading.Lock()
        self._runs: "OrderedDict[str, RunStats]" = OrderedDict()
        self._tenants: "OrderedDict[str, TenantStats]" = OrderedDict()
        # Completed requests and SLO breaches over every tenant, evicted
        # ones included, so the burn-rate supplier stays monotonic.
        self._slo_ok = 0
        self._slo_breaches = 0
        # One namespace: a name is a counter or a gauge, never both.
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._started_at = _CLOCK()
        # (kernel_name, n_grid, steps, depth) -> Eq.-13 MMA total;
        # (kernel_name, shape, depth) -> (model GStencil/s, bound).
        self._mma_cache: "OrderedDict[tuple, float]" = OrderedDict()
        self._model_cache: "OrderedDict[tuple, Tuple[float, str]]" = OrderedDict()

    # -- pricing helpers (called under ``_lock``) --------------------------

    def _mma_for(self, plan, n_grid: int, steps: int) -> float:
        from repro.model.convstencil_model import pass_mma_total

        key = (plan.kernel.name, n_grid, steps, plan.fusion_depth)
        return _lru_entry(
            self._mma_cache, key, lambda: pass_mma_total(plan.kernel, *key[1:]), MAX_PLAN_KEYS
        )

    def _model_for(self, plan) -> Tuple[float, str]:
        from repro.model.convstencil_model import convstencil_throughput

        key = (plan.kernel.name, tuple(plan.grid_shape), plan.fusion_depth)

        def price() -> Tuple[float, str]:
            est = convstencil_throughput(plan.kernel, key[1], fusion=plan.fusion_depth)
            return est.gstencils_per_s, est.bound

        return _lru_entry(self._model_cache, key, price, MAX_PLAN_KEYS)

    # -- recording ---------------------------------------------------------

    def record_run(
        self, plan, backend: str, steps: int, batch: int, elapsed: float
    ) -> None:
        """Account one finished ``run``/``run_batch`` call under its plan key."""
        grid_shape = tuple(plan.grid_shape)
        label = run_label(plan.kernel.name, grid_shape, backend, plan.fusion_depth)
        n_grid = 1
        for extent in grid_shape:
            n_grid *= int(extent)
        grids = max(1, batch)

        def new_stats() -> RunStats:
            return RunStats(
                plan.kernel.name, grid_shape, backend, plan.fusion_depth, *self._model_for(plan)
            )

        with self._lock:
            mma = self._mma_for(plan, n_grid, steps) * grids
            stats = _lru_entry(self._runs, label, new_stats, MAX_PLAN_KEYS)
            stats.runs += 1
            stats.grids += grids
            stats.steps += steps
            stats.stencil_updates += float(steps) * n_grid * grids
            stats.mma_total += mma
            stats.elapsed += elapsed
            stats.hist.observe(elapsed)
            if self.slo_seconds is not None and elapsed > self.slo_seconds:
                stats.slo_breaches += 1

    def record_request(
        self,
        tenant: str,
        elapsed: float,
        outcome: str = "ok",
        trace_id: str = "",
        plan_label: str = "",
    ) -> bool:
        """Account one serving-layer request for ``tenant``.

        ``outcome`` follows the serve vocabulary (``ok`` /
        ``rejected_quota`` / ``rejected_queue``); latency and the SLO
        check apply only to completed requests.  A non-empty
        ``trace_id`` lets the sample compete for its latency bucket's
        exemplar slot, so p99 outliers in the exporter link back to a
        concrete request.  Returns whether the request breached the SLO.
        """
        ok = outcome == "ok"
        breached = ok and self.slo_seconds is not None and elapsed > self.slo_seconds
        with self._lock:
            stats = _lru_entry(self._tenants, tenant, TenantStats, MAX_TENANTS)
            stats.requests += 1
            stats.outcomes[outcome] = stats.outcomes.get(outcome, 0) + 1
            if ok:
                stats.hist.observe(
                    elapsed, trace_id=trace_id, tenant=tenant, label=plan_label
                )
                self._slo_ok += 1
            if breached:
                stats.slo_breaches += 1
                self._slo_breaches += 1
        return breached

    def slo_totals(self) -> Tuple[int, int]:
        """``(completed_requests, slo_breaches)`` over every tenant seen.

        The ratio feeds the burn-rate alert engine
        (:mod:`repro.obs.alerts`); both totals are monotonic, and an
        evicted tenant's requests stay counted.
        """
        with self._lock:
            return self._slo_ok, self._slo_breaches

    def count(self, name: str, amount: "int | float" = 1) -> None:
        """Add ``amount`` (>= 0) to the counter ``name``."""
        if amount < 0:
            raise ValueError(f"counter {name!r} cannot decrease (got {amount})")
        with self._lock:
            if name in self._gauges:
                raise TypeError(f"metric {name!r} is a gauge, not a counter")
            self._counters[name] = self._counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: "int | float") -> None:
        """Overwrite the gauge ``name``."""
        with self._lock:
            if name in self._counters:
                raise TypeError(f"metric {name!r} is a counter, not a gauge")
            self._gauges[name] = value

    def value(self, name: str, default: Any = 0) -> Any:
        """Current value of the counter or gauge ``name``, else ``default``."""
        with self._lock:
            if name in self._counters:
                return self._counters[name]
            return self._gauges.get(name, default)

    # -- snapshot ----------------------------------------------------------

    def _plan_cache_stats(self) -> Dict[str, Any]:
        from repro.runtime.cache import get_plan_cache

        stats = dict(get_plan_cache().stats)
        return stats

    def _serve_stats(self) -> Dict[str, Any]:
        from repro.serve.service import live_services

        serve: Dict[str, Any] = dict.fromkeys(
            _SERVE_SUMS + _SERVE_PEAKS + ("queue_depth",), 0
        )
        for service in live_services():
            stats = service.stats()
            for key in _SERVE_SUMS:
                serve[key] += stats[key]
            for key in _SERVE_PEAKS:
                serve[key] = max(serve[key], stats[key])
            serve["queue_depth"] += stats["queued"]
        serve["mean_batch"] = (
            serve["batched_requests"] / serve["batches"] if serve["batches"] else 0.0
        )
        return serve

    def snapshot(self, profiler=None) -> Dict[str, Any]:
        """One JSON-able health snapshot of everything collected so far."""
        now = _CLOCK()
        with self._lock:
            runs = {label: stats.to_dict() for label, stats in self._runs.items()}
            uptime = now - self._started_at
            tenants = {
                name: stats.to_dict()
                for name, stats in sorted(self._tenants.items())
            }
            counters = dict(sorted(self._counters.items()))
            gauges = dict(sorted(self._gauges.items()))
        snap: Dict[str, Any] = {
            "pid": self.pid,
            "uptime_s": uptime,
            "slo_seconds": self.slo_seconds,
            "plan_cache": self._plan_cache_stats(),
            "runs": runs,
            "tenants": tenants,
            "serve": self._serve_stats(),
            "counters": counters,
            "gauges": gauges,
        }
        if profiler is not None:
            snap["profile"] = {
                "samples": profiler.samples,
                "interval_s": profiler.interval,
                "running": profiler.running,
                "phases": profiler.phase_counts(),
                "stacks": [
                    [";".join(key), count]
                    for key, count in sorted(
                        profiler.stacks().items(), key=lambda kv: (-kv[1], kv[0])
                    )[:50]
                ],
            }
        return snap


#: Name prefix under which simulator counters are folded.
SIM_PREFIX = "sim"

#: Derived :class:`PerfCounters` properties folded as gauges (Table 5).
_DERIVED = (
    "bank_conflicts_per_request",
    "uncoalesced_fraction",
    "tensor_core_utilisation",
)


def _default_collector() -> ObsCollector:
    from repro.obs import get_collector

    return get_collector()


def fold_perf_counters(
    counters: PerfCounters,
    collector: Optional[ObsCollector] = None,
    prefix: str = SIM_PREFIX,
) -> None:
    """Accumulate a simulator :class:`PerfCounters` into ``collector``.

    Every raw field becomes the counter ``<prefix>.<field>`` (added to, so
    repeated folds accumulate exactly like ``PerfCounters.merge``); the
    Table-5 derived ratios become gauges reflecting the latest fold.
    Unlike :func:`repro.obs.count`, this writes at every level: callers
    decide whether to fold.
    """
    target = collector if collector is not None else _default_collector()
    for f in fields(counters):
        target.count(f"{prefix}.{f.name}", getattr(counters, f.name))
    for name in _DERIVED:
        target.set_gauge(f"{prefix}.{name}", getattr(counters, name))


def perf_counters_from_registry(
    collector: Optional[ObsCollector] = None, prefix: str = SIM_PREFIX
) -> PerfCounters:
    """Reconstruct a :class:`PerfCounters` from previously folded counters.

    Unfolded fields read as 0; a single fold into a fresh collector
    round-trips bit-exactly (``reconstructed == original``).
    """
    source = collector if collector is not None else _default_collector()
    return PerfCounters(
        **{f.name: int(source.value(f"{prefix}.{f.name}")) for f in fields(PerfCounters)}
    )
