"""The obs collector: per-plan-key run stats, serving gauges, efficiency.

One process-wide :class:`ObsCollector` accumulates, while the obs layer
is enabled:

* per plan key — ``kernel|shape|backend|fusion`` — run counts, latency
  histograms (:class:`~repro.obs.hist.LatencyHistogram`), SLO breach
  counters, and the paper-model quantities needed to price each run
  (Eq.-13 MMA totals via :func:`repro.perfwatch.counters.pass_mma_total`,
  the calibrated model ceiling via
  :func:`repro.model.convstencil_model.convstencil_throughput`);
* per tenant and per service — the serving layer's request outcomes,
  batch sizes, affinity hits and queue depth;
* named counters and gauges (``solver.*``, ``staticcheck.*``,
  ``verify.*``, …) written through :func:`repro.obs.count` and
  :func:`repro.obs.set_gauge`, and the GPU simulator's
  :class:`~repro.gpu.counters.PerfCounters` folded in as ``sim.*``
  (:func:`fold_perf_counters`, reversed bit-exactly by
  :func:`perf_counters_from_registry`).

``snapshot()`` renders everything — plus the live plan-cache stats and
profiler aggregates — into one JSON-able dict that the exporter, the
``repro top`` view, and ``repro obs-snapshot`` all consume.

The collector touches the wall clock through a module-level reference so
sampling stays cheap and the staticcheck RPR004 rule (raw clock reads in
measurement code) has a single audited call site.
"""

from __future__ import annotations

import os
import threading
import time
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

#: SLO threshold knob: per-run latency budget in milliseconds.
SLO_ENV = "REPRO_OBS_SLO_MS"


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
        self._runs: Dict[str, RunStats] = {}
        self._tenants: Dict[str, TenantStats] = {}
        self._serve: Dict[str, float] = {
            "batches": 0,
            "batched_requests": 0,
            "max_batch": 0,
            "affinity_hits": 0,
            "affinity_misses": 0,
            "queue_depth": 0,
            "queue_peak": 0,
        }
        # One namespace: a name is a counter or a gauge, never both.
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._started_at = _CLOCK()
        # (kernel_name, n_grid, steps, depth) -> Eq.-13 MMA total;
        # (kernel_name, shape, depth) -> (model GStencil/s, bound).
        self._mma_cache: Dict[Tuple[str, int, int, int], float] = {}
        self._model_cache: Dict[Tuple[str, Tuple[int, ...], int], Tuple[float, str]] = {}

    # -- pricing helpers ---------------------------------------------------

    def _mma_for(self, plan, n_grid: int, steps: int) -> float:
        key = (plan.kernel.name, n_grid, steps, plan.fusion_depth)
        cached = self._mma_cache.get(key)
        if cached is None:
            from repro.perfwatch.counters import pass_mma_total

            cached = pass_mma_total(plan.kernel, n_grid, steps, plan.fusion_depth)
            self._mma_cache[key] = cached
        return cached

    def _model_for(self, plan) -> Tuple[float, str]:
        key = (plan.kernel.name, tuple(plan.grid_shape), plan.fusion_depth)
        cached = self._model_cache.get(key)
        if cached is None:
            from repro.model.convstencil_model import convstencil_throughput

            est = convstencil_throughput(
                plan.kernel, tuple(plan.grid_shape), fusion=plan.fusion_depth
            )
            cached = (est.gstencils_per_s, est.bound)
            self._model_cache[key] = cached
        return cached

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
        mma = self._mma_for(plan, n_grid, steps) * grids
        with self._lock:
            stats = self._runs.get(label)
            if stats is None:
                model_gst, model_bound = self._model_for(plan)
                stats = RunStats(
                    plan.kernel.name,
                    grid_shape,
                    backend,
                    plan.fusion_depth,
                    model_gst,
                    model_bound,
                )
                self._runs[label] = stats
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
        slo_breached: bool = False,
        trace_id: str = "",
        plan_label: str = "",
    ) -> None:
        """Account one serving-layer request for ``tenant``.

        ``outcome`` follows the serve vocabulary (``ok`` /
        ``rejected_quota`` / ``rejected_queue``); latency is recorded
        only for completed requests.  A non-empty ``trace_id`` lets the
        sample compete for its latency bucket's exemplar slot, so p99
        outliers in the exporter link back to a concrete request.
        """
        with self._lock:
            stats = self._tenants.get(tenant)
            if stats is None:
                stats = self._tenants[tenant] = TenantStats()
            stats.requests += 1
            stats.outcomes[outcome] = stats.outcomes.get(outcome, 0) + 1
            if outcome == "ok":
                stats.hist.observe(
                    elapsed, trace_id=trace_id, tenant=tenant, label=plan_label
                )
            if slo_breached:
                stats.slo_breaches += 1

    def slo_totals(self) -> Tuple[int, int]:
        """``(completed_requests, slo_breaches)`` summed over all tenants.

        The ratio feeds the burn-rate alert engine
        (:mod:`repro.obs.alerts`); both totals are monotonic.
        """
        with self._lock:
            total = 0
            breaches = 0
            for stats in self._tenants.values():
                total += stats.outcomes.get("ok", 0)
                breaches += stats.slo_breaches
            return total, breaches

    def observe_serve_batch(
        self, size: int, queue_depth: int, affinity_hit: bool
    ) -> None:
        """Account one coalesced serving batch flushed to a lane."""
        with self._lock:
            serve = self._serve
            serve["batches"] += 1
            serve["batched_requests"] += size
            serve["max_batch"] = max(serve["max_batch"], size)
            serve["queue_depth"] = queue_depth
            serve["queue_peak"] = max(serve["queue_peak"], queue_depth)
            if affinity_hit:
                serve["affinity_hits"] += 1
            else:
                serve["affinity_misses"] += 1

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
            serve = dict(self._serve)
            counters = dict(sorted(self._counters.items()))
            gauges = dict(sorted(self._gauges.items()))
        serve["mean_batch"] = (
            serve["batched_requests"] / serve["batches"] if serve["batches"] else 0.0
        )
        snap: Dict[str, Any] = {
            "pid": self.pid,
            "uptime_s": uptime,
            "slo_seconds": self.slo_seconds,
            "plan_cache": self._plan_cache_stats(),
            "runs": runs,
            "tenants": tenants,
            "serve": serve,
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
