"""Per-layer timing for the traced run, recorded from the benchmark's side.

:class:`Tracer` replaces the program's public functions at the sites where
callers look them up (module attributes and backend methods) with thin
timing wrappers, and puts the originals back on :meth:`Tracer.remove`.
Each wrapper records one span: layer name, duration, self time (duration
minus the spans nested inside it on the same thread) and a size (bytes
returned by the stencil2row gathers, grids in a served batch).  A binding
that no longer exists is skipped and listed in :attr:`Tracer.missing`; the
metrics that need it are then omitted rather than reported as zero.

:func:`sweep` times one pass of every spot cell on every registered
backend, the direct floor and the halo pad, with no wrappers installed.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import threading
from collections import defaultdict
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from workloads import clock

#: (owner, attribute, span).  ``owner`` is a module path, or ``"<backend>"``
#: for the class of the default backend.
BINDINGS = (
    ("repro.core.api", "ConvStencil.run", "call"),
    ("repro.runtime", "execute_batch", "serve.execute"),
    ("repro.runtime", "plan_for", "runtime.plan_for"),
    ("repro.runtime.execute", "build_plan", "runtime.plan.build"),
    ("repro.runtime.execute", "pad_halo", "stencils.pad_halo"),
    ("repro.runtime.execute", "pad_halo_batch", "stencils.pad_halo"),
    ("<backend>", "apply_pass", "core.engine"),
    ("<backend>", "apply_pass_batch", "core.engine"),
    ("repro.core.engine1d", "stencil2row_matrices_1d", "core.stencil2row"),
    ("repro.core.engine2d", "stencil2row_views_2d", "core.stencil2row"),
    ("repro.core.stencil2row", "stencil2row_views_batched", "core.stencil2row"),
)

#: Spans that start a unit of work a caller waits for: a ConvStencil call,
#: or one coalesced batch in a serve lane.
TOP_SPANS = ("call", "serve.execute")

#: Metric name prefix -> the span it is computed from.
NEEDS = {
    "stencils.pad_halo": "stencils.pad_halo",
    "core.stencil2row": "core.stencil2row",
    "core.engine": "core.engine",
    "runtime.plan.": "runtime.plan.build",
    "runtime.call_overhead": "runtime.plan_for",
    "serve.": "serve.execute",
}


class Span(NamedTuple):
    name: str
    duration: float
    self_time: float
    size: int


def _size(span: str, args, result) -> int:
    if span == "core.stencil2row":
        return sum(a.nbytes for a in result)
    if span == "serve.execute":
        return len(args[1])  # execute_batch(plan, batch, ...)
    return 0


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.missing: List[str] = []
        self.installed: set = set()
        self._local = threading.local()
        self._restore: List[Tuple[object, str, object, bool]] = []

    def _wrap(self, span: str, fn):
        local, spans = self._local, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            children = [0.0]
            stack.append(children)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += duration
            spans.append(Span(span, duration, duration - children[0], _size(span, args, result)))
            return result

        return wrapper

    def install(self) -> "Tracer":
        from repro.runtime import get_backend

        for owner, attribute, span in BINDINGS:
            try:
                if owner == "<backend>":
                    target = type(get_backend())
                else:
                    target = importlib.import_module(owner)
                *path, name = attribute.split(".")
                for part in path:
                    target = getattr(target, part)
                original = getattr(target, name)
            except (ImportError, AttributeError):
                self.missing.append(f"{owner}:{attribute}")
                continue
            own = name in vars(target)
            setattr(target, name, self._wrap(span, original))
            self._restore.append((target, name, original, own))
            self.installed.add(span)
        return self

    def remove(self) -> None:
        while self._restore:
            target, name, original, own = self._restore.pop()
            if own:
                setattr(target, name, original)
            else:
                delattr(target, name)

    def by_name(self) -> Dict[str, List[Span]]:
        out: Dict[str, List[Span]] = defaultdict(list)
        for span in self.spans:
            out[span.name].append(span)
        return out

    def omit_missing(self, metrics: Dict[str, float]) -> List[str]:
        """Drop metrics whose span could not be installed; return them."""
        dropped = [
            name
            for name in metrics
            if any(
                name.startswith(prefix) and span not in self.installed
                for prefix, span in NEEDS.items()
            )
        ]
        for name in dropped:
            del metrics[name]
        return dropped


def layer_metrics(tracer: Tracer, cache_before: dict, cache_after: dict) -> Dict[str, float]:
    """Per-call layer times and shares from the traced phase's spans."""
    spans = tracer.by_name()
    top = [s for name in TOP_SPANS for s in spans[name]]
    per_call = max(len(top), 1)
    total = sum(s.duration for s in top) or float("nan")

    def summed(name: str, attr: str = "duration") -> float:
        return sum(getattr(s, attr) for s in spans[name])

    pad, gather = summed("stencils.pad_halo"), summed("core.stencil2row")
    engine_self = summed("core.engine", "self_time")
    builds = spans["runtime.plan.build"]
    hits = cache_after["hits"] - cache_before["hits"]
    lookups = hits + cache_after["misses"] - cache_before["misses"]
    return {
        "stencils.pad_halo.ms": pad / per_call * 1e3,
        "stencils.pad_halo.share": pad / total,
        "core.stencil2row.ms": gather / per_call * 1e3,
        "core.stencil2row.share": gather / total,
        "core.stencil2row.mb": summed("core.stencil2row", "size") / per_call / 1e6,
        "core.engine.self_ms": engine_self / per_call * 1e3,
        "core.engine.share": engine_self / total,
        "runtime.plan.build_ms": (
            statistics.fmean(s.duration for s in builds) * 1e3 if builds else 0.0
        ),
        "runtime.plan.builds": float(len(builds)),
        "runtime.plan_cache.hit_ratio": hits / lookups if lookups else 0.0,
        "runtime.plan_cache.evictions": float(
            cache_after["evictions"] - cache_before["evictions"]
        ),
        # Self time of the call span: all but plan lookup/build, padding
        # and the passes.
        "runtime.call_overhead_ms_p50": (
            statistics.median(s.self_time for s in top) * 1e3 if top else 0.0
        ),
    }


def serve_metrics(tracer: Tracer, serve, stats_before: dict, stats_after: dict) -> Dict[str, float]:
    """Serving-layer metrics of a traced ``serve`` phase."""
    batches = tracer.by_name()["serve.execute"]
    execute = sum(s.duration for s in batches)
    hits = stats_after["affinity_hits"] - stats_before["affinity_hits"]
    routed = hits + stats_after["affinity_misses"] - stats_before["affinity_misses"]
    return {
        "serve.execute_ms_p50": (
            statistics.median(s.duration for s in batches) * 1e3 if batches else 0.0
        ),
        # Execute time each served request waited for, over its latency.
        "serve.execute_share": sum(s.duration * s.size for s in batches) / sum(serve.latency_s),
        "serve.batch_size_mean": statistics.fmean(s.size for s in batches) if batches else 0.0,
        "serve.affinity_hit_ratio": hits / routed if routed else 0.0,
        "serve.queue_peak": float(stats_after["queue_peak"]),
        "serve.lane_busy_ratio": execute / (len(stats_after["lanes"]) * serve.wall_s),
        "serve.batching_gain": serve.unbatched_total_s() / execute if execute else 0.0,
        "loadgen.late_ms_p99": float(np.percentile(serve.late_s, 99)) * 1e3,
    }


#: The serving-layer metrics; zero by definition on a closed-loop workload.
SERVE_METRICS = (
    "serve.execute_ms_p50", "serve.execute_share", "serve.batch_size_mean",
    "serve.affinity_hit_ratio", "serve.queue_peak", "serve.lane_busy_ratio",
    "serve.batching_gain", "serve.latency_ms_p99", "loadgen.late_ms_p99",
)


def _median_time(fn, reps: int) -> float:
    fn()  # warm: plan tables, compiled kernels, worker pools
    times = []
    for _ in range(reps):
        t0 = clock()
        fn()
        times.append(clock() - t0)
    return statistics.median(times)


def sweep(cells, reps: int = 9) -> Tuple[Dict[str, float], Dict[str, str]]:
    """One pass of every spot cell on every backend but ``reference``,
    beside the direct floor.  Returns the metrics and the fastest
    implementation per cell."""
    from repro import BoundaryCondition, get_backend, get_kernel, list_backends, plan_for
    from repro.stencils.grid import pad_halo
    from repro.stencils.reference import run_reference

    # Pin the tiled pool to the CPUs this process may use.
    os.environ.setdefault("REPRO_TILED_WORKERS", str(len(os.sched_getaffinity(0))))
    default = get_backend().name
    names = [name for name in list_backends() if name != "reference"]
    metrics: Dict[str, float] = {}
    fastest: Dict[str, str] = {}
    backends = {}
    try:
        for cell in cells:
            kernel = get_kernel(cell.name)
            pp = plan_for(kernel, cell.shape, BoundaryCondition.CONSTANT, 1).fused_pass
            padded = pad_halo(cell.data, pp.halo)
            pad_s = _median_time(lambda: pad_halo(cell.data, pp.halo), reps)
            direct_s = _median_time(lambda: run_reference(cell.data, kernel, 1), reps)
            metrics[f"stencils.direct_ms.{cell.name}"] = direct_s * 1e3
            passes = {}
            for name in names:
                backend = backends.setdefault(name, get_backend(name))
                passes[name] = _median_time(lambda: backend.apply_pass(pp, padded), reps)
                metrics[f"runtime.backend.{name}.{cell.name}.pass_ms"] = passes[name] * 1e3
            metrics[f"core.pass_ms.{cell.name}"] = passes[default] * 1e3
            best = min(passes, key=passes.get)
            # A pass excludes the halo pad that a direct step includes.
            metrics[f"runtime.best_vs_direct.{cell.name}"] = direct_s / (passes[best] + pad_s)
            fastest[cell.name] = best if passes[best] + pad_s < direct_s else "direct"

            tracer = Tracer().install()
            try:
                for _ in range(reps):
                    backends[default].apply_pass(pp, padded)
            finally:
                tracer.remove()
            gather = sum(s.duration for s in tracer.by_name()["core.stencil2row"])
            metrics[f"core.stencil2row_ms.{cell.name}"] = gather / reps * 1e3
    finally:
        for backend in backends.values():
            backend.close()
    return metrics, fastest
