"""The pinned perfwatch workload suite and its runner.

A *workload* is one fully pinned measurement cell: catalog kernel × grid
shape × step count × fusion depth × execution backend (× optional batch
extent for the ensemble path).  The suite is deliberately small and
stable — trajectory charts only mean something when the cells never move
— and spans the axes the paper's evaluation varies: dimensionality
(§5.2–5.4), kernel width (Table 3's shapes), temporal fusion (§3.3), and
the execution substrate (serial vs compiled, this repo's stand-in for the
cuDNN-vs-ConvStencil axis).  Every cell pins its passes to the ``gemm``
strategy (:class:`~repro.core.api.PinnedStencil`): the suite compares GEMM
engines, and its analytic counters describe GEMM work, which a measured
``direct`` pass would not run.

:func:`run_suite` measures every cell with the
:mod:`repro.perfwatch.timer` protocol, folds in the
:mod:`repro.perfwatch.counters` analytic block, and returns the
schema-versioned report dict that :mod:`repro.perfwatch.baseline`
persists as ``BENCH_PR<N>.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro import telemetry
from repro.core.api import PinnedStencil
from repro.errors import ReproError
from repro.perfwatch.counters import efficiency_counters, plan_cache_delta
from repro.perfwatch.timer import FULL_SPEC, QUICK_SPEC, TimingSpec, time_callable
from repro.runtime.cache import get_plan_cache
from repro.stencils.catalog import get_kernel
from repro.utils.rng import default_rng

__all__ = ["Workload", "default_suite", "run_check", "run_suite"]

#: Seed for workload input grids — one fixed value so every run times the
#: same bits.
INPUT_SEED = 0xBE7C


@dataclass(frozen=True)
class Workload:
    """One pinned measurement cell of the suite."""

    name: str
    kernel: str
    shape: Tuple[int, ...]
    steps: int
    backend: str
    fusion: int = 1
    batch: int = 0  # 0 = single grid; > 0 = ensemble of that many grids

    @property
    def key(self) -> str:
        """Stable identity used to match entries across baselines."""
        return f"{self.name}@{self.backend}"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kernel": self.kernel,
            "shape": list(self.shape),
            "steps": self.steps,
            "backend": self.backend,
            "fusion": self.fusion,
            "batch": self.batch,
        }


#: The pinned workload cells, before the backend axis is applied.  Names
#: are stable identifiers — renaming one orphans its history in every
#: committed baseline.
_QUICK_CELLS: Tuple[Tuple[str, str, Tuple[int, ...], int, int, int], ...] = (
    # (name, kernel, shape, steps, fusion, batch)
    ("heat-1d-16k", "heat-1d", (16384,), 4, 1, 0),
    ("heat-2d-96", "heat-2d", (96, 96), 4, 1, 0),
    ("heat-2d-96-fused", "heat-2d", (96, 96), 4, 3, 0),
    ("star-2d13p-80", "star-2d13p", (80, 80), 2, 1, 0),
    ("box-2d49p-72", "box-2d49p", (72, 72), 2, 1, 0),
    ("heat-3d-24", "heat-3d", (24, 24, 24), 2, 1, 0),
    ("heat-2d-ensemble8", "heat-2d", (64, 64), 2, 1, 8),
)

_FULL_CELLS: Tuple[Tuple[str, str, Tuple[int, ...], int, int, int], ...] = (
    ("heat-1d-256k", "heat-1d", (262144,), 8, 1, 0),
    ("heat-2d-384", "heat-2d", (384, 384), 8, 1, 0),
    ("heat-2d-384-fused", "heat-2d", (384, 384), 9, 3, 0),
    ("box-2d25p-256", "box-2d25p", (256, 256), 4, 1, 0),
    ("star-2d13p-256", "star-2d13p", (256, 256), 4, 1, 0),
    ("box-2d49p-192", "box-2d49p", (192, 192), 4, 1, 0),
    ("heat-3d-48", "heat-3d", (48, 48, 48), 4, 1, 0),
    ("heat-2d-ensemble32", "heat-2d", (128, 128), 4, 1, 32),
)

#: Backends every cell is measured on: the plan-driven vectorised
#: engines and the shape-pinned generated kernels.
SUITE_BACKENDS: Tuple[str, ...] = ("serial", "compiled")


def default_suite(quick: bool = True) -> List[Workload]:
    """The pinned suite: every cell crossed with every suite backend."""
    cells = _QUICK_CELLS if quick else _FULL_CELLS
    return [
        Workload(
            name=name,
            kernel=kernel,
            shape=shape,
            steps=steps,
            backend=backend,
            fusion=fusion,
            batch=batch,
        )
        for (name, kernel, shape, steps, fusion, batch) in cells
        for backend in SUITE_BACKENDS
    ]


def _measure_workload(
    w: Workload,
    spec: TimingSpec,
    clock: Optional[Callable[[], float]],
) -> dict:
    """Measure one workload cell: timing and analytic counters."""
    kernel = get_kernel(w.kernel)
    rng = default_rng(INPUT_SEED)
    if w.batch:
        x = rng.random((w.batch,) + w.shape)
    else:
        x = rng.random(w.shape)
    cs = PinnedStencil(kernel, "gemm", fusion=w.fusion, backend=w.backend)

    def run_once():
        if w.batch:
            cs.run_batch(x, steps=w.steps)
        else:
            cs.run(x, steps=w.steps)

    cache_before = get_plan_cache().stats
    with telemetry.span(
        "perfwatch.workload",
        workload=w.name,
        backend=w.backend,
        samples=spec.batches,
    ):
        timing = time_callable(run_once, spec=spec, clock=clock)
    cache_after = get_plan_cache().stats
    counters = efficiency_counters(
        kernel,
        w.shape,
        w.steps,
        w.fusion,
        timing.point,
        batch=w.batch,
    )
    counters.update(plan_cache_delta(cache_before, cache_after))
    telemetry.counter("perfwatch.workloads").inc()
    return {
        "workload": w.to_dict(),
        "key": w.key,
        "timing": timing.to_dict(),
        "counters": counters,
    }


def run_suite(
    quick: bool = True,
    workloads: Optional[List[Workload]] = None,
    spec: Optional[TimingSpec] = None,
    clock: Optional[Callable[[], float]] = None,
) -> Dict:
    """Measure the suite and return the (schema-less) report body.

    The caller (:mod:`repro.perfwatch.baseline`) wraps the body in the
    schema envelope before persisting.  ``workloads``/``spec``/``clock``
    overrides exist for tests; production runs use the pinned defaults.
    """
    suite = workloads if workloads is not None else default_suite(quick)
    if not suite:
        raise ReproError("perfwatch suite is empty")
    resolved_spec = spec if spec is not None else (QUICK_SPEC if quick else FULL_SPEC)
    entries = []
    with telemetry.span(
        "perfwatch.suite",
        suite="quick" if quick else "full",
        workloads=len(suite),
    ):
        for w in suite:
            entries.append(_measure_workload(w, resolved_spec, clock))
    telemetry.counter("perfwatch.suites").inc()
    return {
        "suite": "quick" if quick else "full",
        "entries": entries,
        "obs": _obs_summary_pass(suite),
    }


def _obs_summary_pass(suite: List[Workload]) -> Dict:
    """One obs-instrumented run per cell, *after* the timing loop.

    The live-observability summary embedded in ``BENCH_PR<N>.json``
    (per-plan latency quantiles, attainment, SLO breaches) is collected
    in a separate pass with collector-only obs — never during the gated
    measurements, where even the collector's few microseconds per hook
    would bias millisecond-scale cells, and never with the sampler
    thread.  If the obs layer is already on (``REPRO_OBS=metrics`` or
    higher), the timed cells included it anyway and this pass just adds
    one more run each.
    """
    from repro import obs

    was_enabled = obs.enabled()
    if not was_enabled:
        obs.set_level("metrics")
    try:
        with telemetry.span("perfwatch.obs_summary", workloads=len(suite)):
            for w in suite:
                kernel = get_kernel(w.kernel)
                rng = default_rng(INPUT_SEED)
                x = rng.random((w.batch,) + w.shape) if w.batch else rng.random(w.shape)
                cs = PinnedStencil(kernel, "gemm", fusion=w.fusion, backend=w.backend)
                if w.batch:
                    cs.run_batch(x, steps=w.steps)
                else:
                    cs.run(x, steps=w.steps)
        return obs.bench_summary()
    finally:
        if not was_enabled:
            obs.set_level("off")


def run_check(
    baseline: Dict,
    threshold: Optional[float] = None,
    quick: bool = True,
    retries: int = 2,
    workloads: Optional[List[Workload]] = None,
    spec: Optional[TimingSpec] = None,
    clock: Optional[Callable[[], float]] = None,
):
    """Measure the suite and gate it against ``baseline``, noise-aware.

    A shared machine's transient load spike inflates *one* run's wall
    times and would flag phantom regressions (on a single-core CI runner
    the suite-to-suite jitter dwarfs any threshold worth gating on).
    Contention only ever makes code *slower*, so the remedy is
    re-measurement: any workload whose first verdict is ``regression``
    is re-measured up to ``retries`` more times and its **fastest**
    timing kept — a load spike clears on retry, while a genuine slowdown
    reproduces in every attempt and still gates.

    Returns ``(result, report)``: the final
    :class:`~repro.perfwatch.baseline.ComparisonResult` and the
    schema-enveloped current-run report it was computed from.
    """
    from repro.perfwatch.baseline import DEFAULT_THRESHOLD, compare, make_report

    resolved = threshold if threshold is not None else DEFAULT_THRESHOLD
    suite = workloads if workloads is not None else default_suite(quick)
    report = make_report(run_suite(quick=quick, workloads=suite, spec=spec, clock=clock))
    result = compare(baseline, report, threshold=resolved)
    for _ in range(max(0, retries)):
        if not result.regressions:
            break
        suspect_keys = {v.key for v in result.regressions}
        suspects = [w for w in suite if w.key in suspect_keys]
        if not suspects:
            break  # regressed cells are not in this run's suite definition
        telemetry.counter("perfwatch.recheck").inc()
        retry = run_suite(quick=quick, workloads=suspects, spec=spec, clock=clock)
        fastest = {e["key"]: e for e in retry["entries"]}
        merged = []
        for entry in report["entries"]:
            retried = fastest.get(entry["key"])
            if retried is not None and (
                retried["timing"]["point"] < entry["timing"]["point"]
            ):
                merged.append(retried)
            else:
                merged.append(entry)
        report = dict(report, entries=merged)
        result = compare(baseline, report, threshold=resolved)
    return result, report
