"""Deterministic load generation and replay for :class:`StencilService`.

``repro loadgen`` is built on three pieces:

* :class:`TraceSpec` + :func:`generate_trace` — a seeded mixed-tenant
  request trace.  Same seed, same trace, every run: kernels are interned
  per name so the whole trace shares plan keys the way a real
  multi-tenant frontend would.
* :func:`replay` — submit the trace in waves against a service, then
  (optionally) re-execute every request *directly* through
  :class:`~repro.core.api.ConvStencil` and demand bitwise identity.
  This is the serving layer's acceptance gate: coalescing and affinity
  routing must be pure scheduling, invisible in the numbers.
* :func:`run_loadgen` / :func:`run_server` — synchronous entry points
  the CLI wraps (``repro loadgen`` / ``repro serve``).

Randomness is confined to ``numpy.random.default_rng(seed)``; wall-clock
reads go through the audited ``_CLOCK`` reference.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.core.api import ConvStencil
from repro.errors import ServeError
from repro.flight import missing_stages, traces_by_request
from repro.obs.hist import LatencyHistogram
from repro.serve.config import ServeConfig
from repro.serve.request import Request, Response
from repro.serve.service import StencilService
from repro.stencils.catalog import get_kernel
from repro.stencils.grid import BoundaryCondition
from repro.stencils.kernel import StencilKernel

__all__ = [
    "TraceSpec",
    "generate_trace",
    "replay",
    "run_loadgen",
    "run_server",
    "summarize",
]

#: Audited clock reference (``repro serve`` deadline accounting).
_CLOCK = time.monotonic


@dataclass(frozen=True)
class TraceSpec:
    """Seeded description of a mixed-tenant request population.

    Defaults are sized so a burst replay produces coalesced batches
    well above 1: two kernels x one shape x two step counts x two
    boundaries = 8 coalesce keys shared by ``requests`` requests.
    """

    seed: int = 0
    requests: int = 96
    tenants: int = 3
    kernels: Tuple[str, ...] = ("heat-2d", "box-2d9p")
    shapes: Tuple[Tuple[int, ...], ...] = ((24, 24),)
    steps_choices: Tuple[int, ...] = (1, 2)
    boundaries: Tuple[str, ...] = ("constant", "periodic")
    fusion: "int | str" = 1

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ServeError(f"requests must be >= 1, got {self.requests}")
        if self.tenants < 1:
            raise ServeError(f"tenants must be >= 1, got {self.tenants}")


def generate_trace(spec: TraceSpec) -> List[Request]:
    """The deterministic request list described by ``spec``.

    Kernel objects are interned per name across the trace, so requests
    for the same logical stencil share plan keys (and therefore batches)
    without relying on the service's fingerprint interning.
    """
    rng = np.random.default_rng(spec.seed)
    kernels: Dict[str, StencilKernel] = {
        name: get_kernel(name) for name in spec.kernels
    }
    names = list(spec.kernels)
    trace: List[Request] = []
    for index in range(spec.requests):
        name = names[int(rng.integers(len(names)))]
        shape = spec.shapes[int(rng.integers(len(spec.shapes)))]
        trace.append(
            Request(
                tenant=f"tenant-{int(rng.integers(spec.tenants))}",
                kernel=kernels[name],
                data=rng.standard_normal(shape),
                steps=int(
                    spec.steps_choices[int(rng.integers(len(spec.steps_choices)))]
                ),
                boundary=BoundaryCondition(
                    spec.boundaries[int(rng.integers(len(spec.boundaries)))]
                ),
                fusion=spec.fusion,
                request_id=f"r{index:05d}",
            )
        )
    return trace


def _direct_results(
    trace: Sequence[Request], backend=None
) -> List[np.ndarray]:
    """Reference results via per-request ``ConvStencil.run`` (no serving)."""
    engines: Dict[tuple, ConvStencil] = {}
    results: List[np.ndarray] = []
    for request in trace:
        key = (id(request.kernel), request.fusion)
        engine = engines.get(key)
        if engine is None:
            engine = engines[key] = ConvStencil(
                request.kernel, fusion=request.fusion, backend=backend
            )
        results.append(
            engine.run(
                request.data,
                steps=request.steps,
                boundary=request.boundary,
                fill_value=request.fill_value,
            )
        )
    return results


async def replay(
    service: StencilService,
    trace: Sequence[Request],
    *,
    waves: int = 2,
    check_identity: bool = True,
) -> Dict[str, Any]:
    """Submit ``trace`` in bursts and summarise what the service did.

    Each wave is submitted concurrently (maximal coalescing pressure)
    and awaited before the next begins.  With ``check_identity`` every
    accepted response is compared bitwise against a direct
    ``ConvStencil.run`` of the same request.  Batch and routing numbers
    cover this replay only, even on a long-lived service.
    """
    if waves < 1:
        raise ServeError(f"waves must be >= 1, got {waves}")
    mark = telemetry.get_tracer().total_recorded
    before = service.stats()
    responses: List[Optional[Response]] = [None] * len(trace)
    per_wave = max(1, (len(trace) + waves - 1) // waves)
    for start in range(0, len(trace), per_wave):
        wave = list(range(start, min(start + per_wave, len(trace))))
        settled = await asyncio.gather(
            *(service.submit(trace[i]) for i in wave)
        )
        for i, response in zip(wave, settled):
            responses[i] = response
    mismatches: List[str] = []
    if check_identity:
        expected = _direct_results(trace, backend=service.config.backend)
        for request, response, reference in zip(trace, responses, expected):
            if response is None or response.rejected:
                continue
            if response.data is None or not np.array_equal(
                response.data, reference
            ):
                mismatches.append(request.request_id)
    report = summarize(
        trace, responses, service, mismatches, checked=check_identity, since=before
    )
    report["flight"] = _flight_report(trace, responses, mark)
    return report


def _flight_report(
    trace: Sequence[Request], responses: Sequence[Optional[Response]], mark: int
) -> Dict[str, Any]:
    """Assert the span ring holds a *complete* trace per accepted request.

    The serving observability gate: with tracing on, every request the
    replay completed must have all five pipeline stage spans since
    ``mark`` (a ``Tracer.total_recorded`` value), end ``ok``, and link
    every member of its coalesced batch from its ``execute`` span; the
    report counts multi-request traces (coalescing actually exercised).
    Raises :class:`ServeError` on any incomplete trace — a replay that
    loses traces is a bug, not noise.
    """
    if not telemetry.enabled():
        return {"enabled": False}
    spans = telemetry.get_tracer().spans_since(mark)
    traces = traces_by_request(sp.to_dict() for sp in spans)
    incomplete: List[str] = []
    missing: List[str] = []
    multi_request = 0
    checked = 0
    for request, response in zip(trace, responses):
        if response is None or not response.ok:
            continue
        checked += 1
        rec_trace = traces.get(request.request_id)
        if rec_trace is None:
            missing.append(request.request_id)
            continue
        if rec_trace["status"] != "ok" or missing_stages(rec_trace):
            incomplete.append(request.request_id)
            continue
        execute = next(s for s in rec_trace["stages"] if s["name"] == "execute")
        links = execute["attributes"].get("links") or []
        if request.request_id not in links:
            incomplete.append(request.request_id)
        elif len(links) > 1:
            multi_request += 1
    if missing or incomplete:
        detail = ", ".join((missing + incomplete)[:10])
        raise ServeError(
            f"span ring lost {len(missing)} trace(s) and "
            f"{len(incomplete)} incomplete trace(s) out of {checked} "
            f"completed requests (e.g. {detail}) — every replayed request "
            "must yield a complete admit→queue_wait→coalesce→execute→split "
            "trace whose execute stage links its batch members"
        )
    return {
        "enabled": True,
        "checked": checked,
        "complete": checked,
        "multi_request_traces": multi_request,
        "spans": len(spans),
    }


def summarize(
    trace: Sequence[Request],
    responses: Sequence[Optional[Response]],
    service: StencilService,
    mismatches: Sequence[str],
    *,
    checked: bool,
    since: Dict[str, Any],
) -> Dict[str, Any]:
    """Fold a replay into the JSON-able report the CLI prints.

    ``batches``, ``inline_batches``, ``mean_batch`` and
    ``affinity_hit_rate`` are deltas of
    ``service.stats()`` from ``since`` (the stats taken before the
    replay), and ``max_batch`` is the largest batch among ``responses``,
    so every count in the report covers the same requests.  ``service``
    keeps the whole-run stats.
    """
    stats = service.stats()

    def delta(key: str) -> int:
        return stats[key] - since[key]

    batches = delta("batches")
    routed = delta("affinity_hits") + delta("affinity_misses")
    ok = sum(1 for r in responses if r is not None and r.ok)
    rejected = sum(1 for r in responses if r is not None and r.rejected)
    coalesced = sum(
        1 for r in responses if r is not None and r.ok and r.batch_size > 1
    )
    tenants: Dict[str, Dict[str, Any]] = {}
    for request, response in zip(trace, responses):
        if response is None:
            continue
        entry = tenants.setdefault(
            request.tenant,
            {"requests": 0, "ok": 0, "rejected": 0, "_hist": LatencyHistogram()},
        )
        entry["requests"] += 1
        if response.ok:
            entry["ok"] += 1
            entry["_hist"].observe(response.latency_s)
        else:
            entry["rejected"] += 1
    for entry in tenants.values():
        hist = entry.pop("_hist")
        entry["p50_ms"] = hist.p50 * 1e3
        entry["p99_ms"] = hist.p99 * 1e3
    return {
        "requests": len(trace),
        "ok": ok,
        "rejected": rejected,
        "coalesced": coalesced,
        "mean_batch": delta("batched_requests") / batches if batches else 0.0,
        "max_batch": max(
            (r.batch_size for r in responses if r is not None), default=0
        ),
        "batches": batches,
        "inline_batches": delta("inline_batches"),
        "affinity_hit_rate": delta("affinity_hits") / routed if routed else 0.0,
        "identity_checked": checked,
        "identity_ok": not mismatches,
        "mismatches": list(mismatches),
        "tenants": {name: tenants[name] for name in sorted(tenants)},
        "service": stats,
    }


def run_loadgen(
    *,
    spec: Optional[TraceSpec] = None,
    config: Optional[ServeConfig] = None,
    waves: int = 2,
    check_identity: bool = True,
) -> Dict[str, Any]:
    """Synchronous loadgen entry point: one service, one replayed trace."""
    spec = spec if spec is not None else TraceSpec()
    config = config if config is not None else ServeConfig()

    async def _run() -> Dict[str, Any]:
        async with StencilService(config) as service:
            return await replay(
                service,
                generate_trace(spec),
                waves=waves,
                check_identity=check_identity,
            )

    return asyncio.run(_run())


def run_server(
    *,
    spec: Optional[TraceSpec] = None,
    config: Optional[ServeConfig] = None,
    duration_s: float = 10.0,
    waves: int = 2,
    on_cycle=None,
    clock=None,
) -> Dict[str, Any]:
    """Run a service under repeating seeded load for ``duration_s``.

    This is the body of ``repro serve``: each cycle replays the trace
    (seed offset by cycle index, so data varies while the key population
    stays fixed) through one long-lived service, whose counters and the
    collector's per-tenant stats the obs exporter serves concurrently.
    Returns the final cycle's report augmented with cycle count.

    ``clock`` is injectable (tests script the deadline instead of
    sleeping through real seconds); it defaults to the audited monotonic
    reference.
    """
    spec = spec if spec is not None else TraceSpec()
    config = config if config is not None else ServeConfig()
    read_clock = clock if clock is not None else _CLOCK

    async def _run() -> Dict[str, Any]:
        deadline = read_clock() + duration_s
        report: Dict[str, Any] = {}
        cycles = 0
        async with StencilService(config) as service:
            while True:
                report = await replay(
                    service,
                    generate_trace(replace(spec, seed=spec.seed + cycles)),
                    waves=waves,
                    check_identity=False,
                )
                cycles += 1
                if on_cycle is not None:
                    on_cycle(cycles, report)
                if read_clock() >= deadline:
                    break
        report["cycles"] = cycles
        return report

    return asyncio.run(_run())
