"""StencilService — the asyncio multi-tenant serving front-end.

Architecture (one event loop, N single-thread executor lanes)::

    submit() ──quota──backpressure──▶ pending[coalesce_key] ──ready──▶
        free lane (affinity-routed) ──execute_batch (one stacked pass)──▶
        split per request ──▶ Response futures

* **Work-conserving dispatch** — a new pending batch becomes *ready*
  on the next event-loop iteration (``loop.call_soon``), so requests
  admitted in the same tick share it, or as soon as it reaches
  ``max_batch``.  A ready batch is dispatched as soon as a lane is free;
  while every lane is busy it stays pending and keeps taking same-key
  companions, and each lane that finishes a batch takes the oldest ready
  one.  So no request waits while a lane is idle, and batches form
  behind busy lanes, where there is work to amortise.
* **Batch coalescing** — requests sharing a coalesce key (plan key +
  ``steps`` + ``fill_value``) that are pending together are stacked
  into one :func:`~repro.runtime.execute.execute_batch` pass and split
  back per request.  The stacked-GEMM batch path makes the split results
  bit-identical to direct :meth:`~repro.core.api.ConvStencil.run` — the
  paper's amortisation argument (many small problems → one large GEMM)
  applied to serving.
* **Plan-affinity routing** — each lane remembers which plan keys it has
  executed; a batch goes to an idle lane already holding the warm
  :class:`~repro.runtime.plan.ExecutionPlan`, else to the least-loaded
  idle lane (which then adopts the key).
* **Admission control** — per-tenant token buckets
  (:mod:`repro.serve.quota`) and a bounded in-flight request count;
  refusals are HTTP-429-style :class:`~repro.serve.request.Response`
  objects carrying ``retry_after``.
* **Stage spans** — from the ``trace`` observability level up, each
  request records one ``serve.<stage>`` span per
  :data:`~repro.serve.request.STAGES` entry; its terminal span carries
  ``status``/``reason``/``slo_breached``, and an error or SLO breach
  dumps the ring (:func:`repro.flight.dump`).  Below ``trace`` a request
  costs one level check and no per-request object.

Clock reads go through the module-level ``_CLOCK`` reference — the same
audited-single-call-site discipline as :mod:`repro.obs.collector`.
"""

from __future__ import annotations

import asyncio
import itertools
import time
import threading
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

import numpy as np

from repro import flight, obs, telemetry
from repro.core.fusion import FusionPlan, plan_fusion
from repro.errors import QueueSaturated, QuotaExceeded, ServeError
from repro.obs.hist import LatencyHistogram
from repro.serve.config import ServeConfig
from repro.serve.quota import QuotaLedger
from repro.serve.request import (
    STATUS_OK,
    STATUS_REJECTED,
    Request,
    Response,
    coalesce_key,
)
from repro.stencils.kernel import StencilKernel
from repro.telemetry.log import get_logger

__all__ = ["StencilService"]

_log = get_logger("serve.service")

#: Audited clock reference (admission timestamps, latency accounting).
_CLOCK = time.monotonic

#: Floor of the ``retry_after`` hint on queue rejections, for when no
#: batch has finished yet.
_MIN_RETRY_AFTER_S = 1e-3


class _Lane:
    """One executor lane: a single-thread pool plus its warm plan keys.

    ``inflight`` counts the requests of the batch dispatched to it; the
    lane is free when it is 0 (a lane runs at most one batch at a time).
    """

    __slots__ = ("index", "pool", "plans", "inflight", "batches")

    def __init__(self, index: int) -> None:
        self.index = index
        self.pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"repro-serve-lane{index}"
        )
        self.plans: Set[tuple] = set()
        self.inflight = 0
        self.batches = 0


class _TenantStats:
    """Service-local per-tenant accounting (always on, obs or not)."""

    __slots__ = (
        "requests", "ok", "rejected_quota", "rejected_queue",
        "slo_breaches", "hist",
    )

    def __init__(self) -> None:
        self.requests = 0
        self.ok = 0
        self.rejected_quota = 0
        self.rejected_queue = 0
        self.slo_breaches = 0
        self.hist = LatencyHistogram()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "requests": self.requests,
            "ok": self.ok,
            "rejected_quota": self.rejected_quota,
            "rejected_queue": self.rejected_queue,
            "slo_breaches": self.slo_breaches,
            "p50_s": self.hist.p50,
            "p95_s": self.hist.p95,
            "p99_s": self.hist.p99,
            "latency": self.hist.to_dict(),
        }


@dataclass
class _PendingBatch:
    """Requests accumulated for one coalesce key awaiting dispatch.

    Holds its own reference to the interned kernel so an in-flight batch
    survives the kernel being LRU-evicted from the interning map.
    ``ready`` is set one loop iteration after it opens, or once it is full.
    """

    key: Any
    kernel: StencilKernel
    fusion: FusionPlan
    requests: List[Request] = field(default_factory=list)
    futures: List["asyncio.Future"] = field(default_factory=list)
    enqueued_at: List[float] = field(default_factory=list)
    #: Per-request trace ids ("" while tracing is off) and the admit-stage
    #: end times their queue_wait stages start from.
    trace_ids: List[str] = field(default_factory=list)
    admitted_at: List[float] = field(default_factory=list)
    ready: bool = False

    def add(
        self,
        request: Request,
        future: "asyncio.Future",
        now: float,
        trace_id: str,
        admitted: float,
    ) -> None:
        self.requests.append(request)
        self.futures.append(future)
        self.enqueued_at.append(now)
        self.trace_ids.append(trace_id)
        self.admitted_at.append(admitted)

    def __len__(self) -> int:
        return len(self.requests)


def _trace_id() -> str:
    """A new request's trace id: one level check, and ``""`` (no new
    object) below the ``trace`` level."""
    return telemetry.new_trace_id() if telemetry.enabled() else ""


def _stage(
    name: str, start: float, end: float, trace_id: str, request: Request, **attributes: Any
) -> None:
    """Record one ``serve.<name>`` stage span of a traced request."""
    telemetry.record_span(
        f"serve.{name}",
        start,
        end,
        trace_id=trace_id,
        request_id=request.request_id,
        tenant=request.tenant,
        **attributes,
    )


def _outcome(status: str, reason: str = "", slo_breached: bool = False) -> Dict[str, Any]:
    """The attributes of a request's terminal stage span."""
    return {"status": status, "reason": reason, "slo_breached": slo_breached}


class StencilService:
    """Async multi-tenant stencil serving with batch coalescing.

    Usage (all configuration keyword-only via :class:`ServeConfig`)::

        async with StencilService(ServeConfig(lanes=2)) as svc:
            resp = await svc.submit(Request("acme", kernel=k, data=x, steps=4))
            assert resp.ok and resp.batch_size >= 1

    ``clock`` is injectable for deterministic quota/latency tests (the
    same pattern as ``repro.perfwatch``); it defaults to the audited
    monotonic reference.
    """

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        *,
        clock=None,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        self._clock = clock if clock is not None else _CLOCK
        self._lanes = [_Lane(i) for i in range(self.config.lanes)]
        self._quota = QuotaLedger(self.config.quota_for)
        # Open batches by coalesce key (taking companions), and the ready
        # batches awaiting a free lane, oldest first.  A ready batch stays
        # open until it is dispatched or full.
        self._pending: Dict[tuple, _PendingBatch] = {}
        self._ready: Deque[_PendingBatch] = deque()
        self._tasks: Set["asyncio.Task"] = set()
        # LRU-bounded service-lifetime maps (config.max_interned_kernels /
        # max_tenant_stats): a long-lived multi-tenant service must not
        # accumulate unbounded kernels, fusion plans, or tenant stats.
        self._kernels: "OrderedDict[tuple, StencilKernel]" = OrderedDict()
        self._fusion_cache: "OrderedDict[tuple, FusionPlan]" = OrderedDict()
        self._intern_lock = threading.Lock()
        self._tenants: "OrderedDict[str, _TenantStats]" = OrderedDict()
        self._queued = 0
        self._queue_peak = 0
        self._batches = 0
        self._batched_requests = 0
        self._max_batch = 0
        self._affinity_hits = 0
        self._affinity_misses = 0
        self._batch_seq = itertools.count(1)
        self._last_execute_s = 0.0
        self._closed = False

    # -- kernel interning --------------------------------------------------

    def _intern(self, kernel: StencilKernel) -> StencilKernel:
        """Canonical kernel instance for this logical stencil.

        Plan keys hash kernels by identity, so two requests carrying
        equal-but-distinct kernel objects must converge on one instance
        before they can share a plan (and a coalesced batch).  The map is
        LRU-bounded; evicting a kernel prunes its fusion-plan entries and
        lane plan-affinity marks (pending batches keep their own kernel
        reference, so in-flight work is unaffected).
        """
        weights = np.ascontiguousarray(kernel.weights, dtype=np.float64)
        fingerprint = (
            kernel.name,
            str(kernel.shape_kind),
            tuple(weights.shape),
            weights.tobytes(),
        )
        with self._intern_lock:
            interned = self._kernels.get(fingerprint)
            if interned is None:
                interned = self._kernels[fingerprint] = kernel
                while len(self._kernels) > self.config.max_interned_kernels:
                    _, evicted = self._kernels.popitem(last=False)
                    self._forget_kernel(evicted)
            else:
                self._kernels.move_to_end(fingerprint)
            return interned

    def _forget_kernel(self, kernel: StencilKernel) -> None:
        """Drop every serving-layer trace of an evicted interned kernel."""
        kernel_id = id(kernel)
        for key in [k for k in self._fusion_cache if k[0] == kernel_id]:
            del self._fusion_cache[key]
        for lane in self._lanes:
            lane.plans = {p for p in lane.plans if p[0] != kernel_id}

    def _fusion_for(self, kernel: StencilKernel, fusion) -> FusionPlan:
        if isinstance(fusion, FusionPlan):
            return fusion
        key = (id(kernel), fusion)
        plan = self._fusion_cache.get(key)
        if plan is None:
            plan = self._fusion_cache[key] = plan_fusion(kernel, fusion)
            # Belt over the eviction braces: a handful of fusion specs per
            # live interned kernel is the expected ceiling.
            while len(self._fusion_cache) > 8 * self.config.max_interned_kernels:
                self._fusion_cache.popitem(last=False)
        else:
            self._fusion_cache.move_to_end(key)
        return plan

    # -- accounting --------------------------------------------------------

    def _tenant(self, tenant: str) -> _TenantStats:
        stats = self._tenants.get(tenant)
        if stats is None:
            stats = self._tenants[tenant] = _TenantStats()
            while len(self._tenants) > self.config.max_tenant_stats:
                self._tenants.popitem(last=False)
        else:
            self._tenants.move_to_end(tenant)
        return stats

    def _slo_seconds(self) -> Optional[float]:
        if self.config.slo_seconds is not None:
            return self.config.slo_seconds
        return obs.get_collector().slo_seconds

    def _account_ok(
        self, tenant: str, latency: float, trace_id: str = "", plan_label: str = ""
    ) -> bool:
        slo = self._slo_seconds()
        breached = slo is not None and latency > slo
        stats = self._tenant(tenant)
        stats.requests += 1
        stats.ok += 1
        stats.hist.observe(latency, trace_id=trace_id, tenant=tenant, label=plan_label)
        if breached:
            stats.slo_breaches += 1
        obs.record_request(
            tenant, latency, "ok", slo_breached=breached,
            trace_id=trace_id, plan_label=plan_label,
        )
        return breached

    def _account_reject(self, tenant: str, reason: str) -> None:
        stats = self._tenant(tenant)
        stats.requests += 1
        if reason == "quota":
            stats.rejected_quota += 1
        else:
            stats.rejected_queue += 1
        obs.record_request(tenant, 0.0, f"rejected_{reason}")

    # -- submission --------------------------------------------------------

    async def submit(self, request: Request, *, strict: bool = False) -> Response:
        """Admit, coalesce, execute, and answer one request.

        Returns the :class:`Response` (rejections included).  With
        ``strict=True`` a rejection raises :class:`QuotaExceeded` /
        :class:`QueueSaturated` instead of returning.
        """
        if self._closed:
            raise ServeError("submit() on a stopped StencilService")
        loop = asyncio.get_running_loop()
        now = self._clock()
        trace_id = _trace_id()

        # Queue depth is checked before the token bucket so a request the
        # service cannot even enqueue does not burn quota — tenants must
        # not be double-penalised during backpressure.
        if self._queued >= self.config.max_queue_depth:
            # The queue drains a batch per lane at a time, so the last
            # batch's execute time is what waiting for a slot costs.
            retry_after = max(self._last_execute_s, _MIN_RETRY_AFTER_S)
            self._account_reject(request.tenant, "queue")
            if trace_id:
                _stage(
                    "admit", now, self._clock(), trace_id, request,
                    outcome="rejected_queue", **_outcome("rejected", "queue"),
                )
            response = Response(
                request_id=request.request_id,
                tenant=request.tenant,
                status=STATUS_REJECTED,
                reason="queue",
                retry_after=retry_after,
            )
            if strict:
                raise QueueSaturated(
                    f"request queue saturated at depth {self._queued}",
                    retry_after=retry_after,
                )
            return response

        admitted, retry_after = self._quota.try_acquire(request.tenant, now)
        if not admitted:
            self._account_reject(request.tenant, "quota")
            if trace_id:
                _stage(
                    "admit", now, self._clock(), trace_id, request,
                    outcome="rejected_quota", **_outcome("rejected", "quota"),
                )
            response = Response(
                request_id=request.request_id,
                tenant=request.tenant,
                status=STATUS_REJECTED,
                reason="quota",
                retry_after=retry_after,
            )
            if strict:
                raise QuotaExceeded(
                    f"tenant {request.tenant!r} exhausted its token bucket",
                    retry_after=retry_after,
                )
            return response

        kernel = self._intern(request.kernel)
        fusion = self._fusion_for(kernel, request.fusion)
        key = coalesce_key(request, kernel, fusion.depth)
        future: "asyncio.Future" = loop.create_future()
        admit_end = self._clock()
        if trace_id:
            _stage(
                "admit", now, admit_end, trace_id, request,
                outcome="admitted", kernel=key.kernel_name,
            )

        batch = self._pending.get(key)
        if batch is None:
            batch = self._pending[key] = _PendingBatch(
                key=key, kernel=kernel, fusion=fusion
            )
            # Ready on the next loop iteration, so requests admitted in
            # this tick coalesce; a batch that fills first is already
            # ready by then, and _make_ready is idempotent.
            loop.call_soon(self._make_ready, batch)
        batch.add(request, future, now, trace_id, admit_end)
        self._queued += 1
        self._queue_peak = max(self._queue_peak, self._queued)
        if len(batch) >= self.config.max_batch:
            # Full: no more companions; dispatch as soon as a lane is free.
            del self._pending[key]
            self._make_ready(batch)

        return await future

    # -- coalescing & flush ------------------------------------------------

    def _spawn(self, coro) -> "asyncio.Task":
        # staticcheck: trace-context-propagated — create_task copies the
        # caller's contextvars (asyncio does this natively), so the ambient
        # trace_id survives into the flush coroutine.
        task = asyncio.get_running_loop().create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    def _make_ready(self, batch: _PendingBatch) -> None:
        """Mark ``batch`` ready (idempotent) and dispatch."""
        if not batch.ready:
            batch.ready = True
            self._ready.append(batch)
        self._dispatch()

    def _dispatch(self) -> None:
        """Send ready batches, oldest first, to free lanes until either
        runs out.  The lane is counted busy here, at dispatch, so two
        batches made ready in the same tick never claim one lane."""
        while self._ready:
            batch = self._ready[0]
            routed = self._route(batch.key.plan_tuple)
            if routed is None:
                return
            self._ready.popleft()
            if self._pending.get(batch.key) is batch:
                del self._pending[batch.key]
            lane, affinity_hit = routed
            lane.inflight += len(batch)
            self._spawn(self._flush(batch, lane, affinity_hit, self._clock()))

    def _route(self, plan_tuple: tuple) -> Optional[Tuple[_Lane, bool]]:
        """A free lane owning ``plan_tuple``, else the least-loaded free
        lane (which adopts the key); ``None`` while every lane is busy."""
        free = [lane for lane in self._lanes if not lane.inflight]
        if not free:
            return None
        for lane in free:
            if plan_tuple in lane.plans:
                self._affinity_hits += 1
                return lane, True
        lane = min(free, key=lambda l: (len(l.plans), l.index))
        lane.plans.add(plan_tuple)
        self._affinity_misses += 1
        return lane, False

    def _execute(
        self,
        key,
        kernel: StencilKernel,
        fusion: FusionPlan,
        arrays: List[np.ndarray],
        batch_meta: Tuple[str, str, str, Tuple[str, ...]] = ("", "", "", ()),
    ):
        """Lane-thread body: one stacked pass over the coalesced batch.

        ``batch_meta`` is ``(trace_id, lead_request_id, batch_id,
        member_request_ids)``: the lane thread re-enters the lead
        request's trace scope so every span the pass emits lands under
        that trace, and the single
        ``serve.batch`` span links all N coalesced members (the N:1
        structure of the paper's GEMM amortisation, Eq. 13).
        """
        from repro.runtime import execute_batch, plan_for

        trace_id, lead_request, batch_id, members = batch_meta
        with telemetry.trace_scope(trace_id, lead_request), telemetry.span(
            "serve.batch",
            kernel=kernel.name,
            shape=key.grid_shape,
            steps=key.steps,
            batch=len(arrays),
            batch_id=batch_id,
            links=list(members),
        ):
            plan = plan_for(kernel, key.grid_shape, key.boundary, fusion)
            stacked = np.stack(arrays)
            out = execute_batch(
                plan,
                stacked,
                steps=key.steps,
                fill_value=key.fill_value,
                backend=self.config.backend,
            )
        return [out[i] for i in range(out.shape[0])]

    async def _flush(
        self,
        batch: _PendingBatch,
        lane: _Lane,
        affinity_hit: bool,
        dispatched: float,
    ) -> None:
        """Run one dispatched batch on ``lane`` and settle its futures."""
        key = batch.key
        n = len(batch)
        loop = asyncio.get_running_loop()
        error: Optional[Exception] = None
        outputs: List[np.ndarray] = []
        arrays = [request.data for request in batch.requests]
        batch_id = f"b{next(self._batch_seq):05d}"
        members = tuple(request.request_id for request in batch.requests)
        # The batch executes under the lead (first-admitted) request's
        # trace; the execute stage on every member links all of them.
        batch_trace = next((t for t in batch.trace_ids if t), "")
        lead_request = members[0] if members else ""
        for request, trace_id, admitted in zip(
            batch.requests, batch.trace_ids, batch.admitted_at
        ):
            if trace_id:
                _stage(
                    "queue_wait", admitted, dispatched, trace_id, request,
                    batch_id=batch_id,
                )
        exec_start = self._clock()
        try:
            # staticcheck: trace-context-propagated — run_in_executor does
            # NOT copy contextvars; _execute re-enters the batch trace
            # scope explicitly via batch_meta in the lane thread.
            outputs = await loop.run_in_executor(
                lane.pool, self._execute, key, batch.kernel, batch.fusion, arrays,
                (batch_trace, lead_request, batch_id, members),
            )
        except Exception as exc:
            # Broad on purpose: whatever the execute path raises
            # (ReproError subclasses like TessellationError/LayoutError/
            # KernelError/StaticCheckError included) must become a
            # per-request failure, never a stranded future.
            error = exc
            _log.warning(
                "serve: batched pass failed for %s (%s: %s)",
                key.kernel_name, type(exc).__name__, exc,
            )
        finally:
            # Free the lane and hand it the next ready batch first: held
            # batches wait on exactly this, so nothing below may strand
            # them.  Then settle every future and release queue depth no
            # matter how the pass ended — even cancellation — or submit()
            # awaits forever and _queued leaks until the service rejects
            # all traffic with 'queue'.
            lane.inflight -= n
            lane.batches += 1
            end = self._clock()
            self._last_execute_s = end - exec_start
            self._dispatch()
            queued_at_flush = self._queued
            if error is None and len(outputs) != n:
                error = ServeError(
                    f"batched pass for {key.kernel_name} produced "
                    f"{len(outputs)} result(s) for {n} request(s)"
                )
            plan_label = f"{key.kernel_name}@{self.config.backend}"
            stage_attrs = {
                "batch_id": batch_id,
                "batch_size": n,
                "lane": lane.index,
                "affinity_hit": affinity_hit,
            }
            settled: List[Tuple[Request, str, bool]] = []
            for position, (request, future, t0, trace_id) in enumerate(
                zip(batch.requests, batch.futures, batch.enqueued_at, batch.trace_ids)
            ):
                self._queued -= 1
                # The execute span ends a request that never reaches split.
                ended: Dict[str, Any] = {}
                if future.done():
                    ended = _outcome("cancelled", "future already settled")
                elif error is not None:
                    ended = _outcome("error", f"{type(error).__name__}: {error}")
                    future.set_exception(error)
                if trace_id:
                    _stage("coalesce", dispatched, exec_start, trace_id, request, **stage_attrs)
                    _stage(
                        "execute", exec_start, end, trace_id, request,
                        links=list(members), **stage_attrs, **ended,
                    )
                    if ended.get("status") == "error":
                        flight.dump(f"error-{request.request_id}", trace_id)
                if ended:
                    continue
                latency = end - t0
                breached = self._account_ok(
                    request.tenant, latency,
                    trace_id=trace_id, plan_label=plan_label,
                )
                future.set_result(
                    Response(
                        request_id=request.request_id,
                        tenant=request.tenant,
                        status=STATUS_OK,
                        data=outputs[position],
                        batch_size=n,
                        lane=lane.index,
                        affinity_hit=affinity_hit,
                        latency_s=latency,
                    )
                )
                settled.append((request, trace_id, breached))
            split_end = self._clock()
            for request, trace_id, breached in settled:
                if not trace_id:
                    continue
                _stage(
                    "split", end, split_end, trace_id, request,
                    batch_id=batch_id, **_outcome("ok", slo_breached=breached),
                )
                if breached:
                    flight.dump(f"slo-breach-{request.request_id}", trace_id)
            self._batches += 1
            self._batched_requests += n
            self._max_batch = max(self._max_batch, n)
            obs.record_serve_batch(n, queued_at_flush, affinity_hit)

    # -- lifecycle ---------------------------------------------------------

    async def drain(self) -> None:
        """Make every pending batch ready and wait until all have run.

        Batches still held behind busy lanes are dispatched by the flush
        tasks this waits on, as their lanes finish.
        """
        for batch in list(self._pending.values()):
            self._make_ready(batch)
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)

    async def stop(self) -> None:
        """Drain, then release the lanes (idempotent)."""
        if self._closed:
            return
        await self.drain()
        self._closed = True
        for lane in self._lanes:
            lane.pool.shutdown(wait=True)

    async def __aenter__(self) -> "StencilService":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """JSON-able service statistics (tenants, coalescing, routing)."""
        total = self._affinity_hits + self._affinity_misses
        return {
            "queued": self._queued,
            "queue_peak": self._queue_peak,
            "batches": self._batches,
            "batched_requests": self._batched_requests,
            "mean_batch": (
                self._batched_requests / self._batches if self._batches else 0.0
            ),
            "max_batch": self._max_batch,
            "affinity_hits": self._affinity_hits,
            "affinity_misses": self._affinity_misses,
            "affinity_hit_rate": (self._affinity_hits / total) if total else 0.0,
            "lanes": [
                {
                    "index": lane.index,
                    "plans": len(lane.plans),
                    "batches": lane.batches,
                }
                for lane in self._lanes
            ],
            "tenants": {
                tenant: stats.to_dict()
                for tenant, stats in sorted(self._tenants.items())
            },
        }
