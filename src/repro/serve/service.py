"""StencilService — the asyncio multi-tenant serving front-end.

Architecture (one event loop, N single-thread executor lanes)::

    submit() ──quota──backpressure──▶ pending[coalesce_key] ──ready──▶
        free lane (affinity-routed) ──execute_batch (one stacked pass)──▶
        split per request ──▶ Response futures

* **Work-conserving dispatch** — the batches opened in one event-loop
  tick become *ready* together on the next iteration (one
  ``loop.call_soon``), so requests admitted in the same tick share a
  batch; a batch stops taking companions once it reaches ``max_batch``.
  A ready batch is dispatched as soon as a lane is free; while every
  lane is busy it stays pending and keeps taking same-key companions,
  and each lane that finishes a batch takes the oldest ready one.  So no
  request waits while a lane is idle, and batches form behind busy
  lanes, where there is work to amortise.
* **Inline execution** — a dispatched batch whose work bound (grids x
  grid points x steps x kernel nonzeros) is below
  :data:`INLINE_WORK_BOUND`, with no ready batch behind it, runs its
  pass synchronously on the loop thread, counted on the free lane it was
  routed to: no flush task, no executor round trip.  The bound keeps the
  pass no longer than the two thread hops it saves, since an inline pass
  blocks the loop while it runs.  Every other batch runs on its lane
  thread through ``run_in_executor``.  Both paths settle futures and
  record stage spans the same way (:meth:`StencilService._settle`, once
  per batch, also for a flush task cancelled before its first step).
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
* **One owner per number** — the service counts its batches (and how
  many ran inline), routing and queue (:meth:`StencilService.stats`, at
  every level; the obs snapshot's ``serve`` block sums the running
  services').  Per-tenant
  outcomes, latency and SLO breaches belong to the obs collector
  (:func:`repro.obs.record_request`, from the ``metrics`` level up),
  whose ``REPRO_OBS_SLO_MS`` is the one SLO budget.
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
import functools
import itertools
import math
import time
import threading
import weakref
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

import numpy as np

from repro import flight, obs, telemetry
from repro.core.fusion import FusionPlan, plan_fusion
from repro.errors import QueueSaturated, QuotaExceeded, ServeError
from repro.runtime import get_backend
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

__all__ = ["StencilService", "live_services"]

_log = get_logger("serve.service")

#: Audited clock reference (admission timestamps, latency accounting).
_CLOCK = time.monotonic

#: Floor of the ``retry_after`` hint on queue rejections, for when no
#: batch has finished yet.
_MIN_RETRY_AFTER_S = 1e-3

#: LRU bound on the distinct kernels a service interns (fingerprints keyed
#: by full weight bytes).  Evicting a kernel also drops its fusion-plan
#: entries and lane plan-affinity marks, so a long-lived service seeing
#: many distinct kernels stays bounded.
MAX_INTERNED_KERNELS = 256

#: A batch whose work bound (:func:`_work_bound`: grids x grid points x
#: steps x kernel nonzeros) is below this may run inline on the event-loop
#: thread, skipping the executor round trip (two thread hops) a lane batch
#: pays.  An inline pass blocks the loop while it runs, so the constant is
#: fitted by measurement to where the pass costs about what the hops save:
#: on a 2-CPU x86_64 host every pass below 2**18 took at most 0.24 ms,
#: against 0.30 ms for an executor round trip after 40 ms idle (CHANGES.md
#: has the table).  Not a knob.
INLINE_WORK_BOUND = 1 << 18

#: Services built and not yet stopped; the obs snapshot reads their stats.
_LIVE: "weakref.WeakSet[StencilService]" = weakref.WeakSet()
_LIVE_LOCK = threading.Lock()


def live_services() -> List["StencilService"]:
    """The services built and not yet stopped in this process."""
    with _LIVE_LOCK:
        return list(_LIVE)


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


@dataclass
class _PendingBatch:
    """Requests accumulated for one coalesce key awaiting dispatch.

    Holds its own reference to the interned kernel so an in-flight batch
    survives the kernel being LRU-evicted from the interning map.
    ``ready`` is set one loop iteration after it opens, together with
    every batch opened in the same tick.
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
    #: Set at dispatch: the lane it is counted on, whether that lane held
    #: its plan key, and when.  ``batch_id`` is set when its pass opens,
    #: and ``settled`` once its futures are (exactly once).
    lane: Optional["_Lane"] = None
    affinity_hit: bool = False
    dispatched: float = 0.0
    batch_id: str = ""
    settled: bool = False

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


def _work_bound(batch: _PendingBatch) -> int:
    """Point updates times kernel nonzeros: grids x grid points x steps
    x nonzero weights."""
    key = batch.key
    return len(batch) * math.prod(key.grid_shape) * key.steps * batch.kernel.points


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

    ``clock`` is injectable for deterministic quota/latency tests; it
    defaults to the audited monotonic reference.
    """

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        *,
        clock=None,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        self._clock = clock if clock is not None else _CLOCK
        self._backend_name = get_backend(self.config.backend).name
        self._lanes = [_Lane(i) for i in range(self.config.lanes)]
        self._quota = QuotaLedger(self.config.quota_for)
        # Open batches by coalesce key (taking companions), and the ready
        # batches awaiting a free lane, oldest first.  A ready batch stays
        # open until it is dispatched or full.
        self._pending: Dict[tuple, _PendingBatch] = {}
        self._ready: Deque[_PendingBatch] = deque()
        # Batches opened in this loop tick, made ready together next tick.
        self._opened: List[_PendingBatch] = []
        self._tasks: Set["asyncio.Task"] = set()
        # LRU-bounded service-lifetime maps (MAX_INTERNED_KERNELS): a
        # long-lived service must not accumulate unbounded kernels or
        # fusion plans.
        self._kernels: "OrderedDict[tuple, StencilKernel]" = OrderedDict()
        self._fusion_cache: "OrderedDict[tuple, FusionPlan]" = OrderedDict()
        self._intern_lock = threading.Lock()
        self._queued = 0
        self._queue_peak = 0
        self._batches = 0
        self._inline_batches = 0
        self._batched_requests = 0
        self._max_batch = 0
        self._affinity_hits = 0
        self._affinity_misses = 0
        self._batch_seq = itertools.count(1)
        self._last_execute_s = 0.0
        self._closed = False
        with _LIVE_LOCK:
            _LIVE.add(self)

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
                while len(self._kernels) > MAX_INTERNED_KERNELS:
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
            while len(self._fusion_cache) > 8 * MAX_INTERNED_KERNELS:
                self._fusion_cache.popitem(last=False)
        else:
            self._fusion_cache.move_to_end(key)
        return plan

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
            obs.record_request(request.tenant, 0.0, "rejected_queue")
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
            obs.record_request(request.tenant, 0.0, "rejected_quota")
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
            # this tick coalesce.  Every batch opened in this tick is made
            # ready in that one callback, so the tick's batches are
            # dispatched as one set and only the last can run inline.
            if not self._opened:
                loop.call_soon(self._ready_opened)
            self._opened.append(batch)
        batch.add(request, future, now, trace_id, admit_end)
        self._queued += 1
        self._queue_peak = max(self._queue_peak, self._queued)
        if len(batch) >= self.config.max_batch:
            # Full: no more companions.  A batch opened in this tick is
            # dispatched with its tick's set; an older one is already
            # ready, held behind busy lanes.
            del self._pending[key]

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

    def _ready_opened(self) -> None:
        """Make the batches opened in the last tick ready and dispatch."""
        opened, self._opened = self._opened, []
        self._make_ready(opened)

    def _make_ready(self, batches: List[_PendingBatch]) -> None:
        """Mark ``batches`` ready in order (idempotent) and dispatch."""
        for batch in batches:
            if not batch.ready:
                batch.ready = True
                self._ready.append(batch)
        self._dispatch()

    def _dispatch(self) -> None:
        """Send ready batches, oldest first, to free lanes until either
        runs out.  The lane is counted busy here, at dispatch, so two
        batches made ready in the same tick never claim one lane.  The
        last ready batch runs inline, on this thread, when its work bound
        is below :data:`INLINE_WORK_BOUND`."""
        while self._ready:
            batch = self._ready[0]
            routed = self._route(batch.key.plan_tuple)
            if routed is None:
                return
            self._ready.popleft()
            if self._pending.get(batch.key) is batch:
                del self._pending[batch.key]
            batch.lane, batch.affinity_hit = routed
            batch.lane.inflight += len(batch)
            batch.dispatched = self._clock()
            if not self._ready and _work_bound(batch) < INLINE_WORK_BOUND:
                self._run_inline(batch)
                continue
            task = self._spawn(self._flush(batch))
            task.add_done_callback(functools.partial(self._abandon, batch))

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
        """One stacked pass over the coalesced batch, on its lane thread
        or, for an inline batch, on the loop thread.

        ``batch_meta`` is ``(trace_id, lead_request_id, batch_id,
        member_request_ids)``: the pass re-enters the lead request's
        trace scope so every span it emits lands under that trace, and
        the single
        ``serve.batch`` span links all N coalesced members (the N:1
        structure of the paper's GEMM amortisation, Eq. 13).
        """
        # Looked up per call, so a timing harness that rebinds these
        # module attributes sees the served batches too.
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
            # A batch of one is a view of its request's data, not a copy.
            stacked = arrays[0][None] if len(arrays) == 1 else np.stack(arrays)
            out = execute_batch(
                plan,
                stacked,
                steps=key.steps,
                fill_value=key.fill_value,
                backend=self.config.backend,
            )
        return [out[i] for i in range(out.shape[0])]

    def _open(self, batch: _PendingBatch) -> Tuple[List[np.ndarray], tuple]:
        """Name a dispatched batch and record its members' queue_wait
        stages; returns the pass's arrays and ``batch_meta``."""
        batch.batch_id = f"b{next(self._batch_seq):05d}"
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
                    "queue_wait", admitted, batch.dispatched, trace_id, request,
                    batch_id=batch.batch_id,
                )
        arrays = [request.data for request in batch.requests]
        return arrays, (batch_trace, lead_request, batch.batch_id, members)

    def _failed(self, batch: _PendingBatch, exc: Exception) -> Exception:
        # Whatever the execute path raises (ReproError subclasses like
        # TessellationError/LayoutError/KernelError/StaticCheckError
        # included) becomes a per-request failure, never a stranded future.
        _log.warning(
            "serve: batched pass failed for %s (%s: %s)",
            batch.key.kernel_name, type(exc).__name__, exc,
        )
        return exc

    def _run_inline(self, batch: _PendingBatch) -> None:
        """Run a small dispatched batch on the loop thread and settle it:
        no flush task, no executor round trip, no extra loop iteration."""
        self._inline_batches += 1
        arrays, batch_meta = self._open(batch)
        exec_start = self._clock()
        outputs: List[np.ndarray] = []
        error: Optional[Exception] = None
        try:
            outputs = self._execute(
                batch.key, batch.kernel, batch.fusion, arrays, batch_meta
            )
        except Exception as exc:  # settled per request below
            error = self._failed(batch, exc)
        finally:
            self._settle(batch, exec_start, outputs, error)

    async def _flush(self, batch: _PendingBatch) -> None:
        """Run one dispatched batch on its lane and settle its futures."""
        loop = asyncio.get_running_loop()
        arrays, batch_meta = self._open(batch)
        exec_start = self._clock()
        outputs: List[np.ndarray] = []
        error: Optional[Exception] = None
        try:
            # staticcheck: trace-context-propagated — run_in_executor does
            # NOT copy contextvars; _execute re-enters the batch trace
            # scope explicitly via batch_meta in the lane thread.
            outputs = await loop.run_in_executor(
                batch.lane.pool, self._execute,
                batch.key, batch.kernel, batch.fusion, arrays, batch_meta,
            )
        except Exception as exc:  # settled per request below
            error = self._failed(batch, exc)
        finally:
            # Even on cancellation: settle every future and release the
            # lane and queue depth, or submit() awaits forever and
            # _queued leaks until the service rejects all traffic.
            self._settle(batch, exec_start, outputs, error)

    def _abandon(self, batch: _PendingBatch, _task: "asyncio.Task") -> None:
        """Settle a lane batch whose flush task ended without settling it:
        a task cancelled before its first step never runs its body."""
        self._settle(
            batch, batch.dispatched, [],
            ServeError(f"batched pass for {batch.key.kernel_name} was cancelled"),
        )

    def _settle(
        self,
        batch: _PendingBatch,
        exec_start: float,
        outputs: List[np.ndarray],
        error: Optional[Exception],
    ) -> None:
        """Free the batch's lane, settle each future and release queue
        depth exactly once (later calls are no-ops), then hand free
        lanes the ready batches."""
        if batch.settled:
            return
        batch.settled = True
        if not batch.batch_id:  # never opened: cancelled before its first step
            self._open(batch)
        key, lane, n = batch.key, batch.lane, len(batch)
        lane.inflight -= n
        lane.batches += 1
        end = self._clock()
        self._last_execute_s = end - exec_start
        try:
            if error is None and len(outputs) != n:
                error = ServeError(
                    f"batched pass for {key.kernel_name} produced "
                    f"{len(outputs)} result(s) for {n} request(s)"
                )
            plan_label = f"{key.kernel_name}@{self._backend_name}"
            members = [request.request_id for request in batch.requests]
            stage_attrs = {
                "batch_id": batch.batch_id,
                "batch_size": n,
                "lane": lane.index,
                "affinity_hit": batch.affinity_hit,
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
                    _stage(
                        "coalesce", batch.dispatched, exec_start, trace_id, request,
                        **stage_attrs,
                    )
                    _stage(
                        "execute", exec_start, end, trace_id, request,
                        links=members, **stage_attrs, **ended,
                    )
                    if ended.get("status") == "error":
                        flight.dump(f"error-{request.request_id}", trace_id)
                if ended:
                    continue
                latency = end - t0
                breached = obs.record_request(
                    request.tenant, latency, trace_id=trace_id, plan_label=plan_label
                )
                future.set_result(
                    Response(
                        request_id=request.request_id,
                        tenant=request.tenant,
                        status=STATUS_OK,
                        data=outputs[position],
                        batch_size=n,
                        lane=lane.index,
                        affinity_hit=batch.affinity_hit,
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
                    batch_id=batch.batch_id, **_outcome("ok", slo_breached=breached),
                )
                if breached:
                    flight.dump(f"slo-breach-{request.request_id}", trace_id)
            self._batches += 1
            self._batched_requests += n
            self._max_batch = max(self._max_batch, n)
        finally:
            # Held batches wait on exactly this lane, so nothing above may
            # strand them.
            self._dispatch()

    # -- lifecycle ---------------------------------------------------------

    async def drain(self) -> None:
        """Make every pending batch ready and wait until all have run.

        Batches still held behind busy lanes are dispatched by the flush
        tasks this waits on, as their lanes finish.
        """
        opened, self._opened = self._opened, []
        self._make_ready(list(self._pending.values()) + opened)
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)

    async def stop(self) -> None:
        """Drain, then release the lanes (idempotent).  A stopped
        service's counters leave the obs snapshot."""
        if self._closed:
            return
        await self.drain()
        self._closed = True
        with _LIVE_LOCK:
            _LIVE.discard(self)
        for lane in self._lanes:
            lane.pool.shutdown(wait=True)

    async def __aenter__(self) -> "StencilService":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """JSON-able service statistics (queue, coalescing, routing).

        Per-tenant statistics are the obs collector's
        (``obs.snapshot()["tenants"]``)."""
        total = self._affinity_hits + self._affinity_misses
        return {
            "queued": self._queued,
            "queue_peak": self._queue_peak,
            "batches": self._batches,
            "inline_batches": self._inline_batches,
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
        }
