"""Seeded schedule exploration of StencilService's settle paths.

Each seed drives one interleaving of submissions that run inline on the
event loop and on lane threads, with a pass that fails and an awaiter
that is cancelled, and varies how many loop ticks pass between steps.
After the schedule every invariant of the settle paths must hold:

* each batch is settled exactly once, and every future with it;
* the queue depth is back to zero and no lane counts a request in flight;
* no batch is left open or ready;
* every served result equals a direct :meth:`ConvStencil.run` bit for bit.

Two variations reuse the same schedules: one draws from more kernels
than the service may intern, so interned kernels are evicted while their
batches are pending or held, and one runs at the ``trace`` level and
checks that every admitted request leaves a complete stage trace.
"""

import asyncio
import random

import numpy as np
import pytest

from repro import ConvStencil, get_kernel, obs, telemetry
from repro.errors import TessellationError
from repro.flight import missing_stages, traces_by_request
from repro.serve import Request, ServeConfig, StencilService

#: Seeds run in tier-1; each schedule takes a few milliseconds.
SEEDS = range(16)

#: Inline bound for the exploration: a lone 8x8 request fits under it, a
#: 16x16 request or most coalesced 8x8 batches do not.
BOUND = 1200

KERNELS = ("heat-2d", "box-2d9p")

#: Twice the interning bound the eviction schedules set.
INTERN_BOUND = 2
EVICTING_KERNELS = ("heat-2d", "box-2d9p", "star-2d13p", "box-2d25p")


def _schedule(seed, kernels=KERNELS):
    """The seed's steps: ``(kind, kernel, side, steps)`` and pauses."""
    rng = random.Random(seed)
    steps = []
    for _ in range(rng.randint(8, 20)):
        kind = rng.choices(("submit", "fail", "cancel"), weights=(8, 1, 1))[0]
        steps.append(
            (
                kind,
                rng.choice(kernels),
                rng.choice((8, 8, 16)),  # mostly inline-size, some lane-size
                rng.choice((1, 2)),
                rng.choice((0, 0, 1, 2, 3)),  # loop ticks before the next step
            )
        )
    return rng.choice((1, 2)), rng.choice((2, 4, 32)), steps


async def _explore(seed, data_rng, kernels=KERNELS):
    lanes, max_batch, steps = _schedule(seed, kernels)
    service = StencilService(ServeConfig(lanes=lanes, max_batch=max_batch))
    poisoned, failed_members, settled = set(), set(), []
    # Per interned-kernel eviction: whether any batch was pending or held.
    evictions = []
    real_execute, real_settle = service._execute, service._settle
    real_forget = service._forget_kernel

    def execute(key, kernel, fusion, arrays, batch_meta=("", "", "", ())):
        members = batch_meta[3]
        if poisoned.intersection(members):
            failed_members.update(members)
            raise TessellationError("injected pass failure")
        return real_execute(key, kernel, fusion, arrays, batch_meta)

    def settle(batch, *args):
        if not batch.settled:
            settled.extend(request.request_id for request in batch.requests)
        return real_settle(batch, *args)

    def forget(kernel):
        busy = service._pending or service._ready or service._opened
        evictions.append(bool(busy) or any(lane.inflight for lane in service._lanes))
        return real_forget(kernel)

    service._execute, service._settle = execute, settle
    service._forget_kernel = forget
    loop_errors = []
    asyncio.get_running_loop().set_exception_handler(
        lambda _loop, context: loop_errors.append(context)
    )
    submitted, cancelled = [], []
    for index, (kind, name, side, n_steps, pause) in enumerate(steps):
        request = Request(
            f"tenant-{index % 3}",
            kernel=get_kernel(name),
            data=data_rng.random((side, side)),
            steps=n_steps,
            request_id=f"s{seed}-{index}",
        )
        if kind == "fail":
            poisoned.add(request.request_id)
        task = asyncio.ensure_future(service.submit(request))
        submitted.append((kind, request, task))
        if kind == "cancel":
            cancelled.append(task)
        for _ in range(pause):
            await asyncio.sleep(0)
        if cancelled and pause:
            cancelled.pop().cancel()
    await asyncio.wait([task for _, _, task in submitted], timeout=30.0)
    await service.stop()
    return service, submitted, failed_members, settled, loop_errors, evictions


def _check_settled(service, submitted, failed_members, settled, loop_errors):
    """Every invariant the module docstring lists."""
    assert not loop_errors, loop_errors
    # Every admitted request was settled once: a second settle of a future
    # would have raised into the loop's exception handler.
    assert len(settled) == len(set(settled))
    stats = service.stats()
    assert stats["batched_requests"] == len(settled)
    assert stats["queued"] == 0
    assert [lane.inflight for lane in service._lanes] == [0] * len(service._lanes)
    assert not service._pending and not service._ready and not service._opened
    for kind, request, task in submitted:
        assert task.done()
        if task.cancelled():
            assert kind == "cancel"
            continue
        assert request.request_id in settled
        if request.request_id in failed_members:
            assert isinstance(task.exception(), TessellationError)
            continue
        response = task.result()
        assert response.ok, response
        expected = ConvStencil(request.kernel).run(request.data, steps=request.steps)
        assert response.data.tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_every_schedule_settles_once_and_serves_direct_bits(seed, monkeypatch):
    monkeypatch.setattr("repro.serve.service.INLINE_WORK_BOUND", BOUND)
    *outcome, _ = asyncio.run(_explore(seed, np.random.default_rng(seed)))
    _check_settled(*outcome)


def test_kernel_eviction_under_pending_batches_keeps_every_invariant(monkeypatch):
    """Interned kernels evicted while batches are pending or held: each
    schedule still settles once and serves direct bits, the map stays at
    its bound and no lane keeps an affinity mark for an evicted kernel."""
    monkeypatch.setattr("repro.serve.service.INLINE_WORK_BOUND", BOUND)
    monkeypatch.setattr("repro.serve.service.MAX_INTERNED_KERNELS", INTERN_BOUND)
    busy_evictions = 0
    for seed in SEEDS[:8]:
        *outcome, evictions = asyncio.run(
            _explore(seed, np.random.default_rng(seed), EVICTING_KERNELS)
        )
        _check_settled(*outcome)
        service = outcome[0]
        assert len(service._kernels) <= INTERN_BOUND
        live = {id(kernel) for kernel in service._kernels.values()}
        for lane in service._lanes:
            assert {plan[0] for plan in lane.plans} <= live
        busy_evictions += sum(evictions)
    assert busy_evictions


#: A schedule with a failed pass and a cancelled awaiter among its steps.
TRACED_SEED = 0


@pytest.fixture
def traced():
    """Level ``trace`` with a clean span ring; restored on exit."""
    level = obs.get_level()
    obs.set_level("trace")
    telemetry.get_tracer().clear()
    yield telemetry.get_tracer()
    telemetry.get_tracer().clear()
    obs.set_level(level)


def test_a_traced_schedule_leaves_a_complete_trace_per_request(traced, monkeypatch):
    """Served requests carry all five stages and end ``ok`` in ``split``;
    failed and cancelled ones end in their ``execute`` span with that
    status, and no admitted request's trace is left open."""
    monkeypatch.setattr("repro.serve.service.INLINE_WORK_BOUND", BOUND)
    *outcome, _ = asyncio.run(_explore(TRACED_SEED, np.random.default_rng(TRACED_SEED)))
    _check_settled(*outcome)
    _, submitted, failed_members, _, _ = outcome
    traces = traces_by_request(span.to_dict() for span in traced.spans())
    statuses = set()
    for _, request, task in submitted:
        trace = traces[request.request_id]
        statuses.add(trace["status"])
        if trace["status"] == "ok":
            assert not missing_stages(trace), trace
            assert task.cancelled() or task.result().ok
            continue
        assert missing_stages(trace) == ("split",), trace
        assert trace["stages"][-1]["name"] == "execute"
        if trace["status"] == "error":
            assert request.request_id in failed_members
        else:
            assert trace["status"] == "cancelled" and task.cancelled()
    assert statuses == {"ok", "error", "cancelled"}


def test_the_seed_budget_runs_both_dispatch_paths(monkeypatch):
    monkeypatch.setattr("repro.serve.service.INLINE_WORK_BOUND", BOUND)
    inline = lane = 0
    for seed in SEEDS[:4]:
        service, *_ = asyncio.run(_explore(seed, np.random.default_rng(seed)))
        stats = service.stats()
        inline += stats["inline_batches"]
        lane += stats["batches"] - stats["inline_batches"]
    assert inline and lane
