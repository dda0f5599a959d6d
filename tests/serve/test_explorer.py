"""Seeded schedule exploration of StencilService's settle paths.

Each seed drives one interleaving of submissions that run inline on the
event loop and on lane threads, with a pass that fails and an awaiter
that is cancelled, and varies how many loop ticks pass between steps.
After the schedule every invariant of the settle paths must hold:

* each batch is settled exactly once, and every future with it;
* the queue depth is back to zero and no lane counts a request in flight;
* no batch is left open or ready;
* every served result equals a direct :meth:`ConvStencil.run` bit for bit.
"""

import asyncio
import random

import numpy as np
import pytest

from repro import ConvStencil, get_kernel
from repro.errors import TessellationError
from repro.serve import Request, ServeConfig, StencilService

#: Seeds run in tier-1; each schedule takes a few milliseconds.
SEEDS = range(16)

#: Inline bound for the exploration: a lone 8x8 request fits under it, a
#: 16x16 request or most coalesced 8x8 batches do not.
BOUND = 1200

KERNELS = ("heat-2d", "box-2d9p")


def _schedule(seed):
    """The seed's steps: ``(kind, kernel, side, steps)`` and pauses."""
    rng = random.Random(seed)
    steps = []
    for _ in range(rng.randint(8, 20)):
        kind = rng.choices(("submit", "fail", "cancel"), weights=(8, 1, 1))[0]
        steps.append(
            (
                kind,
                rng.choice(KERNELS),
                rng.choice((8, 8, 16)),  # mostly inline-size, some lane-size
                rng.choice((1, 2)),
                rng.choice((0, 0, 1, 2, 3)),  # loop ticks before the next step
            )
        )
    return rng.choice((1, 2)), rng.choice((2, 4, 32)), steps


async def _explore(seed, data_rng):
    lanes, max_batch, steps = _schedule(seed)
    service = StencilService(ServeConfig(lanes=lanes, max_batch=max_batch))
    poisoned, failed_members, settled = set(), set(), []
    real_execute, real_settle = service._execute, service._settle

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

    service._execute, service._settle = execute, settle
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
    return service, submitted, failed_members, settled, loop_errors


@pytest.mark.parametrize("seed", SEEDS)
def test_every_schedule_settles_once_and_serves_direct_bits(seed, monkeypatch):
    monkeypatch.setattr("repro.serve.service.INLINE_WORK_BOUND", BOUND)
    data_rng = np.random.default_rng(seed)
    service, submitted, failed_members, settled, loop_errors = asyncio.run(
        _explore(seed, data_rng)
    )
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


def test_the_seed_budget_runs_both_dispatch_paths(monkeypatch):
    monkeypatch.setattr("repro.serve.service.INLINE_WORK_BOUND", BOUND)
    inline = lane = 0
    for seed in SEEDS[:4]:
        service, *_ = asyncio.run(_explore(seed, np.random.default_rng(seed)))
        stats = service.stats()
        inline += stats["inline_batches"]
        lane += stats["batches"] - stats["inline_batches"]
    assert inline and lane
