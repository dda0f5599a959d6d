"""StencilService behaviour: coalescing, identity, routing, admission."""

import asyncio
import threading

import numpy as np
import pytest

from repro import ConvStencil, get_kernel, obs
from repro.errors import QueueSaturated, QuotaExceeded, ServeError, TessellationError
from repro.serve import (
    Request,
    ServeConfig,
    StencilService,
    TenantQuota,
    TraceSpec,
    generate_trace,
    replay,
)
from repro.utils.rng import default_rng


def run_async(coro):
    return asyncio.run(coro)


class LaneGate:
    """Holds lane passes on a ``threading.Event`` until :meth:`release`.

    Replaces ``service._execute`` so the lane thread blocks before running
    the real pass (the first ``hold`` passes, or every pass when ``hold``
    is ``None``); ``calls`` records ``(steps, batch size)`` per pass in
    execution order.  ``fail`` makes the first pass raise once released.
    """

    def __init__(self, service, hold=1, fail=None):
        self.event = threading.Event()
        self.calls = []
        real = service._execute

        def gated(key, kernel, fusion, arrays, batch_meta=("", "", "", ())):
            index = len(self.calls)
            self.calls.append((key.steps, len(arrays)))
            if hold is None or index < hold:
                self.event.wait(timeout=30.0)
            if fail is not None and index == 0:
                raise fail
            return real(key, kernel, fusion, arrays, batch_meta)

        service._execute = gated

    def release(self):
        self.event.set()


async def settle(ticks=5):
    """Let admitted requests reach their dispatch decision."""
    for _ in range(ticks):
        await asyncio.sleep(0)


class TestRequestValidation:
    def test_requires_kernel_and_data(self):
        with pytest.raises(ServeError):
            Request("acme")
        with pytest.raises(ServeError):
            Request("acme", kernel=get_kernel("heat-2d"))

    def test_dimensionality_checked(self):
        with pytest.raises(ServeError):
            Request("acme", kernel=get_kernel("heat-2d"), data=np.zeros(8))

    def test_coerces_data_and_boundary(self):
        request = Request(
            "acme",
            kernel=get_kernel("heat-2d"),
            data=np.zeros((4, 4), dtype=np.float32),
            boundary="periodic",
        )
        assert request.data.dtype == np.float64
        assert request.boundary.value == "periodic"
        assert request.grid_shape == (4, 4)


class TestCoalescing:
    def test_same_key_requests_share_one_batch(self, rng):
        kernel = get_kernel("heat-2d")

        async def scenario():
            async with StencilService(ServeConfig(lanes=1)) as service:
                requests = [
                    Request("t", kernel=kernel, data=rng.random((8, 8)), steps=2)
                    for _ in range(5)
                ]
                return await asyncio.gather(
                    *(service.submit(r) for r in requests)
                )

        responses = run_async(scenario())
        assert all(r.ok for r in responses)
        assert {r.batch_size for r in responses} == {5}
        assert len({r.lane for r in responses}) == 1

    def test_different_steps_do_not_coalesce(self, rng):
        kernel = get_kernel("heat-2d")

        async def scenario():
            async with StencilService(ServeConfig(lanes=1)) as service:
                a = Request("t", kernel=kernel, data=rng.random((8, 8)), steps=1)
                b = Request("t", kernel=kernel, data=rng.random((8, 8)), steps=2)
                return await asyncio.gather(service.submit(a), service.submit(b))

        ra, rb = run_async(scenario())
        assert ra.batch_size == 1 and rb.batch_size == 1

    def test_max_batch_triggers_immediate_flush(self, rng):
        kernel = get_kernel("heat-2d")

        async def scenario():
            # Five same-tick requests: the batch closes at max_batch=3 and
            # the remaining two open the next one.
            config = ServeConfig(lanes=1, max_batch=3)
            async with StencilService(config) as service:
                requests = [
                    Request("t", kernel=kernel, data=rng.random((8, 8)), steps=1)
                    for _ in range(5)
                ]
                return await asyncio.wait_for(
                    asyncio.gather(*(service.submit(r) for r in requests)),
                    timeout=30.0,
                )

        responses = run_async(scenario())
        assert [r.batch_size for r in responses] == [3, 3, 3, 2, 2]

    def test_equal_kernels_interned_to_one_plan(self, rng):
        # get_kernel returns a fresh object per call; the service must
        # fingerprint-intern them or nothing would ever coalesce.
        async def scenario():
            async with StencilService(ServeConfig(lanes=1)) as service:
                requests = [
                    Request(
                        "t",
                        kernel=get_kernel("heat-2d"),
                        data=rng.random((8, 8)),
                        steps=1,
                    )
                    for _ in range(4)
                ]
                return await asyncio.gather(
                    *(service.submit(r) for r in requests)
                )

        responses = run_async(scenario())
        assert {r.batch_size for r in responses} == {4}


class TestBitIdentity:
    def test_coalesced_results_match_direct_run(self, rng):
        kernel = get_kernel("box-2d9p")
        grids = [rng.random((12, 12)) for _ in range(6)]

        async def scenario():
            async with StencilService(ServeConfig(lanes=2)) as service:
                requests = [
                    Request(
                        "t", kernel=kernel, data=g, steps=3, boundary="periodic"
                    )
                    for g in grids
                ]
                return await asyncio.gather(
                    *(service.submit(r) for r in requests)
                )

        responses = run_async(scenario())
        assert {r.batch_size for r in responses} == {6}
        direct = ConvStencil(kernel)
        for grid, response in zip(grids, responses):
            expected = direct.run(grid, steps=3, boundary="periodic")
            np.testing.assert_array_equal(response.data, expected)

    def test_seeded_mixed_tenant_replay_is_bit_identical(self):
        report = run_async(
            _replay_with(TraceSpec(seed=7, requests=40), ServeConfig(lanes=2))
        )
        assert report["identity_ok"], report["mismatches"]
        assert report["ok"] == 40
        assert report["max_batch"] > 1  # the trace actually coalesced

    def test_fused_requests_are_bit_identical(self, rng):
        kernel = get_kernel("heat-2d")
        grids = [rng.random((16, 16)) for _ in range(4)]

        async def scenario():
            async with StencilService(ServeConfig(lanes=1)) as service:
                requests = [
                    Request(
                        "t",
                        kernel=kernel,
                        data=g,
                        steps=6,
                        boundary="periodic",
                        fusion=3,
                    )
                    for g in grids
                ]
                return await asyncio.gather(
                    *(service.submit(r) for r in requests)
                )

        responses = run_async(scenario())
        direct = ConvStencil(kernel, fusion=3)
        for grid, response in zip(grids, responses):
            np.testing.assert_array_equal(
                response.data, direct.run(grid, steps=6, boundary="periodic")
            )


class TestQuotaRejection:
    def test_over_quota_requests_get_429_style_response(self, rng):
        kernel = get_kernel("heat-2d")
        fake_now = [0.0]

        async def scenario():
            config = ServeConfig(quota=TenantQuota(rate=10.0, burst=2.0))
            async with StencilService(
                config, clock=lambda: fake_now[0]
            ) as service:
                requests = [
                    Request("t", kernel=kernel, data=rng.random((8, 8)), steps=1)
                    for _ in range(4)
                ]
                return await asyncio.gather(
                    *(service.submit(r) for r in requests)
                )

        responses = run_async(scenario())
        ok = [r for r in responses if r.ok]
        rejected = [r for r in responses if r.rejected]
        assert len(ok) == 2 and len(rejected) == 2
        for r in rejected:
            assert r.reason == "quota"
            assert r.retry_after == pytest.approx(0.1)
            assert r.data is None

    def test_strict_mode_raises_quota_exceeded(self, rng):
        kernel = get_kernel("heat-2d")

        async def scenario():
            config = ServeConfig(quota=TenantQuota(rate=1.0, burst=1.0))
            async with StencilService(config, clock=lambda: 0.0) as service:
                first = await service.submit(
                    Request("t", kernel=kernel, data=rng.random((8, 8)))
                )
                assert first.ok
                with pytest.raises(QuotaExceeded) as excinfo:
                    await service.submit(
                        Request("t", kernel=kernel, data=rng.random((8, 8))),
                        strict=True,
                    )
                assert excinfo.value.retry_after > 0.0

        run_async(scenario())

    def test_quota_is_per_tenant(self, rng):
        kernel = get_kernel("heat-2d")

        async def scenario():
            config = ServeConfig(quota=TenantQuota(rate=1.0, burst=1.0))
            async with StencilService(config, clock=lambda: 0.0) as service:
                a = await service.submit(
                    Request("a", kernel=kernel, data=rng.random((8, 8)))
                )
                b = await service.submit(
                    Request("b", kernel=kernel, data=rng.random((8, 8)))
                )
                a2 = await service.submit(
                    Request("a", kernel=kernel, data=rng.random((8, 8)))
                )
                return a, b, a2

        a, b, a2 = run_async(scenario())
        assert a.ok and b.ok
        assert a2.rejected and a2.reason == "quota"


class TestBackpressure:
    def test_saturated_queue_rejects_with_retry_after(self, rng, lane_path):
        kernel = get_kernel("heat-2d")

        async def scenario():
            # A held lane: admitted requests stay queued until the test
            # releases the gate, so the over-limit submissions always see
            # a full queue — no wall-clock race.
            config = ServeConfig(lanes=1, max_queue_depth=3)
            async with StencilService(config) as service:
                gate = LaneGate(service, hold=None)
                tasks = [
                    asyncio.create_task(
                        service.submit(
                            Request(
                                "t",
                                kernel=kernel,
                                data=rng.random((8, 8)),
                                steps=1,
                            )
                        )
                    )
                    for _ in range(6)
                ]
                for _ in range(3):
                    await asyncio.sleep(0)  # let every task run admission
                gate.release()
                return await asyncio.gather(*tasks)

        responses = run_async(scenario())
        ok = [r for r in responses if r.ok]
        rejected = [r for r in responses if r.rejected]
        assert len(ok) == 3 and len(rejected) == 3
        for r in rejected:
            assert r.reason == "queue"
            assert r.retry_after is not None and r.retry_after > 0.0

    def test_default_config_retry_after_is_positive(self, rng, lane_path):
        # Before any batch has finished the hint must still tell clients
        # to back off, not to retry at once.
        kernel = get_kernel("heat-2d")

        async def scenario():
            config = ServeConfig()
            async with StencilService(config) as service:
                gate = LaneGate(service, hold=None)
                try:
                    tasks = [
                        asyncio.create_task(
                            service.submit(
                                Request("t", kernel=kernel, data=rng.random((4, 4)))
                            )
                        )
                        for _ in range(config.max_queue_depth)
                    ]
                    await settle()
                    rejected = await service.submit(
                        Request("t", kernel=kernel, data=rng.random((4, 4)))
                    )
                finally:
                    gate.release()
                served = await asyncio.wait_for(asyncio.gather(*tasks), 30.0)
                return rejected, served

        rejected, served = run_async(scenario())
        assert rejected.rejected and rejected.reason == "queue"
        assert rejected.retry_after is not None and rejected.retry_after > 0.0
        assert all(r.ok for r in served)

    def test_queue_rejection_does_not_burn_quota(self, rng, lane_path):
        kernel = get_kernel("heat-2d")

        async def scenario():
            # burst=2 with a frozen clock: exactly two requests may ever be
            # admitted on quota.  The queue rejection in between must not
            # spend the second token.
            config = ServeConfig(
                lanes=1,
                max_queue_depth=1,
                quota=TenantQuota(rate=1.0, burst=2.0),
            )
            async with StencilService(config, clock=lambda: 0.0) as service:
                gate = LaneGate(service)
                first = asyncio.create_task(
                    service.submit(
                        Request("t", kernel=kernel, data=rng.random((8, 8)))
                    )
                )
                await asyncio.sleep(0)  # let the first request enqueue
                queue_rejected = await service.submit(
                    Request("t", kernel=kernel, data=rng.random((8, 8)))
                )
                gate.release()  # let the first batch finish
                r1 = await first
                after = await service.submit(
                    Request("t", kernel=kernel, data=rng.random((8, 8)))
                )
                overflow = await service.submit(
                    Request("t", kernel=kernel, data=rng.random((8, 8)))
                )
                return r1, queue_rejected, after, overflow

        r1, queue_rejected, after, overflow = run_async(scenario())
        assert r1.ok
        assert queue_rejected.rejected and queue_rejected.reason == "queue"
        assert after.ok  # the queue rejection left the second token intact
        assert overflow.rejected and overflow.reason == "quota"

    def test_strict_mode_raises_queue_saturated(self, rng, lane_path):
        kernel = get_kernel("heat-2d")

        async def scenario():
            config = ServeConfig(lanes=1, max_queue_depth=1)
            async with StencilService(config) as service:
                gate = LaneGate(service)
                first = asyncio.create_task(
                    service.submit(
                        Request("t", kernel=kernel, data=rng.random((8, 8)))
                    )
                )
                await asyncio.sleep(0)  # let the first request enqueue
                with pytest.raises(QueueSaturated):
                    await service.submit(
                        Request("t", kernel=kernel, data=rng.random((8, 8))),
                        strict=True,
                    )
                gate.release()
                return await first

        assert run_async(scenario()).ok


class TestExecuteFailure:
    def test_repro_error_settles_every_future_and_releases_queue(self, rng):
        kernel = get_kernel("heat-2d")

        async def scenario():
            async with StencilService(ServeConfig(lanes=1)) as service:
                def boom(key, kernel, fusion, arrays, batch_meta=None):
                    raise TessellationError("injected plan failure")

                service._execute = boom
                requests = [
                    Request("t", kernel=kernel, data=rng.random((8, 8)), steps=1)
                    for _ in range(3)
                ]
                results = await asyncio.wait_for(
                    asyncio.gather(
                        *(service.submit(r) for r in requests),
                        return_exceptions=True,
                    ),
                    timeout=30.0,
                )
                del service._execute  # restore the real execute path
                recovered = await service.submit(
                    Request("t", kernel=kernel, data=rng.random((8, 8)), steps=1)
                )
                return results, recovered, service.stats()

        results, recovered, stats = run_async(scenario())
        assert len(results) == 3
        assert all(isinstance(r, TessellationError) for r in results)
        assert recovered.ok  # queue-depth budget fully released
        assert stats["queued"] == 0


    @pytest.mark.parametrize("failure", ["raise", "cancel"])
    def test_failed_lane_pass_strands_no_held_batch(self, rng, failure, lane_path):
        heat = get_kernel("heat-2d")

        def request(steps):
            return Request("t", kernel=heat, data=rng.random((8, 8)), steps=steps)

        async def scenario():
            service = StencilService(ServeConfig(lanes=1))
            gate = LaneGate(
                service,
                fail=TessellationError("injected") if failure == "raise" else None,
            )
            spawned = []
            spawn = service._spawn
            service._spawn = lambda coro: spawned.append(spawn(coro)) or spawned[-1]
            try:
                blocker = asyncio.create_task(service.submit(request(1)))
                await settle()
                # Held behind the blocked lane: a same-key pair and a
                # different-key request.
                held = [
                    asyncio.create_task(service.submit(request(s)))
                    for s in (1, 1, 2)
                ]
                await settle()
                assert len(gate.calls) == 1
                if failure == "cancel":
                    running = [t for t in spawned if not t.done()]
                    assert len(running) == 1
                    running[0].cancel()
                    await settle()
                stopping = asyncio.create_task(service.stop())
                await settle()
                assert not stopping.done()
            finally:
                gate.release()
            await asyncio.wait_for(stopping, 30.0)
            outcomes = await asyncio.gather(blocker, *held, return_exceptions=True)
            return service, spawned, gate.calls, outcomes

        service, spawned, calls, outcomes = run_async(scenario())
        blocked, *held = outcomes
        expected_error = TessellationError if failure == "raise" else ServeError
        assert isinstance(blocked, expected_error)
        assert all(r.ok for r in held)
        assert [r.batch_size for r in held] == [2, 2, 1]
        assert calls == [(1, 1), (1, 2), (2, 1)]
        # Every future was settled exactly once: a second settle would
        # have raised InvalidStateError inside a flush task.
        for task in spawned:
            assert task.done()
            assert task.cancelled() or task.exception() is None
        stats = service.stats()
        assert stats["queued"] == 0
        assert stats["batched_requests"] == 4
        assert not service._pending and not service._ready

    def test_flush_cancelled_before_its_first_step_strands_nothing(self, rng, lane_path):
        """A flush task cancelled before it ever ran never enters its body;
        its batch is still settled once, and its lane and queue depth are
        released for the batch held behind it."""
        heat = get_kernel("heat-2d")

        async def scenario():
            service = StencilService(ServeConfig(lanes=1))
            spawned = []
            spawn = service._spawn

            def spawn_and_cancel_first(coro):
                task = spawn(coro)
                if not spawned:
                    task.cancel()
                spawned.append(task)
                return task

            service._spawn = spawn_and_cancel_first
            requests = [
                Request("t", kernel=heat, data=rng.random((8, 8)), steps=s)
                for s in (1, 2)
            ]
            outcomes = await asyncio.wait_for(
                asyncio.gather(
                    *(service.submit(r) for r in requests), return_exceptions=True
                ),
                timeout=30.0,
            )
            stats = service.stats()
            inflight = [lane.inflight for lane in service._lanes]
            await service.stop()
            return outcomes, stats, inflight, spawned

        (cancelled, held), stats, inflight, spawned = run_async(scenario())
        assert isinstance(cancelled, ServeError) and "cancelled" in str(cancelled)
        assert held.ok and held.batch_size == 1
        assert stats["queued"] == 0 and stats["batches"] == 2
        assert inflight == [0]
        assert spawned[0].cancelled() and len(spawned) == 2


class TestInlineDispatch:
    """A small batch on an idle lane, with nothing ready behind it, runs
    on the event-loop thread: no flush task and no executor round trip."""

    def test_lone_small_request_runs_inline(self, rng):
        kernel = get_kernel("box-2d9p")
        grid = rng.random((16, 16))

        async def scenario():
            async with StencilService(ServeConfig()) as service:
                spawned = []
                spawn = service._spawn
                service._spawn = lambda coro: spawned.append(spawn(coro)) or spawned[-1]
                response = await service.submit(
                    Request("t", kernel=kernel, data=grid, steps=3)
                )
                return response, spawned, service.stats()

        response, spawned, stats = run_async(scenario())
        assert response.ok and response.batch_size == 1 and response.lane == 0
        assert spawned == []
        assert stats["inline_batches"] == stats["batches"] == 1
        assert stats["queued"] == 0
        np.testing.assert_array_equal(response.data, ConvStencil(kernel).run(grid, steps=3))

    def test_work_bound_at_the_constant_goes_to_a_lane(self, rng, monkeypatch):
        kernel = get_kernel("heat-2d")
        # grids x points x steps x nonzeros of one 8x8 request at 2 steps.
        bound = 1 * 64 * 2 * kernel.points
        monkeypatch.setattr("repro.serve.service.INLINE_WORK_BOUND", bound)

        async def scenario():
            async with StencilService(ServeConfig(lanes=1)) as service:
                small = await service.submit(
                    Request("t", kernel=kernel, data=rng.random((8, 8)), steps=1)
                )
                at_bound = await service.submit(
                    Request("t", kernel=kernel, data=rng.random((8, 8)), steps=2)
                )
                return small, at_bound, service.stats()

        small, at_bound, stats = run_async(scenario())
        assert small.ok and at_bound.ok
        assert stats["batches"] == 2 and stats["inline_batches"] == 1

    def test_a_batch_with_one_ready_behind_it_takes_a_lane(self, rng):
        """Two keys ready in one tick: the first goes to a lane thread so
        the second, last in line, can run inline at once."""

        async def scenario():
            async with StencilService(ServeConfig(lanes=2)) as service:
                responses = await asyncio.gather(
                    *(
                        service.submit(
                            Request("t", kernel=get_kernel(name), data=rng.random((8, 8)))
                        )
                        for name in ("heat-2d", "box-2d9p")
                    )
                )
                return responses, service.stats()

        responses, stats = run_async(scenario())
        assert all(r.ok for r in responses)
        assert {r.lane for r in responses} == {0, 1}
        assert stats["batches"] == 2 and stats["inline_batches"] == 1

    def test_batch_of_one_is_passed_as_a_view(self, rng, monkeypatch):
        import repro.runtime

        kernel = get_kernel("heat-2d")
        grid = rng.random((8, 8))
        seen = []
        real = repro.runtime.execute_batch

        def spy(plan, batch, **kwargs):
            seen.append(np.shares_memory(batch, grid))
            return real(plan, batch, **kwargs)

        monkeypatch.setattr(repro.runtime, "execute_batch", spy)

        async def scenario():
            async with StencilService(ServeConfig()) as service:
                return await service.submit(Request("t", kernel=kernel, data=grid))

        response = run_async(scenario())
        assert seen == [True]
        assert not np.shares_memory(response.data, grid)
        np.testing.assert_array_equal(response.data, ConvStencil(kernel).run(grid, steps=1))

    def test_inline_failure_settles_every_future(self, rng):
        kernel = get_kernel("heat-2d")

        async def scenario():
            async with StencilService(ServeConfig(lanes=1)) as service:
                def boom(key, kernel, fusion, arrays, batch_meta=None):
                    raise TessellationError("injected inline failure")

                service._execute = boom
                results = await asyncio.wait_for(
                    asyncio.gather(
                        *(
                            service.submit(
                                Request("t", kernel=kernel, data=rng.random((8, 8)))
                            )
                            for _ in range(3)
                        ),
                        return_exceptions=True,
                    ),
                    timeout=30.0,
                )
                return results, service.stats(), [l.inflight for l in service._lanes]

        results, stats, inflight = run_async(scenario())
        assert all(isinstance(r, TessellationError) for r in results)
        assert stats["inline_batches"] == 1 and stats["queued"] == 0
        assert inflight == [0]

    def test_stats_count_inline_batches(self, rng, obs_on):
        kernel = get_kernel("heat-2d")

        async def scenario():
            async with StencilService(ServeConfig(lanes=1)) as service:
                for _ in range(3):
                    await service.submit(
                        Request("t", kernel=kernel, data=rng.random((8, 8)), steps=1)
                    )
                return service.stats(), obs.snapshot()["serve"]

        stats, serve = run_async(scenario())
        assert stats["batches"] == stats["inline_batches"] == 3
        assert stats["lanes"][0]["batches"] == 3
        assert serve["inline_batches"] == 3


class TestWorkConservingDispatch:
    def test_lone_request_on_idle_lane_never_sleeps(self, rng, lane_path):
        """Readiness is a loop callback, not a sleeping task: a lone
        request on an idle default service spawns only its flush task."""
        kernel = get_kernel("heat-2d")

        async def scenario():
            async with StencilService(ServeConfig()) as service:
                spawned = []
                spawn = service._spawn
                service._spawn = lambda coro: spawned.append(spawn(coro)) or spawned[-1]
                response = await asyncio.wait_for(
                    service.submit(
                        Request("t", kernel=kernel, data=rng.random((8, 8)))
                    ),
                    timeout=30.0,
                )
            return response, spawned

        response, spawned = run_async(scenario())
        assert response.ok and response.batch_size == 1
        assert len(spawned) == 1

    def test_requests_behind_a_busy_lane_coalesce(self, rng, lane_path):
        kernel = get_kernel("box-2d9p")
        grids = [rng.random((12, 12)) for _ in range(5)]

        async def scenario():
            async with StencilService(ServeConfig(lanes=1)) as service:
                gate = LaneGate(service)
                try:
                    blocker = asyncio.create_task(
                        service.submit(
                            Request("t", kernel=kernel, data=grids[0], steps=1)
                        )
                    )
                    await settle()
                    held = []
                    for grid in grids:
                        held.append(
                            asyncio.create_task(
                                service.submit(
                                    Request("t", kernel=kernel, data=grid, steps=3)
                                )
                            )
                        )
                        await settle()  # arrivals spread over many ticks
                finally:
                    gate.release()
                return await asyncio.wait_for(
                    asyncio.gather(blocker, *held), timeout=30.0
                )

        blocker, *responses = run_async(scenario())
        assert blocker.batch_size == 1
        assert [r.batch_size for r in responses] == [len(grids)] * len(grids)
        direct = ConvStencil(kernel)
        for grid, response in zip(grids, responses):
            np.testing.assert_array_equal(response.data, direct.run(grid, steps=3))

    def test_held_keys_dispatch_oldest_first(self, rng, lane_path):
        kernel = get_kernel("heat-2d")

        def request(steps):
            return Request("t", kernel=kernel, data=rng.random((8, 8)), steps=steps)

        async def scenario():
            async with StencilService(ServeConfig(lanes=1)) as service:
                gate = LaneGate(service)
                tasks = []
                try:
                    for steps in (1, 2, 3, 2):
                        tasks.append(asyncio.create_task(service.submit(request(steps))))
                        await settle()
                finally:
                    gate.release()
                await asyncio.wait_for(asyncio.gather(*tasks), timeout=30.0)
                return gate.calls

        # steps=2 was held first, so it runs before steps=3, and the late
        # steps=2 request joins its still-pending batch.
        assert run_async(scenario()) == [(1, 1), (2, 2), (3, 1)]

    def test_ready_batch_takes_the_idle_lane_when_its_lane_is_busy(self, rng, lane_path):
        kernel = get_kernel("heat-2d")

        def request():
            return Request("t", kernel=kernel, data=rng.random((8, 8)), steps=1)

        async def scenario():
            async with StencilService(ServeConfig(lanes=2)) as service:
                gate = LaneGate(service)
                try:
                    blocker = asyncio.create_task(service.submit(request()))
                    await settle()
                    # Same plan key, its affinity lane busy: served by the
                    # other lane while the first is still blocked.
                    second = await asyncio.wait_for(
                        service.submit(request()), timeout=30.0
                    )
                finally:
                    gate.release()
                first = await asyncio.wait_for(blocker, timeout=30.0)
                return first, second, service.stats()

        first, second, stats = run_async(scenario())
        assert first.ok and second.ok
        assert second.lane != first.lane
        assert not second.affinity_hit
        assert [lane["plans"] for lane in stats["lanes"]] == [1, 1]


class TestBoundedCaches:
    def test_interned_kernels_are_lru_bounded_and_lanes_pruned(self, rng, monkeypatch):
        names = ["heat-2d", "box-2d9p", "star-2d9p", "box-2d25p"]
        monkeypatch.setattr("repro.serve.service.MAX_INTERNED_KERNELS", 2)

        async def scenario():
            async with StencilService(ServeConfig(lanes=1)) as service:
                for name in names:
                    response = await service.submit(
                        Request(
                            "t",
                            kernel=get_kernel(name),
                            data=rng.random((8, 8)),
                            steps=1,
                        )
                    )
                    assert response.ok
                live_ids = {id(k) for k in service._kernels.values()}
                lane_plan_ids = {
                    plan[0] for lane in service._lanes for plan in lane.plans
                }
                fusion_ids = {key[0] for key in service._fusion_cache}
                # An evicted kernel still serves correctly when it returns.
                revived = await service.submit(
                    Request(
                        "t",
                        kernel=get_kernel(names[0]),
                        data=rng.random((8, 8)),
                        steps=1,
                    )
                )
                return len(service._kernels), live_ids, lane_plan_ids, fusion_ids, revived

        n_kernels, live_ids, lane_plan_ids, fusion_ids, revived = run_async(
            scenario()
        )
        assert n_kernels == 2
        assert lane_plan_ids <= live_ids  # evicted kernels pruned from lanes
        assert fusion_ids <= live_ids  # ...and from the fusion cache
        assert revived.ok

    def test_tenant_stats_are_lru_bounded(self, rng, obs_on, monkeypatch):
        """The collector owns per-tenant stats and their bound."""
        kernel = get_kernel("heat-2d")
        monkeypatch.setattr("repro.obs.collector.MAX_TENANTS", 2)

        async def scenario():
            async with StencilService(ServeConfig(lanes=1)) as service:
                for tenant in ("a", "b", "c"):
                    await service.submit(
                        Request(
                            tenant, kernel=kernel, data=rng.random((8, 8)), steps=1
                        )
                    )

        run_async(scenario())
        assert set(obs.snapshot()["tenants"]) == {"b", "c"}


class TestAffinityRouting:
    def test_repeat_keys_stick_to_their_lane(self, rng):
        kernel = get_kernel("heat-2d")

        async def scenario():
            async with StencilService(ServeConfig(lanes=2)) as service:
                lanes = []
                for _ in range(4):
                    response = await service.submit(
                        Request(
                            "t", kernel=kernel, data=rng.random((8, 8)), steps=1
                        )
                    )
                    lanes.append((response.lane, response.affinity_hit))
                return lanes, service.stats()

        lanes, stats = run_async(scenario())
        assert len({lane for lane, _ in lanes}) == 1  # same lane throughout
        assert [hit for _, hit in lanes] == [False, True, True, True]
        assert stats["affinity_hits"] == 3
        assert stats["affinity_misses"] == 1

    def test_distinct_keys_spread_across_lanes(self, rng):
        async def scenario():
            async with StencilService(ServeConfig(lanes=2)) as service:
                r1 = await service.submit(
                    Request(
                        "t",
                        kernel=get_kernel("heat-2d"),
                        data=rng.random((8, 8)),
                        steps=1,
                    )
                )
                r2 = await service.submit(
                    Request(
                        "t",
                        kernel=get_kernel("box-2d9p"),
                        data=rng.random((8, 8)),
                        steps=1,
                    )
                )
                return r1, r2

        r1, r2 = run_async(scenario())
        assert r1.lane != r2.lane


class TestLifecycleAndStats:
    def test_submit_after_stop_raises(self, rng):
        kernel = get_kernel("heat-2d")

        async def scenario():
            service = StencilService(ServeConfig(lanes=1))
            async with service:
                await service.submit(
                    Request("t", kernel=kernel, data=rng.random((8, 8)))
                )
            with pytest.raises(ServeError):
                await service.submit(
                    Request("t", kernel=kernel, data=rng.random((8, 8)))
                )

        run_async(scenario())

    def test_stats_account_tenants_and_batches(self, rng, obs_on, lane_path):
        """Each serving number has one owner: the service counts batches
        and the queue, the collector counts tenants, and the snapshot's
        ``serve`` block reads the running service."""
        from repro.obs.exporter import render_prometheus

        kernel = get_kernel("heat-2d")

        async def scenario():
            async with StencilService(ServeConfig(lanes=1)) as service:
                await asyncio.gather(
                    *(
                        service.submit(
                            Request(
                                tenant,
                                kernel=kernel,
                                data=rng.random((8, 8)),
                                steps=1,
                            )
                        )
                        for tenant in ("a", "a", "b")
                    )
                )
                return service.stats(), obs.snapshot()

        stats, snap = run_async(scenario())
        assert stats["batches"] == 1
        assert stats["batched_requests"] == 3
        assert stats["max_batch"] == 3
        assert stats["queued"] == 0
        assert "tenants" not in stats
        tenants = snap["tenants"]
        assert tenants["a"]["outcomes"] == {"ok": 2}
        assert tenants["b"]["outcomes"] == {"ok": 1}
        assert tenants["a"]["p99_s"] > 0.0
        serve = snap["serve"]
        for key in ("batches", "batched_requests", "max_batch"):
            assert serve[key] == stats[key], key
        assert serve["queue_depth"] == 0
        assert "repro_serve_queue_depth 0.0" in render_prometheus(snap).splitlines()
        # A stopped service's counters leave the snapshot.
        assert obs.snapshot()["serve"]["batches"] == 0

    def test_live_registry_survives_concurrent_builds_and_snapshots(self):
        """Services register and unregister on other threads while the
        snapshot reads the registry, as the exporter thread does."""
        import sys

        errors = []

        def churn():
            try:
                for _ in range(50):
                    asyncio.run(StencilService(ServeConfig(lanes=1)).stop())
            except Exception as exc:  # re-raised below via the assert
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=churn) for _ in range(4)]
        try:
            for thread in threads:
                thread.start()
            while any(thread.is_alive() for thread in threads):
                obs.get_collector().snapshot()
        finally:
            sys.setswitchinterval(interval)
            for thread in threads:
                thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors


class TestLoadgen:
    def test_trace_is_deterministic(self):
        spec = TraceSpec(seed=11, requests=10)
        t1, t2 = generate_trace(spec), generate_trace(spec)
        assert [r.request_id for r in t1] == [r.request_id for r in t2]
        assert [r.tenant for r in t1] == [r.tenant for r in t2]
        for a, b in zip(t1, t2):
            np.testing.assert_array_equal(a.data, b.data)

    def test_different_seed_different_trace(self):
        t1 = generate_trace(TraceSpec(seed=1, requests=10))
        t2 = generate_trace(TraceSpec(seed=2, requests=10))
        assert any(
            not np.array_equal(a.data, b.data) for a, b in zip(t1, t2)
        )

    def test_run_server_deadline_uses_injected_clock(self):
        from repro.serve.loadgen import run_server

        # Scripted clock: each read advances a full minute, so the
        # duration_s=10 deadline passes after exactly one cycle without
        # ever sleeping through real seconds.
        ticks = iter(range(0, 10_000, 60))
        cycles_seen = []
        report = run_server(
            spec=TraceSpec(seed=3, requests=4),
            config=ServeConfig(lanes=1),
            duration_s=10.0,
            waves=1,
            on_cycle=lambda n, _report: cycles_seen.append(n),
            clock=lambda: float(next(ticks)),
        )
        assert report["cycles"] == 1
        assert cycles_seen == [1]

    def test_one_replay_reports_the_whole_service_stats(self):
        from repro.serve.loadgen import run_loadgen

        report = run_loadgen(
            spec=TraceSpec(seed=2, requests=12), config=ServeConfig(lanes=1)
        )
        service = report["service"]
        for key in ("batches", "mean_batch", "max_batch", "affinity_hit_rate"):
            assert report[key] == service[key], key

    def test_run_server_report_covers_the_last_cycle_only(self):
        from repro.serve.loadgen import run_server

        # Deadline at 10; the clock passes it on the third post-cycle read.
        ticks = iter([0.0, 1.0, 2.0, 100.0])
        whole_run = []
        report = run_server(
            spec=TraceSpec(seed=5, requests=6),
            config=ServeConfig(lanes=1),
            duration_s=10.0,
            waves=2,
            on_cycle=lambda n, r: whole_run.append(dict(r["service"])),
            clock=lambda: next(ticks),
        )
        assert report["cycles"] == 3
        last, previous = whole_run[-1], whole_run[-2]
        assert report["requests"] == 6 and report["ok"] == 6
        assert 0 < report["batches"] <= report["requests"]
        assert report["batches"] == last["batches"] - previous["batches"]
        assert report["mean_batch"] == pytest.approx(
            (last["batched_requests"] - previous["batched_requests"])
            / report["batches"]
        )
        assert 1 <= report["max_batch"] <= report["requests"]
        # The whole-run totals stay available, and span all three cycles.
        assert report["service"]["batches"] > report["batches"]


async def _replay_with(spec, config):
    async with StencilService(config) as service:
        return await replay(service, generate_trace(spec), waves=1)


@pytest.fixture
def rng():
    return default_rng(99)
