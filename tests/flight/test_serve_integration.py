"""Serve stage spans: complete traces, N:1 links, and the untraced hot path."""

from __future__ import annotations

import asyncio
import time

from repro import get_kernel, obs, telemetry
from repro.flight import traces_by_request
from repro.serve import Request, ServeConfig, StencilService
from repro.serve.request import STAGES
from repro.serve.service import _trace_id
from tests.flight.helpers import requests, serve


def _traces(tracer):
    return traces_by_request(sp.to_dict() for sp in tracer.spans())


class TestServeTraces:
    def test_every_request_gets_a_complete_trace(self, flight_ring, rng):
        batch = requests(rng, 4)
        responses = serve(batch)
        assert all(r.ok for r in responses)
        traces = _traces(flight_ring)
        for request in batch:
            trace = traces[request.request_id]
            assert trace["status"] == "ok"
            assert tuple(s["name"] for s in trace["stages"]) == STAGES

    def test_coalesced_batch_links_all_members(self, flight_ring, rng):
        batch = requests(rng, 4)
        responses = serve(batch, config=ServeConfig(lanes=1))
        assert {r.batch_size for r in responses} == {4}
        member_ids = sorted(r.request_id for r in batch)
        traces = _traces(flight_ring)
        batch_ids = set()
        for request in batch:
            stages = traces[request.request_id]["stages"]
            execute = next(s for s in stages if s["name"] == "execute")
            assert sorted(execute["attributes"]["links"]) == member_ids
            batch_ids.add(execute["attributes"]["batch_id"])
        assert len(batch_ids) == 1  # one execute, N members — the N:1 shape

    def test_queue_wait_runs_from_admit_to_dispatch(self, flight_ring, rng):
        batch = requests(rng, 2)
        serve(batch)
        stages = {
            s["name"]: s for s in _traces(flight_ring)[batch[0].request_id]["stages"]
        }
        assert stages["admit"]["end"] <= stages["queue_wait"]["end"]
        assert stages["execute"]["start"] >= stages["queue_wait"]["start"]
        assert stages["split"]["end"] >= stages["execute"]["end"]

    def test_rejected_request_gets_admit_stage_and_reason(self, flight_ring, rng):
        from tests.serve.test_service import LaneGate

        kernel = get_kernel("heat-2d")
        batch = [
            Request(
                "acme",
                kernel=kernel,
                data=rng.random((8, 8)),
                request_id=f"adm{i}",
            )
            for i in range(4)
        ]

        async def scenario():
            config = ServeConfig(lanes=1, max_queue_depth=1)
            async with StencilService(config) as service:
                gate = LaneGate(service)
                tasks = [
                    asyncio.create_task(service.submit(r)) for r in batch
                ]
                for _ in range(3):
                    await asyncio.sleep(0)  # let every task run admission
                gate.release()
                return await asyncio.gather(*tasks)

        responses = asyncio.run(scenario())
        rejected = [r for r in responses if r.rejected]
        assert rejected, "queue never saturated"
        traces = _traces(flight_ring)
        for response in rejected:
            trace = traces[response.request_id]
            assert (trace["status"], trace["reason"]) == ("rejected", "queue")
            assert [s["name"] for s in trace["stages"]] == ["admit"]
            assert trace["stages"][0]["attributes"]["outcome"] == "rejected_queue"


class TestHotPath:
    def test_noop_handle_is_shared_identity(self, flight_off, rng):
        """Below ``trace`` a request carries the shared empty trace id and
        records nothing anywhere."""
        responses = serve(requests(rng, 3))
        assert all(r.ok for r in responses)
        assert len(flight_off) == 0

    def test_telemetry_only_mirrors_spans_without_ring(self, flight_off, rng):
        """``metrics`` feeds the collector but keeps no stage spans."""
        obs.set_level("metrics")
        serve(requests(rng, 2))
        assert not [sp for sp in flight_off.spans() if sp.name.startswith("serve.")]
        obs.set_level("trace")
        serve(requests(rng, 2, prefix="tr"))
        spans = [sp for sp in flight_off.spans() if sp.name == "serve.admit"]
        assert sorted(sp.attributes["request_id"] for sp in spans) == ["tr000", "tr001"]

    def test_disabled_begin_request_is_near_free(self, flight_off):
        """The untraced serve path's per-request hook — one level check,
        the shared empty trace id — against a bare attribute check."""
        assert _trace_id() == ""

        def spin(n=20000):
            for i in range(n):
                _trace_id()

        def baseline(n=20000):
            probe = telemetry.enabled
            for i in range(n):
                probe()

        def best_of(fn, repeats=5):
            best = float("inf")
            for _ in range(repeats):
                t0 = time.perf_counter()
                fn()
                best = min(best, time.perf_counter() - t0)
            return best

        # Not a strict ratio (both are sub-microsecond ops): the guard is
        # that the disabled hook stays within one order of magnitude of a
        # bare attribute check — i.e. no allocation, no lock, no ring.
        assert best_of(spin) < 10.0 * best_of(baseline) + 0.01
