"""The black box over the span ring: request traces, the bounded ring, dumps."""

from __future__ import annotations

import json

from repro import flight, obs, telemetry
from repro.errors import TessellationError
from repro.flight import missing_stages, neighborhood, traces_by_request
from repro.obs.collector import ObsCollector
from repro.serve.request import STAGES
from repro.telemetry.trace import Tracer
from tests.flight.helpers import record_request, requests, serve


def _traces(tracer):
    return traces_by_request(sp.to_dict() for sp in tracer.spans())


def _dump_ids(path):
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    return list(traces_by_request(spans))


class TestRequestTrace:
    def test_stage_records_and_names(self):
        tracer = Tracer()
        tracer.record_span(
            "serve.admit", 0.0, 0.1,
            {"request_id": "r1", "trace_id": "t1", "tenant": "acme", "outcome": "admitted"},
        )
        trace = _traces(tracer)["r1"]
        assert [s["name"] for s in trace["stages"]] == ["admit"]
        stage = trace["stages"][0]
        assert stage["end"] - stage["start"] == 0.1
        assert stage["attributes"] == {"outcome": "admitted"}  # identity lifted
        assert (trace["tenant"], trace["trace_id"]) == ("acme", "t1")

    def test_trace_id_autogenerated_and_clock_free(self, flight_ring, rng):
        serve(requests(rng, 2))
        traces = _traces(flight_ring)
        ids = {rid: trace["trace_id"] for rid, trace in traces.items()}
        assert len(ids) == 2 and all(ids.values())
        assert len(set(ids.values())) == 2
        for rid, trace in traces.items():  # every stage span carries it
            spans = [
                sp for sp in flight_ring.spans()
                if sp.name.startswith("serve.") and sp.attributes.get("request_id") == rid
            ]
            assert {sp.attributes["trace_id"] for sp in spans} == {ids[rid]}

    def test_missing_stages_and_completeness(self):
        tracer = Tracer()
        tracer.record_span("serve.admit", 0.0, 0.1, {"request_id": "r1"})
        trace = _traces(tracer)["r1"]
        assert trace["status"] == "open"
        assert missing_stages(trace) == ("queue_wait", "coalesce", "execute", "split")

    def test_rejected_trace_is_never_complete(self):
        tracer = Tracer()
        for name in STAGES:
            tracer.record_span(f"serve.{name}", 0.0, 0.1, {"request_id": "r1"})
        tracer.record_span(
            "serve.admit", 0.2, 0.3,
            {"request_id": "r2", "status": "rejected", "reason": "quota"},
        )
        traces = _traces(tracer)
        assert traces["r1"]["status"] == "open"  # no terminal span: not ok
        assert (traces["r2"]["status"], traces["r2"]["reason"]) == ("rejected", "quota")
        assert missing_stages(traces["r2"])

    def test_to_dict_roundtrips_stages(self, tmp_path):
        tracer = Tracer()
        tracer.record_span(
            "serve.execute", 1.0, 2.0, {"request_id": "r1", "links": ["r1", "r2"]}
        )
        path = tracer.export_jsonl(tmp_path / "spans.jsonl")
        traces, skipped = flight.load_requests(path)
        (stage,) = traces["r1"]["stages"]
        assert (stage["name"], stage["start"], stage["end"]) == ("execute", 1.0, 2.0)
        assert stage["attributes"]["links"] == ["r1", "r2"]
        assert skipped == []


class TestRing:
    def test_completed_traces_retire_into_ring(self, flight_ring, rng):
        (request,) = requests(rng, 1)
        (response,) = serve([request])
        assert response.ok
        trace = _traces(flight_ring)[request.request_id]
        assert trace["status"] == "ok" and not missing_stages(trace)

    def test_ring_is_bounded_oldest_evicted(self):
        tracer = Tracer(max_spans=4 * len(STAGES))
        for i in range(10):
            record_request(tracer, f"r{i}", t0=float(i))
        assert list(_traces(tracer)) == ["r6", "r7", "r8", "r9"]
        assert tracer.total_recorded == 10 * len(STAGES)

    def test_get_prefers_newest_then_open(self):
        tracer = Tracer()
        record_request(tracer, "dup", status="error", reason="boom")
        record_request(tracer, "dup", t0=1.0)
        tracer.record_span("serve.admit", 2.0, 2.1, {"request_id": "open-1"})
        traces = _traces(tracer)
        assert traces["dup"]["status"] == "ok"
        assert len(traces["dup"]["stages"]) == len(STAGES)
        assert traces["open-1"]["status"] == "open"

    def test_begin_request_routes_to_recorder(self, flight_ring, rng):
        """Served stage spans land in the process tracer's ring — the
        only record there is."""
        serve(requests(rng, 1))
        names = [sp.name for sp in telemetry.get_tracer().spans() if sp.name.startswith("serve.")]
        assert set(STAGES) <= {name[len("serve."):] for name in names}


class TestDumps:
    def test_error_finish_writes_dump(self, flight_ring, tmp_path, rng):
        good = requests(rng, 1, prefix="good-")
        serve(good)

        def boom(key, kernel, fusion, arrays, batch_meta=None):
            raise TessellationError("injected plan failure")

        bad = requests(rng, 1, prefix="bad-")
        (result,) = serve(bad, execute=boom)
        assert isinstance(result, TessellationError)
        (dump,) = tmp_path.glob("flight-*-error-bad-000.jsonl")
        assert set(_dump_ids(dump)) == {"good-000", "bad-000"}  # victim + neighbour
        spans = [json.loads(line) for line in dump.read_text().splitlines()]
        execute = next(s for s in spans if s["name"] == "serve.execute"
                       and s["attributes"]["request_id"] == "bad-000")
        assert execute["attributes"]["status"] == "error"
        assert "injected plan failure" in execute["attributes"]["reason"]

    def test_slo_breach_writes_dump(self, flight_ring, tmp_path, rng):
        (request,) = requests(rng, 1, prefix="slow-")
        obs._reset_for_tests(ObsCollector(slo_seconds=1e-9))
        try:
            serve([request])
        finally:
            obs._reset_for_tests()
        (dump,) = tmp_path.glob("flight-*-slo-breach-slow-000.jsonl")
        trace = flight.load_requests(dump)[0]["slow-000"]
        assert trace["slo_breached"] is True and trace["status"] == "ok"

    def test_dump_budget_is_bounded(self, tmp_path, monkeypatch):
        monkeypatch.setattr(flight, "MAX_DUMPS", 2)
        tracer = Tracer()
        record_request(tracer, "bad-0", status="error")
        written = [
            flight.dump(f"error-{i}", "t-bad-0", tracer=tracer, dump_dir=tmp_path)
            for i in range(5)
        ]
        assert [p is not None for p in written] == [True, True, False, False, False]
        assert len(list(tmp_path.glob("flight-*.jsonl"))) == 2

    def test_no_dump_dir_means_no_dump(self, monkeypatch):
        monkeypatch.delenv("REPRO_FLIGHT_DIR", raising=False)
        tracer = Tracer()
        record_request(tracer, "bad-1", status="error")
        assert flight.dump("manual", "t-bad-1", tracer=tracer) is None

    def test_neighbors_bracket_the_victim(self, tmp_path):
        tracer = Tracer()
        for i in range(12):
            record_request(tracer, f"r{i:02d}", t0=float(i))
        kept = neighborhood(tracer.spans(), "t-r05", neighbors=2)
        ids = list(traces_by_request(sp.to_dict() for sp in kept))
        assert ids == ["r03", "r04", "r05", "r06", "r07"]
        path = flight.dump("probe", "t-r05", tracer=tracer, dump_dir=tmp_path)
        assert _dump_ids(path) == [f"r{i:02d}" for i in range(12)]  # default 8 either side

    def test_export_jsonl_writes_whole_ring(self, flight_ring, tmp_path):
        for i in range(3):
            record_request(flight_ring, f"r{i}", t0=float(i))
        out = flight_ring.export_jsonl(tmp_path / "ring.jsonl")
        assert _dump_ids(out) == ["r0", "r1", "r2"]
        assert len(out.read_text().splitlines()) == 3 * len(STAGES)
