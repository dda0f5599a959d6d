"""Waterfall rendering: span JSONL parsing, trace reconstruction, error paths."""

from __future__ import annotations

import json

import pytest

from repro.errors import ReproError
from repro.flight.waterfall import (
    load_requests,
    render_request_report,
    render_waterfall,
    spans_to_trace,
)


def _trace_dict(rid, stages=None, **extra):
    base = {
        "request_id": rid,
        "tenant": "acme",
        "trace_id": f"t-{rid}",
        "status": "ok",
        "stages": stages
        if stages is not None
        else [
            {"name": "admit", "start": 0.0, "end": 0.001},
            {"name": "queue_wait", "start": 0.001, "end": 0.005},
            {"name": "coalesce", "start": 0.005, "end": 0.006},
            {
                "name": "execute",
                "start": 0.006,
                "end": 0.016,
                "attributes": {"batch_id": "b00001", "links": [rid, "other"]},
            },
            {"name": "split", "start": 0.016, "end": 0.017},
        ],
    }
    base.update(extra)
    return base


def _span(name, rid, start, end, **attrs):
    attrs.setdefault("trace_id", f"t-{rid}")
    attrs.setdefault("tenant", "acme")
    return {
        "name": name,
        "span_id": 1,
        "start": start,
        "end": end,
        "attributes": dict(attrs, request_id=rid),
    }


def _request_spans(rid, status="ok", **outcome):
    """The span dicts of one served request (terminal outcome on split)."""
    trace = _trace_dict(rid)
    spans = [
        _span(f"serve.{s['name']}", rid, s["start"], s["end"], **s.get("attributes", {}))
        for s in trace["stages"]
    ]
    spans[-1]["attributes"].update({"status": status, "reason": "", "slo_breached": False})
    spans[-1]["attributes"].update(outcome)
    return spans


def _write_spans(path, spans):
    path.write_text("".join(json.dumps(s) + "\n" for s in spans))


class TestLoadDump:
    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ReproError, match="cannot read"):
            load_requests(tmp_path / "absent.jsonl")

    def test_meta_skipped_traces_kept(self, tmp_path):
        p = tmp_path / "d.jsonl"
        engine = {"name": "convstencil.pass", "span_id": 9, "start": 0.0, "end": 1.0}
        _write_spans(p, [engine] + _request_spans("r1") + _request_spans("r2"))
        traces, problems = load_requests(p)
        assert list(traces) == ["r1", "r2"]  # non-request spans are skipped
        assert problems == []

    def test_truncated_lines_reported_not_fatal(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text(
            "".join(json.dumps(s) + "\n" for s in _request_spans("r1"))
            + '{"name": "serve.admit", "sta'  # mid-write cut
        )
        traces, problems = load_requests(p)
        assert list(traces) == ["r1"]
        assert len(problems) == 1 and ":6:" in problems[0]

    def test_find_trace_newest_wins(self):
        spans = _request_spans("dup", status="error") + _request_spans("dup")
        assert spans_to_trace(spans, "dup")["status"] == "ok"
        assert spans_to_trace(spans, "nope") is None


class TestSpansToTrace:
    def test_rebuilds_matching_request_only(self):
        spans = [
            _span("serve.admit", "r1", 0.0, 0.001),
            _span("serve.execute", "r1", 0.002, 0.010, links=["r1"]),
            _span("serve.admit", "r2", 0.0, 0.001),
            {"name": "gemm", "start": 0.0, "end": 1.0},  # non-serve span
        ]
        trace = spans_to_trace(spans, "r1")
        assert [s["name"] for s in trace["stages"]] == ["admit", "execute"]
        assert trace["tenant"] == "acme"
        assert trace["trace_id"] == "t-r1"
        assert trace["stages"][1]["attributes"]["links"] == ["r1"]

    def test_unknown_request_returns_none(self):
        assert spans_to_trace([_span("serve.admit", "r1", 0, 1)], "r9") is None

    def test_trace_id_finds_its_admission_of_a_reused_request_id(self):
        spans = _request_spans("dup", status="error") + _request_spans("dup")
        for span, trace_id in zip(spans, ["t-old"] * 5 + ["t-new"] * 5):
            span["attributes"]["trace_id"] = trace_id
        assert spans_to_trace(spans, "dup")["trace_id"] == "t-new"
        by_trace = spans_to_trace(spans, "t-old")
        assert by_trace["trace_id"] == "t-old" and by_trace["status"] == "error"
        assert len(by_trace["stages"]) == 5


class TestRenderWaterfall:
    def test_bars_totals_and_batch_membership(self):
        lines = render_waterfall(_trace_dict("r1"))
        text = "\n".join(lines)
        assert "request r1" in lines[0]
        assert "execute" in text and "█" in text
        assert "total 17.00ms" in text
        assert "coalesced into batch b00001 with 2 member(s): r1, other" in text

    def test_ok_trace_missing_stages_warns_truncated(self):
        trace = _trace_dict(
            "r1", stages=[{"name": "admit", "start": 0.0, "end": 0.001}]
        )
        text = "\n".join(render_waterfall(trace))
        assert "truncated" in text
        assert "queue_wait" in text and "execute" in text

    def test_rejected_trace_shows_reason_without_warning(self):
        trace = _trace_dict(
            "r1",
            stages=[{"name": "admit", "start": 0.0, "end": 0.001}],
            status="rejected",
            reason="quota",
        )
        text = "\n".join(render_waterfall(trace))
        assert "reason: quota" in text
        assert "truncated" not in text

    def test_slo_breach_flagged_in_header(self):
        lines = render_waterfall(_trace_dict("r1", slo_breached=True))
        assert "[SLO BREACH]" in lines[0]


class TestRenderRequestReport:
    def test_renders_from_flight_dump(self, tmp_path):
        from repro import flight
        from repro.telemetry.trace import Tracer

        tracer = Tracer()
        for span in _request_spans("r1", slo_breached=True):
            tracer.record_span(span["name"], span["start"], span["end"], span["attributes"])
        dump = flight.dump("slo-breach-r1", "t-r1", tracer=tracer, dump_dir=tmp_path)
        lines = render_request_report(dump, "r1")
        assert "request r1" in lines[0] and "[SLO BREACH]" in lines[0]

    def test_renders_from_span_jsonl(self, tmp_path):
        p = tmp_path / "spans.jsonl"
        span = {
            "name": "serve.admit",
            "span_id": 1,
            "start": 0.0,
            "end": 0.001,
            "attributes": {"request_id": "r7", "trace_id": "t-x"},
        }
        p.write_text(json.dumps(span) + "\n")
        assert "request r7" in render_request_report(p, "r7")[0]

    def test_trace_id_renders_the_request_waterfall(self, tmp_path):
        p = tmp_path / "d.jsonl"
        _write_spans(p, _request_spans("r1") + _request_spans("r2"))
        assert render_request_report(p, "t-r2") == render_request_report(p, "r2")

    def test_absent_id_lists_known_ids(self, tmp_path):
        p = tmp_path / "d.jsonl"
        _write_spans(p, _request_spans("r1") + _request_spans("r2"))
        with pytest.raises(ReproError, match=r"known request ids: r1, r2"):
            render_request_report(p, "missing")

    def test_empty_file_explains_itself(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text("")
        with pytest.raises(ReproError, match="is empty"):
            render_request_report(p, "r1")
        _write_spans(p, [{"name": "gemm", "start": 0.0, "end": 1.0}])
        with pytest.raises(ReproError, match="no request-stamped spans"):
            render_request_report(p, "r1")
