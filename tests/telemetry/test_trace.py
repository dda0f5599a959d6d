"""Span tracer: nesting, export formats, decorator, disabled fast path."""

from __future__ import annotations

import json
import threading
import time

from repro import obs
from repro.telemetry import level as levels
from repro.telemetry.trace import DEFAULT_MAX_SPANS, Tracer


class TestNesting:
    def test_parent_child_links(self, tele):
        obs.set_level("trace")
        with tele.span("outer", kernel="box-2d9p"):
            with tele.span("inner"):
                pass
            with tele.span("inner"):
                pass
        by_name = {}
        for sp in tele.get_tracer().spans():
            by_name.setdefault(sp.name, []).append(sp)
        outer = by_name["outer"][0]
        assert outer.parent_id is None
        assert len(by_name["inner"]) == 2
        for inner in by_name["inner"]:
            assert inner.parent_id == outer.span_id
            assert inner.duration <= outer.duration

    def test_children_sum_bounded_by_parent(self, tele):
        obs.set_level("trace")
        with tele.span("run"):
            for _ in range(5):
                with tele.span("pass"):
                    time.sleep(0.001)
        spans = tele.get_tracer().spans()
        run = next(sp for sp in spans if sp.name == "run")
        passes = [sp for sp in spans if sp.name == "pass"]
        assert len(passes) == 5
        assert sum(sp.duration for sp in passes) <= run.duration

    def test_attributes_and_set_attribute(self, tele):
        obs.set_level("trace")
        with tele.span("s", kernel="heat-2d", depth=3) as sp:
            sp.set_attribute("extra", 42)
        (rec,) = tele.get_tracer().spans()
        assert rec.attributes == {"kernel": "heat-2d", "depth": 3, "extra": 42}

    def test_exception_recorded_and_span_closed(self, tele):
        obs.set_level("trace")
        try:
            with tele.span("failing"):
                raise ValueError("boom")
        except ValueError:
            pass
        (rec,) = tele.get_tracer().spans()
        assert rec.attributes["error"] == "ValueError"
        assert rec.end >= rec.start
        assert tele.get_tracer().current() is None

    def test_thread_spans_do_not_interleave(self, tele):
        obs.set_level("trace")

        def work(i):
            with tele.span("thread-root", idx=i):
                with tele.span("thread-child", idx=i):
                    pass

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        spans = tele.get_tracer().spans()
        roots = [sp for sp in spans if sp.name == "thread-root"]
        children = [sp for sp in spans if sp.name == "thread-child"]
        assert len(roots) == len(children) == 4
        root_by_idx = {sp.attributes["idx"]: sp for sp in roots}
        for child in children:
            assert child.parent_id == root_by_idx[child.attributes["idx"]].span_id


class TestDecorator:
    def test_decorator_records_span(self, tele):
        obs.set_level("trace")

        @tele.span("decorated", tag="x")
        def f(a, b):
            return a + b

        assert f(2, 3) == 5
        (rec,) = tele.get_tracer().spans()
        assert rec.name == "decorated"
        assert rec.attributes == {"tag": "x"}

    def test_decorator_is_late_binding(self, tele):
        # decorated while disabled, must still trace once the level rises
        obs.set_level("off")

        @tele.span("late")
        def f():
            return 1

        f()
        assert len(tele.get_tracer()) == 0
        obs.set_level("trace")
        f()
        assert [sp.name for sp in tele.get_tracer().spans()] == ["late"]


class TestDisabled:
    def test_disabled_records_nothing(self, tele):
        obs.set_level("off")
        with tele.span("invisible") as sp:
            sp.set_attribute("k", "v")  # must be accepted and dropped
        assert len(tele.get_tracer()) == 0

    def test_disabled_span_is_cheap(self, tele):
        obs.set_level("off")
        n = 10_000
        t0 = time.perf_counter()
        for _ in range(n):
            with tele.span("noop"):
                pass
        per_call = (time.perf_counter() - t0) / n
        # generous bound: the disabled path must stay well under 50 µs/call
        # (measured ~1 µs; the bound only guards against gross regressions)
        assert per_call < 50e-6

    def test_enable_disable_roundtrip(self, tele):
        obs.set_level("trace")
        assert tele.enabled()
        obs.set_level("metrics")
        assert not tele.enabled()
        obs.set_level("profile")
        assert tele.enabled()
        obs.set_level("off")
        assert not tele.enabled()

    def test_env_var_parsing(self):
        assert levels._from_env({}) == levels.OFF
        for off in ("", "  ", "off", " OFF "):
            assert levels._from_env({"REPRO_OBS": off}) == levels.OFF
        for rank, name in enumerate(levels.LEVELS):
            assert levels._from_env({"REPRO_OBS": f" {name.upper()} "}) == rank


class TestExport:
    def test_jsonl_roundtrip(self, tele, tmp_path):
        obs.set_level("trace")
        with tele.span("a", kernel="k"):
            with tele.span("b"):
                pass
        path = tele.get_tracer().export_jsonl(tmp_path / "t.jsonl")
        lines = [json.loads(ln) for ln in path.read_text().splitlines()]
        assert {ln["name"] for ln in lines} == {"a", "b"}
        b = next(ln for ln in lines if ln["name"] == "b")
        a = next(ln for ln in lines if ln["name"] == "a")
        assert b["parent_id"] == a["span_id"]
        assert all(ln["duration"] >= 0 for ln in lines)

    def test_chrome_trace_structure(self, tele, tmp_path):
        obs.set_level("trace")
        with tele.span("phase", kernel="box-2d9p"):
            pass
        path = tele.get_tracer().export_chrome_trace(tmp_path / "t.json")
        payload = json.loads(path.read_text())
        (event,) = payload["traceEvents"]
        assert event["ph"] == "X"
        assert event["name"] == "phase"
        assert event["ts"] >= 0 and event["dur"] >= 0
        assert event["args"]["kernel"] == "box-2d9p"

    def test_export_dispatches_on_extension(self, tele, tmp_path):
        obs.set_level("trace")
        with tele.span("x"):
            pass
        jsonl = tele.get_tracer().export(tmp_path / "t.jsonl")
        chrome = tele.get_tracer().export(tmp_path / "t.json")
        assert json.loads(jsonl.read_text().splitlines()[0])["name"] == "x"
        assert "traceEvents" in json.loads(chrome.read_text())

    def test_clear_empties_buffer(self, tele):
        obs.set_level("trace")
        with tele.span("x"):
            pass
        assert len(tele.get_tracer()) == 1
        tele.get_tracer().clear()
        assert tele.get_tracer().spans() == []


class TestRingBuffer:
    def _closed(self, tracer, name):
        sp, token = tracer.begin(name, {})
        tracer.finish(sp, token)
        return sp

    def test_oldest_span_evicted_at_capacity(self):
        tr = Tracer(max_spans=3)
        for i in range(5):
            self._closed(tr, f"s{i}")
        assert len(tr) == 3
        assert [sp.name for sp in tr.spans()] == ["s2", "s3", "s4"]
        assert tr.total_recorded == 5
        assert tr.dropped == 2

    def test_zero_capacity_is_unbounded(self):
        tr = Tracer(max_spans=0)
        for i in range(100):
            self._closed(tr, f"s{i}")
        assert len(tr) == 100
        assert tr.dropped == 0
        assert Tracer().max_spans == DEFAULT_MAX_SPANS

    def test_spans_since_survives_eviction(self):
        tr = Tracer(max_spans=4)
        self._closed(tr, "old")
        mark = tr.total_recorded
        for i in range(6):  # more than a ring's worth after the mark
            self._closed(tr, f"n{i}")
        names = [sp.name for sp in tr.spans_since(mark)]
        assert names == ["n2", "n3", "n4", "n5"]  # newest still buffered
        assert tr.spans_since(tr.total_recorded) == []

    def test_clear_keeps_monotonic_total(self):
        tr = Tracer(max_spans=8)
        self._closed(tr, "a")
        before = tr.total_recorded
        tr.clear()
        assert len(tr) == 0
        assert tr.total_recorded == before
        mark = tr.total_recorded
        self._closed(tr, "b")
        assert [sp.name for sp in tr.spans_since(mark)] == ["b"]
