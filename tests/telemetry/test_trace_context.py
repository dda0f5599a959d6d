"""Trace-context propagation: scopes and span stamping."""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextvars

from repro.telemetry.trace import TraceContext, trace_scope


class TestScope:
    def test_scope_binds_and_restores(self, tele):
        assert tele.current_trace() is None
        with trace_scope("t-1", "r-1") as ctx:
            assert ctx == TraceContext("t-1", "r-1")
            assert tele.current_trace() == ctx
        assert tele.current_trace() is None

    def test_scopes_nest_inner_wins(self, tele):
        with trace_scope("t-outer", "r-outer"):
            with trace_scope("t-inner", "r-inner"):
                assert tele.current_trace().trace_id == "t-inner"
            assert tele.current_trace().trace_id == "t-outer"

    def test_accepts_existing_context_object(self, tele):
        ctx = TraceContext("t-9", "r-9")
        with trace_scope(ctx) as bound:
            assert bound is ctx

    def test_falsy_trace_id_is_inert(self, tele):
        with trace_scope("outer"):
            with trace_scope("") as ctx:
                assert ctx is None
                assert tele.current_trace().trace_id == "outer"
        with trace_scope(None) as ctx:
            assert ctx is None

    def test_set_reset_token_protocol(self, tele):
        token = tele.set_trace("t-1", "r-1")
        assert tele.current_trace() == TraceContext("t-1", "r-1")
        tele.reset_trace(token)
        assert tele.current_trace() is None

    def test_new_trace_ids_are_unique_and_clock_free(self, tele):
        ids = {tele.new_trace_id() for _ in range(100)}
        assert len(ids) == 100
        assert all(i.startswith("t") and "-" in i for i in ids)


class TestStamping:
    def test_spans_inherit_ambient_trace(self, tele):
        tele.enable()
        with trace_scope("t-1", "r-1"):
            with tele.span("work"):
                pass
        (sp,) = tele.get_tracer().spans()
        assert sp.attributes["trace_id"] == "t-1"
        assert sp.attributes["request_id"] == "r-1"

    def test_explicit_attributes_beat_the_ambient_context(self, tele):
        tele.enable()
        with trace_scope("t-ambient", "r-ambient"):
            tele.record_span("serve.admit", 0.0, 1.0, trace_id="t-own")
        (sp,) = tele.get_tracer().spans()
        assert sp.attributes["trace_id"] == "t-own"
        assert sp.attributes["request_id"] == "r-ambient"

    def test_record_span_is_none_while_disabled(self, tele):
        tele.disable()
        assert tele.record_span("serve.admit", 0.0, 1.0) is None

    def test_unbound_context_leaves_spans_unstamped(self, tele):
        tele.enable()
        with tele.span("work"):
            pass
        (sp,) = tele.get_tracer().spans()
        assert "trace_id" not in sp.attributes


class TestAsyncAndExecutorHops:
    def test_create_task_inherits_the_spawning_context(self, tele):
        tele.enable()

        async def main():
            with trace_scope("t-task", "r-task"):
                task = asyncio.create_task(child())
            return await task

        async def child():
            return tele.current_trace()

        assert asyncio.run(main()) == TraceContext("t-task", "r-task")

    def test_executor_drops_context_unless_copied(self, tele):
        with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
            with trace_scope("t-exec", "r-exec"):
                bare = pool.submit(tele.current_trace).result()
                ctx = contextvars.copy_context()
                copied = pool.submit(ctx.run, tele.current_trace).result()
        assert bare is None  # the RPR305 hazard, demonstrated
        assert copied == TraceContext("t-exec", "r-exec")
