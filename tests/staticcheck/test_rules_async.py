"""Layer 5 — asyncio concurrency rules for the serve/obs stack (RPR301–304).

Each rule gets a flagging snippet and a clean twin shaped like the idiom
the serve layer actually uses, so the rules stay tuned to real code
rather than to strawmen.
"""

from __future__ import annotations

from .helpers import findings_for


class TestAwaitUnderSyncLock:
    def test_flags_await_inside_sync_with_lock(self):
        findings = findings_for(
            """
            async def flush(self):
                with self._lock:
                    await self._drain()
            """,
            "RPR301",
        )
        assert len(findings) == 1
        assert "_lock" in findings[0].message

    def test_async_with_asyncio_lock_is_clean(self):
        assert (
            findings_for(
                """
                async def flush(self):
                    async with self._lock:
                        await self._drain()
                """,
                "RPR301",
            )
            == []
        )

    def test_sync_lock_released_before_await_is_clean(self):
        assert (
            findings_for(
                """
                async def flush(self):
                    with self._lock:
                        batch = list(self._pending)
                    await self._drain(batch)
                """,
                "RPR301",
            )
            == []
        )

    def test_lock_in_enclosing_function_does_not_leak(self):
        # The with-block belongs to the sync closure, not the coroutine.
        assert (
            findings_for(
                """
                def outer(self):
                    with self._lock:
                        async def inner():
                            await task()
                        return inner
                """,
                "RPR301",
            )
            == []
        )


class TestBlockingInAsync:
    def test_flags_time_sleep_in_coroutine(self):
        findings = findings_for(
            """
            import time

            async def poll(self):
                time.sleep(0.1)
            """,
            "RPR302",
        )
        assert len(findings) == 1
        assert "time.sleep()" in findings[0].message

    def test_flags_open_and_urlopen(self):
        findings = findings_for(
            """
            async def load(path):
                with open(path) as fh:
                    body = urlopen(fh.read())
                return body
            """,
            "RPR302",
        )
        assert {f.message.split()[1] for f in findings} == {
            "open()",
            "urlopen()",
        }

    def test_sync_function_is_clean(self):
        assert (
            findings_for(
                """
                import time

                def poll(self):
                    time.sleep(0.1)
                """,
                "RPR302",
            )
            == []
        )

    def test_sync_helper_nested_in_coroutine_is_clean(self):
        # The blocking call's *nearest* function is sync: it runs wherever
        # that helper is invoked (e.g. in an executor), not on the loop.
        assert (
            findings_for(
                """
                async def schedule(self):
                    def work():
                        time.sleep(0.1)
                    await loop.run_in_executor(None, work)
                """,
                "RPR302",
            )
            == []
        )


class TestFireAndForgetTask:
    def test_flags_bare_create_task(self):
        findings = findings_for(
            """
            async def kick(self):
                asyncio.create_task(self._work())
            """,
            "RPR303",
        )
        assert len(findings) == 1
        assert "create_task" in findings[0].message

    def test_flags_bare_ensure_future(self):
        assert (
            len(
                findings_for(
                    """
                    async def kick(self):
                        asyncio.ensure_future(self._work())
                    """,
                    "RPR303",
                )
            )
            == 1
        )

    def test_assigned_task_is_clean(self):
        assert (
            findings_for(
                """
                async def kick(self):
                    task = asyncio.create_task(self._work())
                    task.add_done_callback(self._reap)
                    self._tasks.add(task)
                """,
                "RPR303",
            )
            == []
        )

    def test_awaited_call_is_clean(self):
        assert (
            findings_for(
                """
                async def kick(self):
                    await asyncio.create_task(self._work())
                """,
                "RPR303",
            )
            == []
        )


class TestExecutorUnderLock:
    def test_flags_run_in_executor_under_sync_lock(self):
        findings = findings_for(
            """
            async def dispatch(self):
                with self._service_lock:
                    fut = loop.run_in_executor(None, fn)
                return fut
            """,
            "RPR304",
        )
        assert len(findings) == 1
        assert "run_in_executor" in findings[0].message

    def test_flags_pool_submit_under_sync_lock(self):
        findings = findings_for(
            """
            def dispatch(self):
                with self._lock:
                    return self._lane.pool.submit(fn)
            """,
            "RPR304",
        )
        assert len(findings) == 1
        assert "submit" in findings[0].message

    def test_submit_after_snapshot_is_clean(self):
        # The serve layer's _flush idiom: snapshot under the lock, release,
        # then dispatch.
        assert (
            findings_for(
                """
                def dispatch(self):
                    with self._lock:
                        lane = self._lanes[key]
                    return lane.pool.submit(fn)
                """,
                "RPR304",
            )
            == []
        )

    def test_non_executor_submit_is_clean(self):
        # .submit on something that is not an executor/pool/lane receiver.
        assert (
            findings_for(
                """
                def record(self):
                    with self._lock:
                        self.form.submit()
                """,
                "RPR304",
            )
            == []
        )


class TestTraceContextHandoff:
    SERVE_PATH = "src/repro/serve/snippet.py"

    def test_bare_executor_handoff_in_serve_tree_flagged(self):
        findings = findings_for(
            """
            async def _flush(self, key):
                future = loop.run_in_executor(lane.pool, self._execute, key)
                return await future
            """,
            "RPR305",
            path=self.SERVE_PATH,
        )
        assert len(findings) == 1
        assert "trace" in findings[0].message
        assert "trace-context-propagated" in findings[0].fix_hint

    def test_create_task_without_marker_flagged(self):
        findings = findings_for(
            """
            def _spawn(self, coro):
                task = asyncio.create_task(coro)
                task.add_done_callback(self._reap)
                return task
            """,
            "RPR305",
            path=self.SERVE_PATH,
        )
        assert len(findings) == 1

    def test_pool_submit_flagged(self):
        findings = findings_for(
            """
            def kick(self):
                return self._lane_pool.submit(self._execute)
            """,
            "RPR305",
            path=self.SERVE_PATH,
        )
        assert len(findings) == 1

    def test_marker_annotation_passes(self):
        assert (
            findings_for(
                """
                def _spawn(self, coro):
                    # staticcheck: trace-context-propagated — create_task copies
                    # the caller's contextvars natively
                    task = asyncio.create_task(coro)
                    return task
                """,
                "RPR305",
                path=self.SERVE_PATH,
            )
            == []
        )

    def test_copy_context_in_function_passes(self):
        assert (
            findings_for(
                """
                def kick(self):
                    ctx = contextvars.copy_context()
                    return self._pool.submit(ctx.run, self._execute)
                """,
                "RPR305",
                path=self.SERVE_PATH,
            )
            == []
        )

    def test_non_serve_tree_is_out_of_scope(self):
        assert (
            findings_for(
                """
                def kick(self):
                    return self._pool.submit(self._work)
                """,
                "RPR305",
                path="src/repro/runtime/snippet.py",
            )
            == []
        )

    def test_non_executor_submit_is_clean(self):
        assert (
            findings_for(
                """
                def post(self):
                    return self._form.submit(self._payload)
                """,
                "RPR305",
                path=self.SERVE_PATH,
            )
            == []
        )


class TestSuppression:
    def test_disable_comment_suppresses(self):
        assert (
            findings_for(
                """
                async def kick(self):
                    asyncio.create_task(self._work())  # staticcheck: disable=RPR303
                """,
                "RPR303",
            )
            == []
        )


def test_serve_obs_flight_trees_are_clean_without_suppressions():
    """The shipped serve/obs/flight layers pass RPR301–305 with zero disables."""
    import pathlib

    from repro.staticcheck import lint_paths

    import repro.flight
    import repro.obs
    import repro.serve

    paths = [
        str(pathlib.Path(repro.serve.__file__).parent),
        str(pathlib.Path(repro.obs.__file__).parent),
        str(pathlib.Path(repro.flight.__file__).parent),
    ]
    rules = ("RPR301", "RPR302", "RPR303", "RPR304", "RPR305")
    result = lint_paths(paths)
    async_hits = [f for f in result.findings if f.rule_id in rules]
    assert async_hits == [], [f.format() for f in async_hits]
    for path in paths:
        for py in pathlib.Path(path).glob("*.py"):
            text = py.read_text()
            for rule in rules:
                assert f"disable={rule}" not in text, (
                    f"{py} suppresses {rule} instead of fixing it"
                )
