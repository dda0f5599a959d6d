"""Layer-3 concurrency rules: RPR101–103 fixtures and clean twins."""

from __future__ import annotations

from tests.staticcheck.helpers import findings_for


class TestRPR101SharedMemoryLifetime:
    def test_unmatched_create_flagged(self):
        src = """
            from multiprocessing import shared_memory

            def leak(n):
                seg = shared_memory.SharedMemory(create=True, size=n)
                return seg.name
        """
        (finding,) = findings_for(src, "RPR101")
        assert finding.severity == "error"
        assert "unlink" in finding.message

    def test_finally_unlink_clean(self):
        src = """
            from multiprocessing import shared_memory

            def ok(n):
                seg = None
                try:
                    seg = shared_memory.SharedMemory(create=True, size=n)
                    return seg.name
                finally:
                    if seg is not None:
                        seg.unlink()
        """
        assert findings_for(src, "RPR101") == []

    def test_helper_unlink_in_finally_clean(self):
        # Two segments: creation inside try/except with a separate
        # try/finally calling an unlink helper.
        src = """
            from multiprocessing import shared_memory

            def ok(n, _unlink_segments):
                seg_in = seg_out = None
                try:
                    seg_in = shared_memory.SharedMemory(create=True, size=n)
                    seg_out = shared_memory.SharedMemory(create=True, size=n)
                except OSError:
                    _unlink_segments(seg_in, seg_out)
                    raise
                try:
                    return seg_in.name, seg_out.name
                finally:
                    _unlink_segments(seg_in, seg_out)
        """
        assert findings_for(src, "RPR101") == []

    def test_attach_not_flagged(self):
        src = """
            from multiprocessing import shared_memory

            def attach(name):
                return shared_memory.SharedMemory(name=name, create=False)
        """
        assert findings_for(src, "RPR101") == []


class TestRPR102LockDiscipline:
    def test_explicit_acquire_flagged(self):
        src = """
            def f(self):
                self._lock.acquire()
                try:
                    work()
                finally:
                    self._lock.release()
        """
        findings = findings_for(src, "RPR102")
        assert findings and findings[0].severity == "error"
        assert "acquire" in findings[0].message

    def test_order_inversion_flagged(self):
        # Declared order holds build_lock OUTSIDE _lock; the inverse —
        # grabbing a build lock while holding the global lock — is the
        # stall PR 3's cache fix removed.
        src = """
            def f(self, build_lock):
                with self._lock:
                    with build_lock:
                        work()
        """
        (finding,) = findings_for(src, "RPR102")
        assert "declared order" in finding.message

    def test_declared_order_clean(self):
        src = """
            def f(self, build_lock):
                with build_lock:
                    with self._lock:
                        work()
        """
        assert findings_for(src, "RPR102") == []

    def test_with_only_single_lock_clean(self):
        src = """
            def f(self):
                with self._pool_lock:
                    work()
        """
        assert findings_for(src, "RPR102") == []


class TestRPR103BlockingUnderGlobalLock:
    def test_future_result_under_lock_flagged(self):
        src = """
            def f(self, future):
                with self._lock:
                    return future.result()
        """
        (finding,) = findings_for(src, "RPR103")
        assert finding.severity == "error"
        assert ".result()" in finding.message

    def test_builder_call_under_lock_flagged(self):
        src = """
            def get_or_build(self, key, builder):
                with self._lock:
                    plan = builder()
                    self._plans[key] = plan
                return plan
        """
        (finding,) = findings_for(src, "RPR103")
        assert "builder" in finding.message

    def test_builder_outside_lock_clean(self):
        # The PR 3 cache shape: build under the per-key lock, only the
        # dict insertion under the global lock.
        src = """
            def get_or_build(self, key, builder, build_lock):
                with build_lock:
                    plan = builder()
                    with self._lock:
                        self._plans[key] = plan
                return plan
        """
        assert findings_for(src, "RPR103") == []

    def test_cheap_calls_under_lock_clean(self):
        src = """
            def f(self, key):
                with self._lock:
                    self._plans.move_to_end(key)
                    return self._plans.get(key)
        """
        assert findings_for(src, "RPR103") == []


def test_production_runtime_modules_are_clean():
    """The shipped runtime passes its own concurrency rules un-suppressed."""
    from pathlib import Path

    import repro
    from repro.staticcheck import lint_paths

    pkg = Path(repro.__file__).parent
    result = lint_paths(
        [
            str(pkg / "runtime" / "tiled.py"),
            str(pkg / "runtime" / "backends.py"),
            str(pkg / "runtime" / "cache.py"),
        ]
    )
    concurrency = [f for f in result.findings if f.rule_id.startswith("RPR1")]
    assert concurrency == []
