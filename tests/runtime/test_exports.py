"""Top-level exports."""

import repro


class TestTopLevelExports:
    def test_runtime_symbols_exported(self):
        for name in (
            "Backend",
            "ExecutionPlan",
            "PlanCache",
            "get_backend",
            "list_backends",
            "register_backend",
        ):
            assert name in repro.__all__
            assert hasattr(repro, name)

    def test_all_is_sorted_and_resolvable(self):
        assert repro.__all__ == sorted(repro.__all__)
        missing = [n for n in repro.__all__ if not hasattr(repro, n)]
        assert not missing

    def test_runtime_package_all_resolvable(self):
        from repro import runtime

        missing = [n for n in runtime.__all__ if not hasattr(runtime, n)]
        assert not missing
