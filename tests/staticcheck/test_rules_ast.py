"""Layer-1 AST rules: each RPR00x fires on its fixture, not on the clean twin."""

from __future__ import annotations

import pytest

from tests.staticcheck.helpers import findings_for


class TestRPR002UnpinnedGemm:
    FLAGGED = """
        import numpy as np

        def run(a, w, batch):
            chunk = batch * 2
            return a[:chunk] @ w
    """

    def test_hot_path_without_marker_flagged(self):
        (finding,) = findings_for(self.FLAGGED, "RPR002", path="core/engine_x.py")
        assert finding.severity == "warning"
        assert "batch" in finding.message

    def test_non_hot_path_not_flagged(self):
        assert findings_for(self.FLAGGED, "RPR002", path="analysis/tables.py") == []

    def test_marker_clears_it(self):
        src = """
            import numpy as np

            def run(a, w, batch):
                chunk = batch * 2
                # staticcheck: gemm-shape-pinned
                return a[:chunk] @ w
        """
        assert findings_for(src, "RPR002", path="core/engine_x.py") == []

    def test_toeplitz_pass_is_in_scope(self):
        """The banded-Toeplitz pass is a hot path: its matmul passes on
        the marker, and the same function without it fires."""
        from pathlib import Path

        import repro.core.toeplitz as toeplitz

        source = Path(toeplitz.__file__).read_text()
        assert findings_for(source, "RPR002", path="core/toeplitz.py") == []
        unmarked = source.replace("staticcheck: gemm-shape-pinned", "gemm shapes")
        assert unmarked != source
        (finding,) = findings_for(unmarked, "RPR002", path="core/toeplitz.py")
        assert "toeplitz_valid" in finding.message

    def test_gemm_without_batch_vars_not_flagged(self):
        src = """
            import numpy as np

            def run(a, w):
                return a @ w
        """
        assert findings_for(src, "RPR002", path="core/engine_x.py") == []


class TestRPR004Nondeterminism:
    def test_unseeded_default_rng_flagged(self):
        src = """
            import numpy as np

            def f():
                return np.random.default_rng().random(3)
        """
        (finding,) = findings_for(src, "RPR004")
        assert finding.severity == "error"

    def test_legacy_global_rng_flagged(self):
        src = """
            import numpy as np

            def f():
                return np.random.rand(3)
        """
        (finding,) = findings_for(src, "RPR004")
        assert "global-state" in finding.message

    def test_stdlib_random_flagged(self):
        src = """
            import random

            def f():
                return random.random()
        """
        (finding,) = findings_for(src, "RPR004")
        assert "Mersenne" in finding.message

    def test_clock_read_is_warning(self):
        src = """
            import time

            def f():
                return time.perf_counter()
        """
        (finding,) = findings_for(src, "RPR004")
        assert finding.severity == "warning"

    def test_clean_twins(self):
        src = """
            import numpy as np

            def f(seed):
                rng = np.random.default_rng(seed)
                return rng.random(3)
        """
        assert findings_for(src, "RPR004") == []

    def test_method_named_random_on_generator_not_flagged(self):
        src = """
            def f(rng):
                return rng.random(3)
        """
        assert findings_for(src, "RPR004") == []


class TestLineSuppression:
    HIT = """
        import time

        def f():
            return time.perf_counter()
    """

    def test_inline_suppression(self):
        src = self.HIT.replace(
            "time.perf_counter()",
            "time.perf_counter()  # staticcheck: disable=RPR004",
        )
        assert findings_for(src, "RPR004") == []

    def test_suppression_names_the_rule(self):
        src = self.HIT.replace(
            "time.perf_counter()",
            "time.perf_counter()  # staticcheck: disable=RPR006",
        )
        assert len(findings_for(src, "RPR004")) == 1

    def test_suppression_must_sit_on_the_anchor_line(self):
        # Findings anchor on the call line; a comment on the closing
        # paren of a multi-line call does not suppress.
        src = """
            import time

            def f():
                return time.perf_counter(
                )  # staticcheck: disable=RPR004
        """
        assert len(findings_for(src, "RPR004")) == 1

    @pytest.mark.parametrize(
        "comment",
        ["# staticcheck: disable-file=RPR004", "# staticcheck: disable=all"],
    )
    def test_no_file_wide_or_all_suppression(self, comment):
        # Only a line-scoped, rule-named disable silences a finding.
        src = self.HIT.replace("import time", f"{comment}\n        import time")
        assert len(findings_for(src, "RPR004")) == 1
        src = self.HIT.replace(
            "time.perf_counter()", f"time.perf_counter()  {comment}"
        )
        assert len(findings_for(src, "RPR004")) == 1


class TestRPR006SwallowedExceptions:
    def test_bare_except_is_error(self):
        src = """
            def f():
                try:
                    work()
                except:
                    pass
        """
        (finding,) = findings_for(src, "RPR006")
        assert finding.severity == "error"

    def test_broad_swallow_is_warning(self):
        src = """
            def f():
                try:
                    work()
                except Exception:
                    pass
        """
        (finding,) = findings_for(src, "RPR006")
        assert finding.severity == "warning"

    def test_handled_broad_except_not_flagged(self):
        src = """
            def f(log):
                try:
                    work()
                except Exception as exc:
                    log.warning("failed: %s", exc)
                    raise
        """
        assert findings_for(src, "RPR006") == []

    def test_narrow_except_not_flagged(self):
        src = """
            def f():
                try:
                    work()
                except FileNotFoundError:
                    pass
        """
        assert findings_for(src, "RPR006") == []


def test_parse_failure_becomes_rpr000(tmp_path):
    from repro.staticcheck import lint_paths

    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n")
    result = lint_paths([str(bad)])
    (finding,) = result.findings
    assert finding.rule_id == "RPR000"
    assert finding.severity == "error"
