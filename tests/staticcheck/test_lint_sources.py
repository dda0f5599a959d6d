"""The in-memory lint hook used for generated kernels (``lint_sources``)."""

import pytest

from repro.staticcheck import lint_paths, lint_sources


CLEAN = '''\
"""A tidy module."""

def f(x):
    return x + 1
'''

GEMM_UNPINNED = '''\
"""Engine-looking module with an unmarked batched GEMM."""
import numpy as np

def run(batch, w):
    block = batch @ w
    return block
'''

GEMM_MARKED = '''\
"""Engine-looking module with the acknowledgement marker."""
import numpy as np

def run(batch, w):
    # staticcheck: gemm-shape-pinned
    block = batch @ w
    return block
'''


class TestLintSources:
    def test_clean_source_has_no_findings(self):
        result = lint_sources({"clean.py": CLEAN})
        assert result.ok and result.findings == []
        assert result.files_scanned == 1

    def test_syntax_error_is_rpr000(self):
        result = lint_sources({"bad.py": "def broken(:\n"})
        assert not result.ok
        assert [f.rule_id for f in result.findings] == ["RPR000"]

    def test_rules_apply_to_engine_named_sources(self):
        # RPR002 keys off engine-ish module stems: the same text that is
        # clean under a neutral name is flagged under an engine name
        neutral = lint_sources({"helper.py": GEMM_UNPINNED})
        engine = lint_sources({"compiled_engine_test.py": GEMM_UNPINNED})
        assert all(f.rule_id != "RPR002" for f in neutral.findings)
        assert any(f.rule_id == "RPR002" for f in engine.findings)

    def test_pinned_marker_satisfies_rpr002(self):
        result = lint_sources({"compiled_engine_test.py": GEMM_MARKED})
        assert all(f.rule_id != "RPR002" for f in result.findings)

    def test_inline_suppression_respected(self):
        suppressed = GEMM_UNPINNED.replace(
            "block = batch @ w",
            "block = batch @ w  # staticcheck: disable=RPR002",
        )
        result = lint_sources({"compiled_engine_test.py": suppressed})
        assert all(f.rule_id != "RPR002" for f in result.findings)

    def test_accepts_pairs_iterable(self):
        result = lint_sources([("a.py", CLEAN), ("b.py", CLEAN)])
        assert result.files_scanned == 2 and result.ok


RNG_HIT = '''\
"""Module with an unseeded generator."""
import numpy as np

def noise():
    return np.random.default_rng().random(3)
'''


class TestOneLoopForFilesAndSources:
    """``lint_paths`` and ``lint_sources`` share one per-module loop."""

    @pytest.mark.parametrize(
        "text, expected",
        [
            (RNG_HIT, ["RPR004"]),
            (
                RNG_HIT.replace(
                    ".random(3)", ".random(3)  # staticcheck: disable=RPR004"
                ),
                [],
            ),
            ("def broken(:\n", ["RPR000"]),
        ],
        ids=["hit", "line-suppressed", "unparseable"],
    )
    def test_same_findings_on_disk_and_in_memory(self, tmp_path, text, expected):
        path = tmp_path / "module.py"
        path.write_text(text)
        on_disk = lint_paths([str(path)])
        in_memory = lint_sources({"module.py": text})

        def triples(result):
            return [(f.rule_id, f.line, f.message) for f in result.findings]

        assert [rule_id for rule_id, _, _ in triples(on_disk)] == expected
        assert triples(on_disk) == triples(in_memory)
        assert on_disk.files_scanned == in_memory.files_scanned == 1
        # Only the detached in-memory source carries a snippet.
        assert all(not f.snippet for f in on_disk.findings)
        hits = [f for f in in_memory.findings if f.rule_id != "RPR000"]
        assert all(f.snippet for f in hits)
