"""Phase-breakdown report: trace loading, aggregation, CLI subcommand."""

from __future__ import annotations

import json

import pytest

from repro import cli
from repro.errors import ReproError
from repro.telemetry.report import (
    load_trace,
    load_trace_details,
    phase_breakdown,
    render_phase_report,
    strategy_summary,
)


def _make_trace(tele, tmp_path, suffix):
    tele.enable()
    with tele.span("run", kernel="box-2d9p"):
        for _ in range(3):
            with tele.span("pass"):
                pass
    return tele.get_tracer().export(tmp_path / f"trace{suffix}")


class TestLoadTrace:
    @pytest.mark.parametrize("suffix", [".jsonl", ".json"])
    def test_loads_both_formats(self, tele, tmp_path, suffix):
        path = _make_trace(tele, tmp_path, suffix)
        spans = load_trace(path)
        assert sorted(sp["name"] for sp in spans) == ["pass", "pass", "pass", "run"]
        assert all(sp["duration"] >= 0 for sp in spans)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ReproError, match="cannot read"):
            load_trace(tmp_path / "nope.jsonl")

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ReproError, match="empty"):
            load_trace(path)

    def test_malformed_line_skipped_and_counted(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"name": "ok", "start": 0, "end": 1}\nnot json\n')
        spans, skipped = load_trace_details(path)
        assert [sp["name"] for sp in spans] == ["ok"]
        assert len(skipped) == 1
        assert "bad.jsonl:2" in skipped[0]
        # the lenient facade drops the skip list but keeps the spans
        assert [sp["name"] for sp in load_trace(path)] == ["ok"]

    def test_skips_non_span_and_non_numeric_lines(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        path.write_text(
            "\n".join(
                [
                    '{"name": "ok", "start": 0, "end": 1}',
                    "[1, 2, 3]",  # JSON, but not a span object
                    '{"name": "late", "start": "x", "end": 1}',  # non-numeric
                    '{"start": 0, "end": 1}',  # no name
                    '{"name": "ok2", "start": 1, "end": 2}',
                ]
            )
            + "\n"
        )
        spans, skipped = load_trace_details(path)
        assert [sp["name"] for sp in spans] == ["ok", "ok2"]
        assert len(skipped) == 3

    def test_all_lines_malformed_raises(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_text("not json\nalso not\n")
        with pytest.raises(ReproError):
            load_trace(path)

    def test_report_footer_counts_skipped(self, tele, tmp_path):
        path = _make_trace(tele, tmp_path, ".jsonl")
        with open(path, "a") as fh:
            fh.write("truncated garbag")
        lines = cli.run(["telemetry-report", str(path)])
        assert any("Skipped 1 malformed trace line" in ln for ln in lines)


class TestBreakdown:
    def test_shares_are_against_root_wall_time(self, tele, tmp_path):
        path = _make_trace(tele, tmp_path, ".jsonl")
        stats = {s.name: s for s in phase_breakdown(load_trace(path))}
        assert stats["run"].share == pytest.approx(1.0)
        assert stats["run"].count == 1
        assert stats["pass"].count == 3
        # children are nested inside the single root, so <= 100 %
        assert stats["pass"].share <= 1.0
        assert stats["pass"].mean == pytest.approx(stats["pass"].total / 3)

    def test_chrome_roots_recovered_by_containment(self, tele, tmp_path):
        path = _make_trace(tele, tmp_path, ".json")
        stats = {s.name: s for s in phase_breakdown(load_trace(path))}
        assert stats["run"].share == pytest.approx(1.0)
        assert stats["pass"].share <= 1.0

    def test_empty_span_list(self):
        assert phase_breakdown([]) == []

    def test_render_contains_headers_and_phases(self, tele, tmp_path):
        path = _make_trace(tele, tmp_path, ".jsonl")
        text = render_phase_report(path)
        for needle in ("phase", "total [ms]", "% of run", "run", "pass"):
            assert needle in text


class TestCli:
    def test_telemetry_report_subcommand(self, tele, tmp_path):
        path = _make_trace(tele, tmp_path, ".jsonl")
        lines = cli.run(["telemetry-report", str(path)])
        joined = "\n".join(lines)
        assert "Phase breakdown" in joined
        assert "run" in joined and "pass" in joined

    def test_telemetry_report_top_limits_rows(self, tele, tmp_path):
        path = _make_trace(tele, tmp_path, ".jsonl")
        all_lines = cli.run(["telemetry-report", str(path)])
        top_lines = cli.run(["telemetry-report", str(path), "--top", "1"])
        assert len(top_lines) < len(all_lines)

    def test_trace_flag_writes_parseable_chrome_trace(self, tele, tmp_path):
        out = tmp_path / "cli.json"
        lines = cli.run(["2d", "box2d1r", "32", "32", "2", "--trace", str(out)])
        assert any(line.startswith("TRACE: wrote") for line in lines)
        payload = json.loads(out.read_text())
        names = {ev["name"] for ev in payload["traceEvents"]}
        assert {"cli.run", "convstencil.run", "convstencil.pass"} <= names

    def test_metrics_flag_prints_sim_counters(self, tele):
        lines = cli.run(["2d", "box2d1r", "8", "8", "1", "--metrics"])
        assert any(line.strip().startswith("sim.mma_fp64") for line in lines)
        assert any("tensor_core_utilisation" in line for line in lines)


class TestFooters:
    def test_strategy_footer_counts_passes_and_calibrations(self, tele, tmp_path):
        tele.enable()
        with tele.span("run"):
            with tele.span("runtime.plan.calibrate", kernel="k") as sp:
                sp.set_attribute("strategy", "direct")
            for strategy in ("direct", "direct", "gemm"):
                with tele.span("convstencil.pass", strategy=strategy):
                    pass
        path = tele.get_tracer().export(tmp_path / "strategy.jsonl")
        assert strategy_summary(load_trace(path))["passes"] == {"direct": 2, "gemm": 1}
        text = render_phase_report(path)
        assert "Pass strategies: 2 direct, 1 gemm; 1 calibration(s) in" in text
        assert text.rstrip().endswith("chose 1 direct")

    def test_perfwatch_trace_shows_suite_footer(self, tele, tmp_path):
        from repro.perfwatch import run_suite
        from tests.perfwatch.conftest import TINY_SPEC, TINY_SUITE

        tele.enable()
        run_suite(workloads=list(TINY_SUITE), spec=TINY_SPEC)
        path = tele.get_tracer().export(tmp_path / "pw.jsonl")
        joined = "\n".join(cli.run(["telemetry-report", str(path)]))
        assert "perfwatch.workload" in joined
        assert "Perf watch: 1 suite run(s), 1 workload(s), 3 timing sample(s)" in joined
