"""Reporter, baseline, CLI exit codes, and telemetry surfacing."""

from __future__ import annotations

import json
from pathlib import Path

from repro.cli import main, run
from repro.staticcheck import (
    Finding,
    LintResult,
    ModuleSource,
    all_rules,
    load_baseline,
    prune_baseline,
    render_json,
    render_sarif,
    render_text,
    run_lint,
    sort_findings,
    write_baseline,
)

GOLDEN = Path(__file__).parent / "data" / "golden_report.json"

#: Fixed snippet behind the golden report: one RPR001 and one RPR102 hit.
GOLDEN_SNIPPET = '''\
"""Seeded fixture for the golden report test."""

import numpy as np
import threading


def contract(a, b):
    return np.einsum("ij,jk->ik", a, b, optimize=True)


def hold(build_lock: threading.Lock):
    build_lock.acquire()
    return build_lock
'''


def _golden_result() -> LintResult:
    module = ModuleSource.parse("fixtures/seeded.py", GOLDEN_SNIPPET)
    findings = []
    for rule in all_rules().values():
        findings.extend(rule.check(module))
    return LintResult(findings=sort_findings(findings), files_scanned=1)


class TestReporter:
    def test_golden_json_report(self):
        payload = render_json(_golden_result())
        assert payload == GOLDEN.read_text().rstrip("\n")
        doc = json.loads(payload)
        assert doc["ok"] is False
        assert {f["rule_id"] for f in doc["findings"]} == {"RPR001", "RPR102"}

    def test_text_report_shape(self):
        lines = render_text(_golden_result())
        assert lines[-1] == "FAIL"
        assert any("RPR001" in line for line in lines)
        assert "staticcheck: 1 files" in lines[-2]

    def test_clean_result_renders_ok(self):
        lines = render_text(LintResult(files_scanned=3))
        assert lines[-1] == "OK"


class TestBaseline:
    def test_roundtrip_suppresses_known_findings(self, tmp_path):
        fixture = tmp_path / "bad.py"
        fixture.write_text(GOLDEN_SNIPPET)
        baseline_path = tmp_path / "baseline.json"

        first = run_lint(paths=[str(fixture)], include_plans=False)
        assert not first.ok
        write_baseline(str(baseline_path), first)

        second = run_lint(
            paths=[str(fixture)],
            include_plans=False,
            baseline=load_baseline(str(baseline_path)),
        )
        assert second.ok
        assert second.findings == []
        assert second.baseline_suppressed == len(first.findings)

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(str(tmp_path / "nope.json")) == []

    def test_baseline_key_ignores_line_drift(self):
        a = Finding("RPR001", "error", "f.py", 5, "msg")
        b = Finding("RPR001", "error", "f.py", 50, "msg")
        assert a.baseline_key == b.baseline_key


class TestCliLint:
    def test_shipped_tree_is_clean(self):
        lines = run(["lint", "--no-plans"])
        assert lines[-1] == "OK"

    def test_seeded_fixture_exits_nonzero(self, tmp_path, capsys):
        fixture = tmp_path / "bad.py"
        fixture.write_text(GOLDEN_SNIPPET)
        assert main(["lint", str(fixture), "--no-plans"]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "RPR001" in captured.out

    def test_json_stdout_stays_machine_parseable_on_failure(
        self, tmp_path, capsys
    ):
        fixture = tmp_path / "bad.py"
        fixture.write_text(GOLDEN_SNIPPET)
        rc = main(["lint", str(fixture), "--no-plans", "--format", "json"])
        captured = capsys.readouterr()
        assert rc == 2
        doc = json.loads(captured.out)  # stdout is exactly one JSON document
        assert doc["ok"] is False
        assert "error:" in captured.err

    def test_json_success_parses(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text('"""Clean module."""\n\nX = 1\n')
        assert main(["lint", str(clean), "--no-plans", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True and doc["files_scanned"] == 1

    def test_write_baseline_then_green(self, tmp_path):
        fixture = tmp_path / "bad.py"
        fixture.write_text(GOLDEN_SNIPPET)
        baseline = tmp_path / "base.json"
        lines = run(
            [
                "lint", str(fixture), "--no-plans",
                "--baseline", str(baseline), "--write-baseline",
            ]
        )
        assert "wrote baseline" in lines[0]
        lines = run(
            ["lint", str(fixture), "--no-plans", "--baseline", str(baseline)]
        )
        assert lines[-1] == "OK"

    def test_full_lint_runs_plan_layer(self):
        lines = run(["lint"])
        assert lines[-1] == "OK"
        summary = lines[-2]
        assert " plans, " in summary and " 0 plans, " not in summary


class TestSarif:
    def test_sarif_document_shape(self):
        doc = json.loads(render_sarif(_golden_result()))
        assert doc["version"] == "2.1.0"
        assert doc["$schema"].endswith("sarif-2.1.0.json")
        run_ = doc["runs"][0]
        assert run_["tool"]["driver"]["name"] == "repro-staticcheck"
        rule_ids = {r["id"] for r in run_["tool"]["driver"]["rules"]}
        # Registered AST/concurrency/async rules are always listed;
        # plan/symexec-layer rules appear ad hoc when findings carry them.
        assert {"RPR001", "RPR102", "RPR301", "RPR304"} <= rule_ids
        assert {r["ruleId"] for r in run_["results"]} == {"RPR001", "RPR102"}
        for res in run_["results"]:
            loc = res["locations"][0]["physicalLocation"]
            assert loc["artifactLocation"]["uriBaseId"] == "%SRCROOT%"
            assert loc["region"]["startLine"] >= 1

    def test_plan_pseudo_paths_make_valid_uris(self):
        result = LintResult(
            findings=[
                Finding("RPR201", "error", "plan:heat-2d", 0, "lut bound")
            ]
        )
        doc = json.loads(render_sarif(result))
        uri = doc["runs"][0]["results"][0]["locations"][0][
            "physicalLocation"
        ]["artifactLocation"]["uri"]
        assert ":" not in uri
        assert doc["runs"][0]["results"][0]["locations"][0][
            "physicalLocation"
        ]["region"]["startLine"] == 1

    def test_origin_lands_in_result_message(self):
        f = Finding(
            "RPR405", "error", "gen.py", 3, "float32 literal",
            origin="kernel=heat-2d flavor=strided digest=abc123",
        )
        doc = json.loads(render_sarif(LintResult(findings=[f])))
        message = doc["runs"][0]["results"][0]["message"]["text"]
        assert "kernel=heat-2d" in message

    def test_cli_sarif_output_parses(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text('"""Clean module."""\n\nX = 1\n')
        rc = main(
            ["lint", str(clean), "--no-plans", "--format", "sarif"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"][0]["results"] == []

    def test_cli_sarif_stays_parseable_on_failure(self, tmp_path, capsys):
        fixture = tmp_path / "bad.py"
        fixture.write_text(GOLDEN_SNIPPET)
        rc = main(
            ["lint", str(fixture), "--no-plans", "--format", "sarif"]
        )
        captured = capsys.readouterr()
        assert rc == 2
        doc = json.loads(captured.out)
        assert doc["runs"][0]["results"]


class TestPruneBaseline:
    def _stale_baseline(self, tmp_path):
        """A baseline with one live and one stale (fixed-since) entry."""
        fixture = tmp_path / "bad.py"
        fixture.write_text(GOLDEN_SNIPPET)
        baseline = tmp_path / "base.json"
        first = run_lint(paths=[str(fixture)], include_plans=False)
        stale = Finding("RPR002", "error", "gone.py", 9, "fixed long ago")
        write_baseline(
            str(baseline),
            LintResult(findings=sort_findings(first.findings + [stale])),
        )
        return fixture, baseline

    def test_stale_entries_counted_and_warned(self, tmp_path):
        fixture, baseline = self._stale_baseline(tmp_path)
        result = run_lint(
            paths=[str(fixture)],
            include_plans=False,
            baseline=load_baseline(str(baseline)),
        )
        assert result.ok
        assert result.baseline_stale == 1
        lines = render_text(result)
        assert any("stale baseline" in line for line in lines)
        assert "baseline_stale" in render_json(result)

    def test_prune_drops_only_stale_entries(self, tmp_path):
        fixture, baseline = self._stale_baseline(tmp_path)
        unsubtracted = run_lint(paths=[str(fixture)], include_plans=False)
        kept, pruned = prune_baseline(str(baseline), unsubtracted)
        assert pruned == 1
        assert kept == len(unsubtracted.findings)
        entries = load_baseline(str(baseline))
        assert all(e.file != "gone.py" for e in entries)
        # The pruned baseline still suppresses every live finding.
        after = run_lint(
            paths=[str(fixture)],
            include_plans=False,
            baseline=entries,
        )
        assert after.ok and after.baseline_stale == 0

    def test_prune_missing_baseline_is_noop(self, tmp_path):
        kept, pruned = prune_baseline(
            str(tmp_path / "nope.json"), LintResult()
        )
        assert (kept, pruned) == (0, 0)

    def test_cli_prune_baseline(self, tmp_path):
        fixture, baseline = self._stale_baseline(tmp_path)
        lines = run(
            [
                "lint", str(fixture), "--no-plans",
                "--baseline", str(baseline), "--prune-baseline",
            ]
        )
        assert "pruned 1 stale baseline entry" in lines[0]
        lines = run(
            ["lint", str(fixture), "--no-plans", "--baseline", str(baseline)]
        )
        assert lines[-1] == "OK"
        assert not any("stale" in line for line in lines)


class TestVerifyExitCodes:
    def test_verify_failure_exits_nonzero(self, monkeypatch, capsys):
        # Force a failing sweep cheaply by making the harness see a failure.
        import repro.cli as cli_mod

        class FakeReport:
            ok = False
            failures = [object()]

            def summary_lines(self):
                return ["FAKE: 1 failing case"]

            def write(self, path):
                return path

        monkeypatch.setattr(
            "repro.verify.run_verification", lambda **kw: FakeReport()
        )
        assert cli_mod.main(["verify", "--quick", "--cases", "1"]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err


def test_staticcheck_spans_surface_in_telemetry_report(tmp_path):
    from repro import obs, telemetry

    level = obs.get_level()
    obs.set_level("trace")
    try:
        run_lint(include_plans=True)
        trace = telemetry.get_tracer().export(str(tmp_path / "t.jsonl"))
    finally:
        obs.set_level(level)
        telemetry.get_tracer().clear()
    report = telemetry.render_phase_report(trace)
    assert "Static checks:" in report
    assert "plans checked" in report


def test_staticcheck_counters_registered(obs_on):
    from repro.staticcheck import check_plan
    from repro.runtime.plan import build_plan
    from repro.stencils.catalog import get_kernel

    collector = obs_on.get_collector()
    before = collector.value("staticcheck.plans_checked")
    check_plan(build_plan(get_kernel("heat-1d"), (67,)))
    assert collector.value("staticcheck.plans_checked") == before + 1
