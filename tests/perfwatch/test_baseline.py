"""Baseline schema, persistence, and the compare gate on synthetic data."""

from __future__ import annotations

import json

import pytest

from repro.errors import ReproError
from repro.perfwatch.baseline import (
    CURRENT_PR,
    DEFAULT_THRESHOLD,
    SCHEMA_VERSION,
    compare,
    default_baseline_path,
    environment_fingerprint,
    load_baseline,
    make_report,
    write_baseline,
)


def entry(key, point, lo, hi):
    return {
        "key": key,
        "timing": {
            "samples": [point],
            "point": point,
            "ci_low": lo,
            "ci_high": hi,
            "warmup": 0,
            "batch_size": 1,
        },
        "counters": {},
    }


def report(*entries):
    return make_report({"suite": "quick", "entries": list(entries)})


class TestEnvelope:
    def test_make_report_stamps_schema_and_environment(self):
        doc = report()
        assert doc["schema"] == SCHEMA_VERSION
        assert doc["pr"] == CURRENT_PR
        env = doc["environment"]
        for field in ("machine", "python", "numpy", "repro_version", "cpu_count"):
            assert field in env

    def test_fingerprint_captures_repro_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "compiled")
        assert environment_fingerprint()["repro_env"]["REPRO_BACKEND"] == "compiled"

    def test_default_path_names_current_pr(self, tmp_path):
        assert default_baseline_path(tmp_path).name == f"BENCH_PR{CURRENT_PR}.json"


class TestPersistence:
    def test_write_load_round_trip(self, tmp_path):
        doc = report(entry("w@serial", 1.0, 0.9, 1.1))
        path = write_baseline(tmp_path / "BENCH_PR99.json", doc)
        loaded = load_baseline(path)
        assert loaded["entries"][0]["key"] == "w@serial"

    def test_write_refuses_foreign_schema(self, tmp_path):
        doc = report()
        doc["schema"] = SCHEMA_VERSION + 1
        with pytest.raises(ReproError, match="refusing to write"):
            write_baseline(tmp_path / "b.json", doc)

    def test_schema_bump_fails_loudly_with_migration_hint(self, tmp_path):
        doc = report(entry("w@serial", 1.0, 0.9, 1.1))
        doc["schema"] = SCHEMA_VERSION + 1
        path = tmp_path / "b.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ReproError, match="regenerate the baseline"):
            load_baseline(path)

    def test_missing_schema_field_rejected(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"entries": []}))
        with pytest.raises(ReproError, match="no schema field"):
            load_baseline(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ReproError, match="cannot read"):
            load_baseline(tmp_path / "nope.json")

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text("{not json")
        with pytest.raises(ReproError, match="not valid JSON"):
            load_baseline(path)

    def test_missing_entries_rejected(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"schema": SCHEMA_VERSION}))
        with pytest.raises(ReproError, match="entries"):
            load_baseline(path)


class TestCompare:
    def test_injected_2x_slowdown_is_flagged(self):
        base = report(entry("w@serial", 1.0, 0.95, 1.05))
        cur = report(entry("w@serial", 2.0, 1.9, 2.1))
        result = compare(base, cur)
        assert not result.ok
        assert [v.key for v in result.regressions] == ["w@serial"]
        assert result.regressions[0].slowdown == pytest.approx(1.0)

    def test_jitter_within_overlap_is_not_flagged(self):
        base = report(entry("w@serial", 1.0, 0.95, 1.05))
        cur = report(entry("w@serial", 1.03, 0.99, 1.07))
        result = compare(base, cur)
        assert result.ok
        assert result.verdicts[0].status == "ok"

    def test_missing_workload_fails_gate(self):
        base = report(entry("w@serial", 1.0, 0.9, 1.1))
        result = compare(base, report())
        assert not result.ok
        assert result.missing[0].key == "w@serial"

    def test_new_workload_never_gates(self):
        cur = report(entry("w@serial", 1.0, 0.9, 1.1))
        result = compare(report(), cur)
        assert result.ok
        assert result.verdicts[0].status == "new"

    def test_improvement_reported(self):
        base = report(entry("w@serial", 2.0, 1.9, 2.1))
        cur = report(entry("w@serial", 1.0, 0.95, 1.05))
        result = compare(base, cur)
        assert result.ok
        assert result.verdicts[0].status == "improved"

    def test_negative_threshold_rejected(self):
        with pytest.raises(ReproError, match="threshold"):
            compare(report(), report(), threshold=-0.1)

    def test_to_dict_is_json_able(self):
        base = report(entry("w@serial", 1.0, 0.95, 1.05))
        cur = report(entry("w@serial", 2.0, 1.9, 2.1))
        doc = compare(base, cur, threshold=DEFAULT_THRESHOLD).to_dict()
        assert json.loads(json.dumps(doc))["ok"] is False
        assert doc["regressions"] == 1

    def test_verdict_describe_mentions_both_points(self):
        base = report(entry("w@serial", 1.0, 0.95, 1.05))
        cur = report(entry("w@serial", 2.0, 1.9, 2.1))
        text = compare(base, cur).regressions[0].describe()
        assert "regression" in text and "+100.0%" in text


class TestCommittedBaseline:
    """The committed ``BENCH_PR8.json`` must keep the claim the PR makes:
    CI-disjoint ``compiled``-over-``serial`` wins on the full suite.  CI
    asserts the same thing (codegen never re-times in CI — a shared
    runner's noise would make the claim unfalsifiable there)."""

    @pytest.fixture()
    def committed(self):
        import pathlib

        path = pathlib.Path(__file__).resolve().parents[2] / "BENCH_PR8.json"
        if not path.exists():
            pytest.skip("committed baseline not present in this checkout")
        return load_baseline(path)

    def test_full_suite_with_all_backend_cells(self, committed):
        from repro.perfwatch.suite import default_suite

        assert committed["suite"] == "full"
        keys = {e["key"] for e in committed["entries"]}
        # The file predates the removal of the ``tiled`` backend; its
        # ``@tiled`` cells are history, every other cell must match.
        current = {k for k in keys if not k.endswith("@tiled")}
        assert current == {w.key for w in default_suite(quick=False)}

    def test_compiled_beats_serial_with_disjoint_cis(self, committed):
        timings = {e["key"]: e["timing"] for e in committed["entries"]}
        wins = [
            key
            for key, t in timings.items()
            if key.endswith("@compiled")
            and t["ci_high"] < timings[key.replace("@compiled", "@serial")]["ci_low"]
        ]
        assert len(wins) >= 3, sorted(wins)

    def test_no_disjoint_compiled_losses(self, committed):
        timings = {e["key"]: e["timing"] for e in committed["entries"]}
        losses = [
            key
            for key, t in timings.items()
            if key.endswith("@compiled")
            and t["ci_low"] > timings[key.replace("@compiled", "@serial")]["ci_high"]
        ]
        assert losses == [], sorted(losses)
