"""The artifact-compatible CLI (§A.4/A.5)."""

import pytest

from repro.cli import main, run
from repro.errors import ReproError
from repro.stencils.catalog import ARTIFACT_ALIASES, get_kernel


class TestAliases:
    @pytest.mark.parametrize("alias", sorted(ARTIFACT_ALIASES))
    def test_artifact_names_resolve(self, alias):
        assert get_kernel(alias).name == ARTIFACT_ALIASES[alias]

    def test_alias_case_insensitive(self):
        assert get_kernel("Box2D1R").name == "box-2d9p"


class TestRun:
    def test_output_format_matches_artifact(self):
        lines = run(["2d", "box2d1r", "10240", "10240", "10240"])
        assert lines[0] == "INFO: shape = box2d1r, m = 10240, n = 10240, times = 10240"
        assert lines[1] == "ConvStencil(2D):"
        assert lines[2].startswith("Time = ") and lines[2].endswith("[ms]")
        assert lines[3].startswith("GStencil/s = ")

    def test_paper_artifact_anchor(self):
        """§A.5 prints 188.27 GStencil/s for this exact invocation."""
        lines = run(["2d", "box2d1r", "10240", "10240", "10240"])
        gst = float(lines[3].split("=")[1])
        assert gst == pytest.approx(188.27, rel=0.05)

    def test_1d_and_3d(self):
        assert "ConvStencil(1D):" in run(["1d", "1d1r", "1000000", "100"])
        assert "ConvStencil(3D):" in run(["3d", "box3d1r", "512", "512", "512", "64"])

    def test_verify_passes(self):
        lines = run(["1d", "1d2r", "100000", "50", "--verify"])
        assert any("VERIFY" in ln and "OK" in ln for ln in lines)

    def test_custom_weights(self):
        lines = run(
            ["2d", "star2d1r", "256", "256", "10",
             "--custom", "0.1,0.1,0.6,0.1,0.1", "--verify"]
        )
        assert any("OK" in ln for ln in lines)

    def test_custom_weight_count_checked(self):
        with pytest.raises(ReproError, match="needs 5 weights"):
            run(["2d", "star2d1r", "64", "64", "1", "--custom", "1,2,3"])

    def test_device_override(self):
        a100 = float(run(["2d", "box2d1r", "4096", "4096", "64"])[3].split("=")[1])
        h100 = float(
            run(["2d", "box2d1r", "4096", "4096", "64", "--device", "H100"])[3].split("=")[1]
        )
        assert h100 > a100

    def test_fusion_override(self):
        fused = float(run(["2d", "box2d1r", "4096", "4096", "60"])[3].split("=")[1])
        unfused = float(
            run(["2d", "box2d1r", "4096", "4096", "60", "--fusion", "1"])[3].split("=")[1]
        )
        assert fused > unfused

    def test_dimension_mismatch(self):
        with pytest.raises(ReproError, match="2-D"):
            run(["1d", "box2d1r", "1000", "10"])

    def test_wrong_size_count(self):
        with pytest.raises(ReproError, match="expects"):
            run(["2d", "box2d1r", "1024", "10"])

    def test_nonpositive_sizes(self):
        with pytest.raises(ReproError, match="positive"):
            run(["2d", "box2d1r", "1024", "0", "10"])

    def test_breakdown_mode(self):
        lines = run(["2d", "box2d1r", "256", "256", "8", "--breakdown"])
        assert any("Breakdown" in ln for ln in lines)
        assert sum(1 for ln in lines if "us" in ln) == 5


class TestMain:
    def test_exit_zero_on_success(self, capsys):
        assert main(["2d", "box2d1r", "512", "512", "8"]) == 0
        assert "GStencil/s" in capsys.readouterr().out

    def test_exit_two_on_error(self, capsys):
        assert main(["2d", "nope", "512", "512", "8"]) == 2
        assert "error:" in capsys.readouterr().err


class TestExtendedFlags:
    def test_cuda_flag_writes_source(self, tmp_path):
        out = tmp_path / "kernel.cu"
        lines = run(["2d", "box2d1r", "512", "512", "8", "--cuda", str(out)])
        assert out.exists()
        assert "wmma::mma_sync" in out.read_text()
        assert any("CUDA: wrote" in ln for ln in lines)

    def test_cuda_rejects_3d(self, tmp_path):
        with pytest.raises(ReproError, match="2-D"):
            run(["3d", "box3d1r", "64", "64", "64", "4", "--cuda", str(tmp_path / "x.cu")])

    def test_report_flag(self, tmp_path):
        out = tmp_path / "REPORT.md"
        lines = run(["2d", "box2d1r", "256", "256", "4", "--report", str(out)])
        assert out.exists()
        assert "Table 3" in out.read_text()
        assert any("REPORT: wrote" in ln for ln in lines)


class TestVerifySubcommand:
    def test_quick_verify_passes(self):
        lines = run(["verify", "--quick", "--seed", "0", "--cases", "4"])
        assert any("VERIFY:" in ln for ln in lines)
        assert any("result: OK" in ln for ln in lines)
        assert any("mutation smoke-check" in ln and "caught" in ln for ln in lines)

    def test_backend_restriction_and_report(self, tmp_path):
        import json

        out = tmp_path / "verify.json"
        lines = run([
            "verify", "--quick", "--seed", "1", "--cases", "3",
            "--backend", "serial", "--backend", "reference",
            "--report", str(out),
        ])
        assert any("REPORT: wrote" in ln for ln in lines)
        payload = json.loads(out.read_text())
        assert payload["ok"] is True
        assert payload["backends"] == ["reference", "serial"]
        assert payload["cases"] == 3

    def test_no_mutation_flag(self):
        lines = run([
            "verify", "--quick", "--seed", "0", "--cases", "2", "--no-mutation",
        ])
        assert not any("mutation" in ln for ln in lines)

    def test_bad_cases_value(self):
        with pytest.raises(ReproError, match="positive"):
            run(["verify", "--cases", "-3"])

    def test_main_exit_zero(self, capsys):
        assert main(["verify", "--quick", "--seed", "0", "--cases", "2"]) == 0
        assert "VERIFY:" in capsys.readouterr().out


class TestCodegenSubcommand:
    def test_python_target_writes_lintable_source(self, tmp_path):
        out = tmp_path / "compiled_engine_smoke.py"
        lines = run([
            "codegen", "heat-2d", "--shape", "16x16", "-o", str(out),
        ])
        assert any("codegen: python compiled_engine_2d_" in ln for ln in lines)
        assert out.exists()
        from repro.staticcheck import lint_sources

        result = lint_sources({out.name: out.read_text()})
        assert result.ok and result.findings == []

    def test_python_target_requires_shape(self):
        with pytest.raises(ReproError, match="--shape"):
            run(["codegen", "heat-2d"])

    def test_cuda_target(self, tmp_path):
        out = tmp_path / "heat2d.cu"
        lines = run([
            "codegen", "heat-2d", "--target", "cuda", "-o", str(out),
        ])
        assert any("codegen: cuda heat-2d" in ln for ln in lines)
        assert "wmma" in out.read_text()

    def test_stdout_mode_emits_source(self):
        lines = run(["codegen", "heat-1d", "--shape", "64"])
        assert any(ln.startswith("def compiled_pass") for ln in lines)

    def test_help_lists_no_batched_flag(self, capsys):
        # one 2-D kernel body: the batch-axis one, with no flag to pick it
        with pytest.raises(SystemExit):
            run(["codegen", "--help"])
        out = capsys.readouterr().out
        assert "--shape" in out and "--batched" not in out
        with pytest.raises(SystemExit):
            run(["codegen", "heat-2d", "--shape", "16x16", "--batched"])

    def test_verify_accepts_compiled_backend(self):
        lines = run([
            "verify", "--quick", "--seed", "0", "--cases", "3",
            "--backend", "compiled", "--backend", "serial",
        ])
        assert any("result: OK" in ln for ln in lines)
        assert any("compiled" in ln for ln in lines)


class TestFlightSubcommand:
    """Span-file replay through ``repro report``."""

    def test_loadgen_flight_dump_then_replay(self, tmp_path):
        from repro import obs

        dump = tmp_path / "ring.jsonl"
        level = obs.get_level()
        lines = run([
            "loadgen", "--requests", "8", "--waves", "1",
            "--no-identity", "--flight-dump", str(dump),
        ])
        assert obs.get_level() == level  # raised to trace for the replay only
        assert any("8/8 complete traces" in ln for ln in lines)
        assert dump.exists()

        listing = run(["report", str(dump), "--requests"])
        assert "8 request(s)" in listing[0]
        rid = listing[1].split()[0]
        waterfall = run(["report", str(dump), "--request-id", rid])
        assert f"request {rid}" in waterfall[0]
        assert any("execute" in ln for ln in waterfall)
        # The same dump also renders as a phase table.
        table = "\n".join(run(["report", str(dump)]))
        assert "serve.execute" in table

    def test_absent_request_id_names_known_ids(self, tmp_path):
        dump = tmp_path / "ring.jsonl"
        run([
            "loadgen", "--requests", "4", "--waves", "1",
            "--no-identity", "--flight-dump", str(dump),
        ])
        with pytest.raises(ReproError, match="known request ids"):
            run(["report", str(dump), "--request-id", "nope"])

    def test_report_without_a_source_errors(self):
        with pytest.raises(ReproError, match="needs one source"):
            run(["report"])

    def test_trace_id_replays_the_same_waterfall(self, tmp_path):
        """The trace id an exemplar or the live view names replays directly."""
        dump = tmp_path / "ring.jsonl"
        run([
            "loadgen", "--requests", "4", "--waves", "1",
            "--no-identity", "--flight-dump", str(dump),
        ])
        rid = run(["report", str(dump), "--requests"])[1].split()[0]
        by_request = run(["report", str(dump), "--request-id", rid])
        trace_id = by_request[0].split("trace=")[1].split()[0]
        assert trace_id.startswith("t")
        assert run(["report", str(dump), "--request-id", trace_id]) == by_request

    def test_options_of_another_source_are_rejected(self, tmp_path):
        with pytest.raises(ReproError, match="--format does not apply to FILE"):
            run(["report", str(tmp_path / "t.jsonl"), "--format", "json"])
        with pytest.raises(ReproError, match="got FILE and --live"):
            run(["report", str(tmp_path / "t.jsonl"), "--live"])


class TestSubcommands:
    def test_retired_report_verbs_no_longer_dispatch(self, capsys):
        from repro import cli

        assert sorted(cli._SUBCOMMANDS) == [
            "codegen", "lint", "loadgen", "report", "serve", "verify",
        ]
        # The four verbs ``report`` replaced, and ``bench`` (whose harness
        # perfbench replaced), fall through to the model driver, whose
        # first argument must be a dimensionality.
        retired = [
            "top", "flight", "telemetry" + "-report", "obs" + "-snapshot", "bench",
        ]
        for verb in retired:
            with pytest.raises(SystemExit):
                run([verb])
            assert "invalid choice" in capsys.readouterr().err
