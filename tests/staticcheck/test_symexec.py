"""Layer 4 — the generated-kernel prover (RPR400–401, RPR403–406).

Two halves mirror the prover's contract: the *acceptance* half proves
every kernel the catalog can generate (one per pass; the 2-D one takes a
leading batch axis), and the *mutation corpus* seeds one targeted corruption per
safety property and asserts the matching rule — and only a real rule,
never a silent pass — rejects it.
"""

from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest

from repro.codegen.compiled import generate_pass
from repro.codegen.specs import gemm_spec
from repro.runtime.plan import build_plan
from repro.staticcheck import (
    check_gemm_spec,
    check_generated,
    check_generated_catalog,
)
from repro.stencils.catalog import get_kernel, list_kernels


def _pass(kernel_name: str = "heat-2d", shape=(16, 21), fusion: int = 1):
    return build_plan(get_kernel(kernel_name), shape, fusion=fusion).base_pass


@pytest.fixture(scope="module")
def pp2d():
    return _pass()


@pytest.fixture(scope="module")
def gen2d(pp2d):
    return generate_pass(pp2d)


def _rules(findings):
    return sorted({f.rule_id for f in findings})


class TestCatalogAcceptance:
    def test_every_catalog_kernel_proves_clean(self):
        findings, checked = check_generated_catalog()
        assert findings == [], [f.format() for f in findings[:5]]
        # Every catalog kernel at depths 1 and 2, base and fused passes:
        # 6 1-D, 18 2-D and 6 3-D passes, one kernel each.
        assert checked == 30

    def test_2d_batch_axis_body(self, pp2d, gen2d):
        assert check_generated(gen2d, pp2d) == []

    def test_1d_and_3d_spot_checks(self):
        for name, shape in (("heat-1d", (67,)), ("heat-3d", (8, 9, 11))):
            pp = _pass(name, shape)
            gen = generate_pass(pp)
            assert check_generated(gen, pp) == []


class TestMutationCorpus:
    """One seeded corruption per safety property, each caught by its rule."""

    def test_stride_literal_corruption_is_rpr401(self, pp2d, gen2d):
        # the row stride, the literal after the batch stride
        m = re.search(r"as_strided\(ext, \([^)]*\), \(\d+, (\d+)", gen2d.source)
        src = gen2d.source
        bumped = src[: m.start(1)] + str(int(m.group(1)) + 8) + src[m.end(1) :]
        mutant = dataclasses.replace(gen2d, source=bumped)
        assert _rules(check_generated(mutant, pp2d)) == ["RPR401"]

    def test_chunk_bound_corruption_is_rpr403(self, pp2d, gen2d):
        m = re.search(r"out\[:, (\d+):(\d+)\] = ", gen2d.source)
        shrunk = "out[:, %s:%d] = " % (m.group(1), int(m.group(2)) - 1)
        mutant = dataclasses.replace(
            gen2d, source=gen2d.source.replace(m.group(0), shrunk, 1)
        )
        assert _rules(check_generated(mutant, pp2d)) == ["RPR403"]

    def test_gemm_weight_corruption_is_rpr404(self, pp2d, gen2d):
        constants = dict(gen2d.constants)
        wa = np.array(constants["_WA_FLAT"]).copy()
        wa[0, 0] += 1.0
        constants["_WA_FLAT"] = wa
        mutant = dataclasses.replace(gen2d, constants=constants)
        assert _rules(check_generated(mutant, pp2d)) == ["RPR404"]

    def test_dtype_corruption_is_rpr405(self, pp2d, gen2d):
        mutant = dataclasses.replace(
            gen2d, source=gen2d.source.replace("np.float64", "np.float32", 1)
        )
        assert _rules(check_generated(mutant, pp2d)) == ["RPR405"]

    def test_batched_stride_corruption_is_rpr401(self, pp2d, gen2d):
        m = re.search(r"as_strided\(ext, \([^)]*\), \((\d+)", gen2d.source)
        bumped = m.group(0).replace(m.group(1), str(int(m.group(1)) + 8))
        mutant = dataclasses.replace(
            gen2d, source=gen2d.source.replace(m.group(0), bumped, 1)
        )
        assert _rules(check_generated(mutant, pp2d)) == ["RPR401"]


class TestFailClosed:
    def test_syntax_error_is_rpr400(self, pp2d, gen2d):
        mutant = dataclasses.replace(gen2d, source=gen2d.source + "\ndef (:\n")
        assert _rules(check_generated(mutant, pp2d)) == ["RPR400"]

    def test_uninterpretable_call_is_rpr400(self, pp2d, gen2d):
        hacked = gen2d.source.replace(
            "return out[:, :, :21]", "out = mystery(out)\n    return out[:, :, :21]"
        )
        assert hacked != gen2d.source
        mutant = dataclasses.replace(gen2d, source=hacked)
        assert "RPR400" in _rules(check_generated(mutant, pp2d))

    def test_unordered_iteration_is_rpr406(self, pp2d, gen2d):
        hacked = gen2d.source.replace(
            "return out[:, :, :21]",
            "for _k in {1: 2}:\n        pass\n    return out[:, :, :21]",
        )
        assert hacked != gen2d.source
        mutant = dataclasses.replace(gen2d, source=hacked)
        assert "RPR406" in _rules(check_generated(mutant, pp2d))


class TestFindingContext:
    def test_findings_carry_origin_and_snippet(self, pp2d, gen2d):
        mutant = dataclasses.replace(
            gen2d, source=gen2d.source.replace("np.float64", "np.float32", 1)
        )
        findings = check_generated(mutant, pp2d)
        assert findings
        f = findings[0]
        assert "kernel=heat-2d" in f.origin
        assert "digest=" in f.origin
        if f.line > 0:
            assert ">" in f.snippet and str(f.line) in f.snippet
        assert f"({f.origin})" in f.format()


class TestGemmSpec:
    def test_catalog_specs_prove_clean(self):
        for name in list_kernels():
            kernel = get_kernel(name)
            if kernel.edge + 1 > 8:
                continue
            assert check_gemm_spec(gemm_spec(kernel), label=name) == []

    def test_cuda_emitter_specs_prove_clean(self):
        from repro.codegen.cuda import generate_cuda_2d
        from repro.errors import TessellationError

        checked = 0
        for name in list_kernels():
            kernel = get_kernel(name)
            if kernel.ndim != 2:
                continue
            try:
                _, spec = generate_cuda_2d(kernel, fusion=1)
            except TessellationError:
                continue
            assert check_gemm_spec(spec.gemm, label=f"cuda:{name}") == []
            checked += 1
        assert checked >= 3

    def test_dropped_chunk_is_rpr403(self):
        spec = gemm_spec(get_kernel("heat-2d"))
        mutant = dataclasses.replace(
            spec,
            chunk_starts=spec.chunk_starts[:-1],
            chunk_zero_prefixes=spec.chunk_zero_prefixes[:-1],
        )
        findings = check_gemm_spec(mutant, label="mutant")
        assert "RPR403" in _rules(findings)

    def test_missing_zero_prefix_double_accumulates_rpr403(self):
        spec = gemm_spec(get_kernel("heat-2d"))
        assert spec.chunk_zero_prefixes[-1] > 0
        mutant = dataclasses.replace(
            spec,
            chunk_zero_prefixes=spec.chunk_zero_prefixes[:-1] + (0,),
        )
        findings = check_gemm_spec(mutant, label="mutant")
        assert "RPR403" in _rules(findings)

    def test_wrong_group_width_is_rpr404(self):
        spec = gemm_spec(get_kernel("heat-2d"))
        mutant = dataclasses.replace(spec, group=spec.group + 1)
        assert "RPR404" in _rules(check_gemm_spec(mutant, label="mutant"))

    def test_findings_anchor_under_gemm_pseudo_path(self):
        spec = gemm_spec(get_kernel("heat-2d"))
        mutant = dataclasses.replace(spec, group=spec.group + 1)
        f = check_gemm_spec(mutant, label="mutant")[0]
        assert f.file == "gemm:mutant"


class TestCompiledCacheGate:
    """REPRO_STATICCHECK=1 gates the compiled-kernel cache like plans."""

    def _fresh(self):
        from repro.codegen.compiled import clear_compiled_cache

        clear_compiled_cache()

    def test_rejected_kernel_raises_and_is_not_cached(self, monkeypatch, pp2d):
        import repro.codegen.compiled as compiled
        from repro.errors import StaticCheckError

        self._fresh()
        monkeypatch.setenv("REPRO_STATICCHECK", "1")
        real = compiled.generate_pass

        def corrupting(pp):
            gen = real(pp)
            return dataclasses.replace(
                gen, source=gen.source.replace("np.float64", "np.float32", 1)
            )

        monkeypatch.setattr(compiled, "generate_pass", corrupting)
        with pytest.raises(StaticCheckError, match="RPR405"):
            compiled.compiled_entry(pp2d)
        assert compiled._cache_key(pp2d) not in compiled._compiled_cache

    def test_clean_kernel_passes_the_gate_and_caches(self, monkeypatch, pp2d):
        import repro.codegen.compiled as compiled

        self._fresh()
        monkeypatch.setenv("REPRO_STATICCHECK", "1")
        entry = compiled.compiled_entry(pp2d)
        assert compiled._cache_key(pp2d) in compiled._compiled_cache
        grid = np.random.default_rng(7).random((18, 23))
        out = entry.fn(grid[None])
        assert out.shape == (1, 16, 21)

    def test_gate_is_off_by_default(self, monkeypatch, pp2d):
        import repro.codegen.compiled as compiled

        self._fresh()
        monkeypatch.delenv("REPRO_STATICCHECK", raising=False)
        real = compiled.generate_pass

        def corrupting(pp):
            gen = real(pp)
            return dataclasses.replace(
                gen, source=gen.source.replace("np.float64", "np.float32", 1)
            )

        monkeypatch.setattr(compiled, "generate_pass", corrupting)
        # Gate off: the corrupted kernel compiles (and would run wrong) —
        # exactly why CI sets REPRO_STATICCHECK=1.
        entry = compiled.compiled_entry(pp2d)
        assert entry.fn is not None
        self._fresh()
