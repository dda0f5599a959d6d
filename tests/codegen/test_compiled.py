"""The ``compiled`` backend: bit identity, caching, generated-source hygiene."""

import json
import pathlib

import numpy as np
import pytest

from repro import get_kernel
from repro.codegen import compiled_entry, compiled_source, get_compiled_pass
from repro.codegen.compiled import clear_compiled_cache
from repro.core.api import PinnedStencil
from repro.errors import TessellationError
from repro.runtime import get_backend, list_backends, plan_for
from repro.staticcheck import GEMM_PINNED_MARK, lint_sources
from repro.stencils.applications import application_kernels, get_application_kernel
from repro.utils.rng import default_rng


@pytest.fixture
def rng():
    return default_rng(4242)


CASES = [
    ("heat-1d", (257,), "auto"),
    ("heat-1d", (1,), "auto"),
    ("1d5p", (64,), 1),
    ("heat-2d", (40, 40), "auto"),
    ("heat-2d", (1, 1), "auto"),
    ("heat-2d", (3, 200), 1),
    ("box-2d9p", (33, 47), "auto"),
    ("box-2d49p", (24, 24), 1),
    ("star-2d13p", (30, 30), "auto"),
    ("heat-3d", (12, 13, 14), 1),
    ("box-3d27p", (8, 8, 8), 1),
]

#: The application library (zero weights, one-sided and higher-order
#: operators), which the catalog-drawn ``repro verify`` never reaches.
APPLICATION_SHAPES = {1: (97,), 2: (17, 19), 3: (9, 10, 11)}
APPLICATION_CASES = [
    (name, APPLICATION_SHAPES[get_application_kernel(name).ndim], fusion)
    for name in application_kernels()
    for fusion in (1, "auto")
]


def _kernel(name):
    if name in application_kernels():
        return get_application_kernel(name)
    return get_kernel(name)


class TestBitIdentity:
    @pytest.mark.parametrize("name,shape,fusion", CASES + APPLICATION_CASES)
    def test_pass_matches_serial_bitwise(self, name, shape, fusion, rng):
        plan = plan_for(_kernel(name), shape, fusion=fusion)
        serial, compiled = get_backend("serial"), get_backend("compiled")
        for pp in (plan.fused_pass, plan.base_pass):
            padded = rng.standard_normal(pp.padded_shape)
            want = serial.apply_pass(pp, padded)
            got = compiled.apply_pass(pp, padded)
            np.testing.assert_array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("boundary", ["constant", "periodic", "reflect"])
    def test_run_matches_serial_across_boundaries(self, boundary, rng):
        kernel = get_kernel("heat-2d")
        x = rng.standard_normal((20, 24))
        want = PinnedStencil(kernel, "gemm", fusion="auto", backend="serial").run(
            x, steps=5, boundary=boundary
        )
        got = PinnedStencil(kernel, "gemm", fusion="auto", backend="compiled").run(
            x, steps=5, boundary=boundary
        )
        np.testing.assert_array_equal(got, want)

    def test_batched_matches_serial_bitwise(self, rng):
        plan = plan_for(get_kernel("heat-2d"), (16, 18), fusion="auto")
        pp = plan.fused_pass
        stack = rng.standard_normal((5,) + pp.padded_shape)
        want = get_backend("serial").apply_pass_batch(pp, stack)
        got = get_backend("compiled").apply_pass_batch(pp, stack)
        np.testing.assert_array_equal(got, want)

    def test_empty_batch_short_circuits(self, rng):
        plan = plan_for(get_kernel("heat-2d"), (8, 8), fusion=1)
        pp = plan.fused_pass
        empty = np.empty((0,) + pp.padded_shape)
        got = get_backend("compiled").apply_pass_batch(pp, empty)
        want = get_backend("serial").apply_pass_batch(pp, empty)
        assert got.shape == want.shape == (0, 8, 8)

    def test_run_batch_matches_serial(self, rng):
        kernel = get_kernel("box-2d9p")
        batch = rng.standard_normal((4, 12, 12))
        want = PinnedStencil(kernel, "gemm", fusion="auto", backend="serial").run_batch(
            batch, steps=3
        )
        got = PinnedStencil(kernel, "gemm", fusion="auto", backend="compiled").run_batch(
            batch, steps=3
        )
        np.testing.assert_array_equal(got, want)

    def test_deep_fusion_beyond_fragment_width_compiles(self, rng):
        # the compiled Python target has no m8n8k4 width limit: a fused
        # 1-D kernel with edge 13 (g = 14 > 8) must still work
        plan = plan_for(get_kernel("1d5p"), (100,), fusion=3)
        pp = plan.fused_pass
        assert pp.kernel.edge > 7
        padded = rng.standard_normal(pp.padded_shape)
        np.testing.assert_array_equal(
            get_backend("compiled").apply_pass(pp, padded),
            get_backend("serial").apply_pass(pp, padded),
        )


class TestCompileCache:
    def test_same_plan_reuses_compiled_kernel(self):
        plan = plan_for(get_kernel("heat-2d"), (10, 10), fusion=1)
        a = get_compiled_pass(plan.fused_pass)
        b = get_compiled_pass(plan.fused_pass)
        assert a is b

    def test_single_grid_and_stack_share_one_kernel(self, rng):
        # A 2-D grid runs the batch-axis kernel as a stack of one, so both
        # entry points build the same, single cache entry.
        pp = plan_for(get_kernel("heat-2d"), (10, 10), fusion=1).fused_pass
        compiled = get_backend("compiled")
        clear_compiled_cache()
        compiled.apply_pass(pp, rng.standard_normal(pp.padded_shape))
        compiled.apply_pass_batch(pp, rng.standard_normal((2,) + pp.padded_shape))
        assert clear_compiled_cache() == 1

    def test_clear_drops_entries(self):
        plan = plan_for(get_kernel("heat-2d"), (11, 11), fusion=1)
        before = get_compiled_pass(plan.fused_pass)
        assert clear_compiled_cache() >= 1
        after = get_compiled_pass(plan.fused_pass)
        assert before is not after

    def test_shape_pinned_kernel_rejects_other_shapes(self, rng):
        plan = plan_for(get_kernel("heat-2d"), (10, 10), fusion=1)
        fn = get_compiled_pass(plan.fused_pass)
        with pytest.raises(TessellationError):
            fn(rng.standard_normal((1, 9, 9)))


class TestGeneratedSource:
    @pytest.mark.parametrize(
        "name,shape",
        [("heat-1d", (64,)), ("heat-2d", (24, 24)), ("heat-3d", (10, 10, 10))],
    )
    def test_lints_clean_and_carries_pinned_marker(self, name, shape):
        plan = plan_for(get_kernel(name), shape, fusion="auto")
        entry = compiled_entry(plan.fused_pass)
        assert entry.name.startswith("compiled_engine_")
        assert GEMM_PINNED_MARK in entry.source
        result = lint_sources({f"{entry.name}.py": entry.source})
        assert result.findings == [], [f.message for f in result.findings]

    def test_source_is_shape_pinned(self):
        plan = plan_for(get_kernel("heat-2d"), (24, 24), fusion=1)
        source = compiled_source(plan.fused_pass)
        pp = plan.fused_pass
        # the pinned padded shape and valid extents appear as literals
        assert str(pp.padded_shape[0]) in source
        assert "compiled_pass" in source
        assert "def " in source and "import numpy as np" in source

    def test_gemm_geometry_recorded(self):
        plan = plan_for(get_kernel("box-2d9p"), (24, 24), fusion="auto")
        entry = compiled_entry(plan.fused_pass)
        k = plan.fused_pass.kernel.edge
        assert entry.gemm.contraction_rows == k * k
        assert entry.gemm.mma_per_tile == 2 * entry.gemm.chunks


class TestRegistration:
    def test_compiled_is_registered(self):
        assert "compiled" in list_backends()

    def test_convstencil_accepts_compiled_by_name(self, rng):
        kernel = get_kernel("heat-2d")
        x = rng.standard_normal((9, 9))
        got = PinnedStencil(kernel, "gemm", backend="compiled").run(x, steps=2)
        want = PinnedStencil(kernel, "gemm", backend="serial").run(x, steps=2)
        np.testing.assert_array_equal(got, want)


class TestCommittedBaseline:
    """The committed ``BENCH_PR8.json`` keeps the claim that ``compiled``
    earns its place: CI-disjoint wins over ``serial`` on the full suite
    and no CI-disjoint loss.  It is read, never re-timed, because a shared
    runner's noise would make the claim unfalsifiable."""

    @pytest.fixture(scope="class")
    def timings(self):
        path = pathlib.Path(__file__).resolve().parents[2] / "BENCH_PR8.json"
        doc = json.loads(path.read_text())
        assert doc["suite"] == "full", doc["suite"]
        return {e["key"]: e["timing"] for e in doc["entries"]}

    def test_compiled_beats_serial_with_disjoint_cis(self, timings):
        wins = [
            key
            for key, t in timings.items()
            if key.endswith("@compiled")
            and t["ci_high"] < timings[key.replace("@compiled", "@serial")]["ci_low"]
        ]
        assert len(wins) >= 3, sorted(wins)

    def test_no_disjoint_compiled_losses(self, timings):
        losses = [
            key
            for key, t in timings.items()
            if key.endswith("@compiled")
            and t["ci_low"] > timings[key.replace("@compiled", "@serial")]["ci_high"]
        ]
        assert losses == [], sorted(losses)
