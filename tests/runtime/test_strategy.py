"""Plan-level strategy dispatch: ``gemm``, ``direct`` and ``toeplitz`` passes.

The strategy is a plan field, set by a fixed rule over the pass kernel's
weights (``direct`` or ``toeplitz``; ``gemm`` only when pinned); the pass
sequencer runs ``direct`` and ``toeplitz`` passes itself and hands only
``gemm`` passes to backends.  These tests pin the contracts that make
that safe: the direct kernel's bits, batched/per-grid identity under
each strategy, the rule against its committed timings, the same bits in
every process, and what a backend sees.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import ConvStencil
from repro.core import direct as direct_mod
from repro.core.api import PinnedStencil
from repro.core.direct import direct_valid
from repro.core.fusion import plan_fusion
from repro.core.toeplitz import toeplitz_valid
from repro.errors import TessellationError
from repro.runtime import (
    execute,
    execute_batch,
    get_plan_cache,
    plan_for,
    register_backend,
)
from repro.runtime import plan as plan_mod
from repro.runtime.backends import SerialBackend
from repro.runtime.plan import STRATEGIES, build_plan
from repro.stencils.catalog import get_kernel
from repro.stencils.grid import BoundaryCondition, pad_halo
from repro.stencils.kernel import StencilKernel
from repro.stencils.reference import apply_stencil_reference
from repro.utils.rng import default_rng

# The suite pins ``gemm`` by default (tests/conftest.py); these tests are
# about the strategy rule itself.
pytestmark = pytest.mark.strategy_rule


def _random_kernel(kind: str, ndim: int, radius: int, seed: int) -> StencilKernel:
    rng = default_rng(seed)
    n = 2 * ndim * radius + 1 if kind == "star" else (2 * radius + 1) ** ndim
    # Signed weights: cancellation is where reassociation would show.
    weights = rng.uniform(-1.0, 1.0, n)
    return getattr(StencilKernel, kind)(ndim, radius, weights=weights, name=f"{kind}{ndim}")


class TestDirectKernel:
    @settings(max_examples=60, deadline=None)
    @given(
        ndim=st.integers(1, 3),
        kind=st.sampled_from(["star", "box"]),
        radius=st.integers(1, 2),
        depth=st.integers(1, 2),
        boundary=st.sampled_from(["constant", "periodic", "reflect"]),
        fill=st.sampled_from([0.0, -0.75, 2.5]),
        seed=st.integers(0, 2**16),
        extents=st.lists(st.integers(1, 9), min_size=3, max_size=3),
    )
    def test_bits_equal_reference_step(
        self, ndim, kind, radius, depth, boundary, fill, seed, extents
    ):
        """One direct pass over the padded grid is bit-identical to
        ``apply_stencil_reference`` — also for fused kernels, whose zero
        entries both must skip alike."""
        if ndim == 3:
            radius = 1
        kernel = plan_fusion(_random_kernel(kind, ndim, radius, seed), depth).fused
        bc = BoundaryCondition(boundary)
        # Periodic padding needs halo <= extent.
        shape = tuple(max(e, kernel.radius) for e in extents[:ndim])
        x = default_rng(seed + 1).random(shape) - 0.5
        padded = pad_halo(x, kernel.radius, bc, fill)
        want = apply_stencil_reference(x, kernel, bc, fill)
        assert np.array_equal(direct_valid(padded[None], kernel)[0], want)
        # A stack of several is the same elementwise arithmetic per grid.
        stack = np.stack([padded, padded[::-1].copy()])
        got = direct_valid(stack, kernel)
        assert np.array_equal(got[0], want)
        assert np.array_equal(got[1], direct_valid(stack[1:], kernel)[0])

    @pytest.mark.parametrize("block_bytes", [8, 200, 1 << 20])
    @pytest.mark.parametrize(
        "name, shape", [("heat-1d", (301,)), ("box-2d25p", (23, 19)), ("heat-3d", (9, 8, 7))]
    )
    def test_blocks_and_out_keep_the_bits(self, monkeypatch, block_bytes, name, shape):
        """Any block size (one row, a few rows, whole grids of a batch) and
        a strided ``out`` give the reference step's bits, and ``out``'s
        surroundings are left alone."""
        monkeypatch.setattr(direct_mod, "BLOCK_BYTES", block_bytes)
        kernel = get_kernel(name)
        x = default_rng(11).random((2,) + shape) - 0.5
        padded = np.stack([pad_halo(g, kernel.radius) for g in x])
        want = np.stack([apply_stencil_reference(g, kernel) for g in x])
        assert direct_valid(padded[:1], kernel).tobytes() == want[:1].tobytes()
        assert direct_valid(padded, kernel).tobytes() == want.tobytes()
        buf = np.full((2,) + tuple(s + 4 for s in shape), np.nan)
        interior = buf[(slice(None),) + (slice(2, -2),) * kernel.ndim]
        assert direct_valid(padded, kernel, out=interior) is interior
        assert interior.tobytes() == want.tobytes()
        assert np.isnan(buf).sum() == buf.size - want.size

    def test_rejects_wrong_rank_and_too_small_input(self):
        kernel = get_kernel("heat-2d")
        with pytest.raises(TessellationError):
            direct_valid(np.zeros((1, 9)), kernel)
        with pytest.raises(TessellationError):
            direct_valid(np.zeros((1, 2, 9)), kernel)

    def test_empty_batch(self):
        kernel = get_kernel("heat-2d")
        out = direct_valid(np.zeros((0, 6, 7)), kernel)
        assert out.shape == (0, 4, 5)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize(
    "name, shape", [("heat-1d", (37,)), ("box-2d9p", (13, 11)), ("heat-3d", (6, 7, 5))]
)
@pytest.mark.parametrize("boundary", ["constant", "periodic"])
def test_batched_equals_per_grid(strategy, name, shape, boundary):
    kernel = get_kernel(name)
    plan = build_plan(kernel, shape, boundary, fusion=2, strategy=strategy)
    assert {plan.fused_pass.strategy, plan.base_pass.strategy} == {strategy}
    stack = default_rng(5).random((3,) + shape)
    batched = execute_batch(plan, stack, steps=3, fill_value=0.25)
    singles = np.stack([execute(plan, g, steps=3, fill_value=0.25) for g in stack])
    assert np.array_equal(batched, singles)


def test_direct_plan_matches_reference_step_loop():
    kernel = get_kernel("star-2d13p")
    plan = build_plan(kernel, (17, 19), "reflect", strategy="direct")
    x = default_rng(2).random((17, 19))
    want = x
    for _ in range(3):
        want = apply_stencil_reference(want, kernel, BoundaryCondition.REFLECT)
    assert np.array_equal(execute(plan, x, steps=3), want)


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError, match="strategy"):
        build_plan(get_kernel("heat-2d"), (8, 8), strategy="sparse")


@pytest.mark.parametrize(
    "name, fusion, shape, want",
    [
        # 1-D passes and low-scoring kernels: direct at any size.
        ("heat-1d", 1, (512,), "direct"),
        ("heat-1d", "auto", (512,), "direct"),
        ("heat-3d", 1, (8, 8, 8), "direct"),
        # Dense 3-D (score 27): toeplitz.
        ("box-3d27p", 1, (8, 8, 8), "toeplitz"),
        ("heat-2d", 1, (16, 16), "direct"),
        ("heat-2d", 2, (16, 16), "direct"),
        # Dense 3x3 (score 9): toeplitz.
        ("box-2d9p", 1, (16, 16), "toeplitz"),
        ("star-2d9p", 1, (16, 16), "direct"),
        ("star-2d13p", 1, (16, 16), "direct"),
        # Score 12.8 (heat-2d-x3: 25 of 49 weights) and up: toeplitz,
        # whatever the grid size.
        ("heat-2d", "auto", (32, 64), "toeplitz"),
        ("heat-2d", "auto", (33, 64), "toeplitz"),
        ("box-2d25p", 1, (32, 64), "toeplitz"),
        ("box-2d25p", 1, (33, 64), "toeplitz"),
        ("box-2d9p", 2, (32, 64), "toeplitz"),
        ("box-2d49p", 1, (128, 256), "toeplitz"),
        ("box-2d49p", 1, (129, 256), "toeplitz"),
        ("box-2d9p", "auto", (128, 256), "toeplitz"),
        ("box-2d9p", "auto", (192, 192), "toeplitz"),
        # A dense 1-D kernel scores 13 but stays direct.
        ("1d5p", "auto", (512,), "direct"),
        # Fused star kernels fill their box: toeplitz.
        ("star-2d9p", 2, (16, 16), "toeplitz"),
        ("heat-3d", 2, (8, 8, 8), "direct"),
        ("box-2d49p", 1, (1, 1), "toeplitz"),
    ],
)
def test_rule_table(name, fusion, shape, want):
    kernel = plan_fusion(get_kernel(name), fusion).fused
    assert plan_mod.choose_strategy(kernel, shape) == want
    pp = build_plan(kernel, shape).fused_pass
    assert pp.strategy == want
    # Bands only on a toeplitz pass, GEMM tables on none.
    assert (pp.bands is not None) == (want == "toeplitz")
    assert pp.offsets is None


def test_rule_scores_the_useful_share_of_the_weight_box():
    """25 weights spread over a 13x13 box score 3.7: direct."""
    sparse = StencilKernel.star(2, 6, weights=np.ones(25))
    assert sparse.points == 25
    assert plan_mod.choose_strategy(sparse, (8, 8)) == "direct"


def test_rule_never_picks_gemm():
    """Dual tessellation is reached only by pinning."""
    picks = {
        plan_mod.choose_strategy(plan_fusion(get_kernel(name), fusion).fused, shape)
        for name in ("heat-1d", "heat-2d", "box-2d9p", "box-2d49p", "heat-3d", "box-3d27p")
        for fusion in (1, 2, "auto")
        for shape in ((4, 4, 4)[: get_kernel(name).ndim], (64, 64, 64)[: get_kernel(name).ndim])
    }
    assert picks == {"direct", "toeplitz"}


class TestCrossoverTable:
    """The rule against the committed timings it was fitted to
    (``benchmarks/bench_strategy_crossover.py``)."""

    @pytest.fixture(scope="class")
    def rows(self):
        path = Path(__file__).parents[2] / "benchmarks/results/strategy_crossover.json"
        return json.loads(path.read_text())["rows"]

    def _agree(self, rows, workload):
        """Rows where the rule picks the fastest of the three strategies."""
        mine = [r for r in rows if r["workload"] == workload]
        agree = sum(
            plan_mod.choose_strategy(
                plan_fusion(get_kernel(r["kernel"]), r["fusion"]).fused, tuple(r["shape"])
            )
            == min(STRATEGIES, key=lambda s: r[f"{s}_ms"])
            for r in mine
        )
        return agree, len(mine)

    def test_solve_cells(self, rows):
        agree, total = self._agree(rows, "solve")
        assert total == 6
        assert agree >= 5

    def test_churn_pairs(self, rows):
        churn = [r for r in rows if r["workload"] == "churn"]
        assert len({(r["kernel"], r["fusion"]) for r in churn}) == 16
        agree, total = self._agree(rows, "churn")
        assert agree >= 0.9 * total


_RUN_CATALOG = """
import hashlib, json, sys
import numpy as np
from repro import ConvStencil
from repro.runtime import plan_for
from repro.stencils.catalog import get_kernel, list_kernels

shapes = {
    1: [(2048,), (40000,)],
    2: [(32, 64), (33, 64), (128, 256), (129, 256)],
    3: [(10, 12, 14)],
}
result = {}
for name in list_kernels():
    kernel = get_kernel(name)
    for fusion in (1, "auto"):
        for shape in shapes[kernel.ndim]:
            x = np.random.default_rng(len(result)).random(shape)
            cs = ConvStencil(kernel, fusion=fusion)
            out = cs.run(x, steps=4)
            plan = plan_for(kernel, shape, fusion=fusion)
            result[f"{name}/{fusion}/{shape}"] = [
                plan.fused_pass.strategy,
                plan.base_pass.strategy,
                hashlib.sha256(out.tobytes()).hexdigest(),
            ]
json.dump(result, sys.stdout)
"""


def test_catalog_bits_identical_across_processes():
    """Every catalog kernel, fused and not, on both sides of the rule's
    threshold: two fresh interpreters, one of them held to one BLAS
    thread, give the same plans and bits."""
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    runs = [
        subprocess.run(
            [sys.executable, "-c", _RUN_CATALOG],
            env=dict(env, **extra), capture_output=True, text=True, check=True,
            timeout=300,
        ).stdout
        for extra in ({}, {"OPENBLAS_NUM_THREADS": "1"})
    ]
    first, second = (json.loads(r) for r in runs)
    assert first == second
    picked = {s for fused, base, _ in first.values() for s in (fused, base)}
    assert picked == {"direct", "toeplitz"}


def test_custom_backend_sees_only_gemm_passes():
    """A plan pinned to ``gemm`` hands the backend every pass; the rule's
    plan (``toeplitz`` fused passes, a ``direct`` remainder) hands it none."""
    seen = []

    class Recording(SerialBackend):
        name = "recording"

        def apply_pass(self, pp, padded):
            seen.append(pp.strategy)
            return super().apply_pass(pp, padded)

        def apply_pass_batch(self, pp, padded):
            seen.append(pp.strategy)
            return super().apply_pass_batch(pp, padded)

    register_backend("recording", Recording)
    try:
        kernel = get_kernel("heat-2d")
        cs = PinnedStencil(kernel, "gemm", fusion=3, backend="recording")
        x = default_rng(1).random((12, 12))
        out = cs.run(x, steps=7)  # 2 fused + 1 remainder, all gemm
        assert seen == ["gemm"] * 3
        batch = cs.run_batch(np.stack([x, x]), steps=7)
        assert seen == ["gemm"] * 6
        assert np.array_equal(batch[0], out)
        # Same plan on another backend: same bits.
        assert np.array_equal(PinnedStencil(kernel, "gemm", fusion=3).run(x, steps=7), out)
        plan = plan_for(kernel, x.shape, fusion=3)
        assert (plan.fused_pass.strategy, plan.base_pass.strategy) == ("toeplitz", "direct")
        rule_out = execute(plan, x, 7, backend="recording")
        execute_batch(plan, np.stack([x, x]), 7, backend="recording")
        assert seen == ["gemm"] * 6
        assert np.array_equal(rule_out, ConvStencil(kernel, fusion=3).run(x, steps=7))
    finally:
        from repro.runtime import backends as backends_mod

        with backends_mod._registry_lock:
            backends_mod._factories.pop("recording", None)
            backends_mod._instances.pop("recording", None)
        get_plan_cache().clear()


def test_apply_valid_follows_the_plan_strategy():
    padded = default_rng(4).random((14, 15))
    for name, run in (("box-2d9p", toeplitz_valid), ("heat-2d", direct_valid)):
        kernel = get_kernel(name)
        got = ConvStencil(kernel).apply_valid(padded)
        assert np.array_equal(got, run(padded[None], kernel)[0])


def test_empty_grid_is_not_measured():
    """A grid with no points plans by the rule like any other, and a
    zero-step run returns the empty grid."""
    plan = build_plan(get_kernel("heat-2d"), (0, 5))
    assert plan.fused_pass.strategy == "direct"
    out = ConvStencil(get_kernel("heat-2d")).run(np.zeros((0, 5)), steps=0)
    assert out.shape == (0, 5)


class TestPinnedPlans:
    def test_pinned_plan_is_cached_apart_from_the_measured_one(self):
        kernel = get_kernel("heat-2d")
        ruled = plan_for(kernel, (12, 12))
        pinned = plan_for(kernel, (12, 12), strategy="gemm")
        assert ruled.fused_pass.strategy == "direct"
        assert pinned.fused_pass.strategy == "gemm"
        assert plan_for(kernel, (12, 12), strategy="gemm") is pinned
        assert plan_for(kernel, (12, 12)) is ruled

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_pinned_stencil_runs_its_strategy(self, strategy):
        kernel = get_kernel("box-2d9p")
        x = default_rng(6).random((15, 13))
        cs = PinnedStencil(kernel, strategy, fusion=2)
        out = cs.run(x, steps=3)
        plan = build_plan(kernel, x.shape, fusion=2, strategy=strategy)
        assert np.array_equal(out, execute(plan, x, steps=3))

    def test_pinned_stencil_rejects_unknown_strategy(self):
        with pytest.raises(ValueError, match="strategy"):
            PinnedStencil(get_kernel("heat-2d"), "sparse")


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_served_results_match_direct_runs(monkeypatch, strategy):
    """Coalesced serving and ConvStencil.run share the plan, hence the bits."""
    import asyncio

    from repro.serve import Request, ServeConfig, StencilService

    monkeypatch.setattr(plan_mod, "choose_strategy", lambda kernel, shape: strategy)
    kernel = get_kernel("heat-2d")
    grids = [default_rng(9 + i).random((16, 16)) for i in range(3)]

    async def scenario():
        async with StencilService(ServeConfig(lanes=1)) as svc:
            return await asyncio.gather(
                *(svc.submit(Request("t", kernel=kernel, data=g, steps=4, fusion=2)) for g in grids)
            )

    responses = asyncio.run(scenario())
    cs = ConvStencil(kernel, fusion=2)
    for grid, response in zip(grids, responses):
        assert np.array_equal(response.data, cs.run(grid, steps=4))
    assert plan_for(kernel, (16, 16), fusion=2).fused_pass.strategy == strategy
