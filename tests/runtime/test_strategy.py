"""Plan-level strategy dispatch: ``gemm`` vs ``direct`` passes.

The strategy is a plan field, measured once per (kernel content, size
class) and memoised; the pass sequencer runs ``direct`` passes itself and
hands only ``gemm`` passes to backends.  These tests pin the contracts
that make that safe: the direct kernel's bits, batched/per-grid identity
under each strategy, the memo's lifetime, and what a backend sees.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ConvStencil
from repro.core.api import PinnedStencil
from repro.core.direct import direct_valid
from repro.core.fusion import plan_fusion
from repro.errors import TessellationError
from repro.runtime import (
    execute,
    execute_batch,
    get_backend,
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
# about the measured crossover itself.
pytestmark = pytest.mark.measured_strategy


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
        assert np.array_equal(direct_valid(padded, kernel), want)
        # The batched form is the same elementwise arithmetic per grid.
        stack = np.stack([padded, padded[::-1].copy()])
        got = direct_valid(stack, kernel, batched=True)
        assert np.array_equal(got[0], want)
        assert np.array_equal(got[1], direct_valid(stack[1], kernel))

    def test_rejects_wrong_rank_and_too_small_input(self):
        kernel = get_kernel("heat-2d")
        with pytest.raises(TessellationError):
            direct_valid(np.zeros(9), kernel)
        with pytest.raises(TessellationError):
            direct_valid(np.zeros((2, 9)), kernel)

    def test_empty_batch(self):
        kernel = get_kernel("heat-2d")
        out = direct_valid(np.zeros((0, 6, 7)), kernel, batched=True)
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


class TestMemo:
    @pytest.fixture
    def calibrations(self, monkeypatch):
        """Record every measurement; each one picks the *other* strategy
        than the one before, so a re-measurement would show."""
        calls = []

        def fake(pp):
            calls.append(pp)
            return STRATEGIES[len(calls) % 2]

        monkeypatch.setattr(plan_mod, "_calibrate", fake)
        monkeypatch.setattr(plan_mod, "_strategy_memo", type(plan_mod._strategy_memo)())
        get_plan_cache().clear()
        yield calls
        get_plan_cache().clear()

    def test_strategy_survives_plan_cache_clear(self, calibrations):
        kernel = get_kernel("box-2d25p")
        first = plan_for(kernel, (24, 24)).fused_pass.strategy
        get_plan_cache().clear()
        again = plan_for(kernel, (24, 24)).fused_pass.strategy
        assert again == first
        assert len(calibrations) == 1

    def test_key_is_weight_content_not_identity(self, calibrations):
        # fusion="auto" composes a fresh fused kernel per ConvStencil.
        x = default_rng(0).random((20, 20))
        ConvStencil(get_kernel("box-2d9p"), fusion="auto").run(x, steps=3)
        measured = len(calibrations)
        get_plan_cache().clear()
        ConvStencil(get_kernel("box-2d9p"), fusion="auto").run(x, steps=3)
        assert len(calibrations) == measured

    def test_size_class_is_point_count_bit_length(self, calibrations):
        kernel = get_kernel("heat-2d")
        plan_for(kernel, (16, 16))  # 256 points: bit_length 9
        plan_for(kernel, (16, 31))  # 496 points: bit_length 9
        assert len(calibrations) == 1
        plan_for(kernel, (16, 32))  # 512 points: bit_length 10
        assert len(calibrations) == 2

    def test_memo_is_bounded(self, calibrations, monkeypatch):
        monkeypatch.setattr(plan_mod, "_STRATEGY_CAPACITY", 2)
        kernel = get_kernel("heat-1d")
        for n in (4, 8, 16, 32):
            build_plan(kernel, (n,))
        assert len(plan_mod._strategy_memo) == 2


def test_concurrent_first_builds_agree(monkeypatch):
    """Threads racing to measure one fresh key all get the stored winner,
    even when their own measurements disagree."""
    import sys
    import threading
    from collections import OrderedDict
    from itertools import count

    ticket = count()
    monkeypatch.setattr(plan_mod, "_strategy_memo", OrderedDict())
    monkeypatch.setattr(plan_mod, "_calibrate", lambda pp: STRATEGIES[next(ticket) % 2])
    pp = build_plan(get_kernel("heat-2d"), (12, 12), strategy="gemm").fused_pass
    results = []
    start = threading.Barrier(16)

    def worker():
        start.wait(timeout=10)
        results.append(plan_mod.choose_strategy(pp))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 16
    assert len(set(results)) == 1
    assert list(plan_mod._strategy_memo.values()) == results[:1]


def test_tie_goes_to_direct(monkeypatch):
    """Equal best times pick ``direct``: GEMM must be strictly faster."""

    class Clock:
        t = 0.0

        def perf_counter(self):
            self.t += 1.0
            return self.t

    monkeypatch.setattr(plan_mod, "time", Clock())
    pp = build_plan(get_kernel("heat-2d"), (8, 8), strategy="gemm").fused_pass
    assert plan_mod._calibrate(pp) == "direct"


def test_calibration_uses_serial_engine_for_gemm(monkeypatch):
    seen = []
    real = SerialBackend.apply_pass

    def spy(self, pp, padded):
        seen.append(pp.padded_shape)
        return real(self, pp, padded)

    monkeypatch.setattr(SerialBackend, "apply_pass", spy)
    pp = build_plan(get_kernel("heat-2d"), (9, 10), strategy="gemm").fused_pass
    assert plan_mod._calibrate(pp) in STRATEGIES
    assert seen == [(11, 12)] * plan_mod._CALIBRATION_REPEATS


def test_custom_backend_sees_only_gemm_passes(monkeypatch):
    """Mixed plan: fused passes ``gemm``, the unfused remainder ``direct``."""
    fused_weights = plan_fusion(get_kernel("heat-2d"), 2).fused.weights
    monkeypatch.setattr(
        plan_mod,
        "choose_strategy",
        lambda pp: "gemm" if pp.kernel.weights.shape == fused_weights.shape else "direct",
    )
    get_plan_cache().clear()
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
        cs = ConvStencil(get_kernel("heat-2d"), fusion=2, backend="recording")
        x = default_rng(1).random((12, 12))
        out = cs.run(x, steps=5)  # 2 fused (gemm) + 1 remainder (direct)
        assert seen == ["gemm", "gemm"]
        batch = cs.run_batch(np.stack([x, x]), steps=5)
        assert seen == ["gemm"] * 4
        assert np.array_equal(batch[0], out)
        # Same plan on another backend: same bits.
        assert np.array_equal(ConvStencil(get_kernel("heat-2d"), fusion=2).run(x, steps=5), out)
    finally:
        from repro.runtime import backends as backends_mod

        with backends_mod._registry_lock:
            backends_mod._factories.pop("recording", None)
            backends_mod._instances.pop("recording", None)
        get_plan_cache().clear()


def test_apply_valid_follows_the_plan_strategy(monkeypatch):
    monkeypatch.setattr(plan_mod, "choose_strategy", lambda pp: "direct")
    get_plan_cache().clear()
    try:
        kernel = get_kernel("box-2d9p")
        padded = default_rng(4).random((14, 15))
        got = ConvStencil(kernel, backend=get_backend("serial")).apply_valid(padded)
        assert np.array_equal(got, direct_valid(padded, kernel))
    finally:
        get_plan_cache().clear()


def test_empty_grid_is_not_measured():
    """No points, no pass to time: the plan still builds, stays ``gemm``,
    and a zero-step run returns the empty grid."""
    plan = build_plan(get_kernel("heat-2d"), (0, 5))
    assert plan.fused_pass.strategy == "gemm"
    out = ConvStencil(get_kernel("heat-2d")).run(np.zeros((0, 5)), steps=0)
    assert out.shape == (0, 5)


class TestCalibrationSize:
    def test_small_grid_is_timed_whole(self):
        pp = build_plan(get_kernel("heat-2d"), (9, 10), strategy="gemm").fused_pass
        assert plan_mod._calibration_pass(pp) is pp

    @pytest.mark.parametrize(
        "name, shape, want",
        [
            ("heat-1d", (1000,), (64,)),
            ("heat-2d", (40, 10), (6, 10)),
            ("heat-3d", (9, 4, 4), (4, 4, 4)),
            # A row wider than the cap still times one full-width row.
            ("heat-2d", (5, 100), (1, 100)),
        ],
    )
    def test_large_grid_is_timed_on_its_first_rows(self, monkeypatch, name, shape, want):
        monkeypatch.setattr(plan_mod, "_CALIBRATION_POINTS", 64)
        seen = []
        real = SerialBackend.apply_pass

        def spy(self, pp, padded):
            seen.append(pp.grid_shape)
            return real(self, pp, padded)

        monkeypatch.setattr(SerialBackend, "apply_pass", spy)
        pp = build_plan(get_kernel(name), shape, strategy="gemm").fused_pass
        assert plan_mod._calibrate(pp) in STRATEGIES
        assert set(seen) == {want}

    def test_capped_grid_keeps_its_own_size_class(self, monkeypatch):
        monkeypatch.setattr(plan_mod, "_CALIBRATION_POINTS", 64)
        monkeypatch.setattr(plan_mod, "_strategy_memo", type(plan_mod._strategy_memo)())
        build_plan(get_kernel("heat-2d"), (40, 10))
        ((_, _, size_class),) = plan_mod._strategy_memo
        assert size_class == (40 * 10).bit_length()


class TestPinnedPlans:
    def test_pinned_plan_is_cached_apart_from_the_measured_one(self, monkeypatch):
        monkeypatch.setattr(plan_mod, "choose_strategy", lambda pp: "direct")
        kernel = get_kernel("heat-2d")
        measured = plan_for(kernel, (12, 12))
        pinned = plan_for(kernel, (12, 12), strategy="gemm")
        assert measured.fused_pass.strategy == "direct"
        assert pinned.fused_pass.strategy == "gemm"
        assert plan_for(kernel, (12, 12), strategy="gemm") is pinned
        assert plan_for(kernel, (12, 12)) is measured

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

    monkeypatch.setattr(plan_mod, "choose_strategy", lambda pp: strategy)
    kernel = get_kernel("heat-2d")
    grids = [default_rng(9 + i).random((16, 16)) for i in range(3)]

    async def scenario():
        async with StencilService(ServeConfig(lanes=1, coalesce_window_ms=20.0)) as svc:
            return await asyncio.gather(
                *(svc.submit(Request("t", kernel=kernel, data=g, steps=4, fusion=2)) for g in grids)
            )

    responses = asyncio.run(scenario())
    cs = ConvStencil(kernel, fusion=2)
    for grid, response in zip(grids, responses):
        assert np.array_equal(response.data, cs.run(grid, steps=4))
    assert plan_for(kernel, (16, 16), fusion=2).fused_pass.strategy == strategy
