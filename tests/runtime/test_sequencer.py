"""The pass sequencer's halo buffers, and GEMM tables built only where read.

A run pads its input once and keeps its state in the interior of two
reused halo buffers; these tests pin that it gives the bits of the
plain loop (fresh pad, one pass, repeat) on every backend's
``apply_pass_batch`` and on the rule's mixed plan, that what it
returns is the caller's own array, and that a ``direct`` plan carries no
GEMM tables unless a backend is handed its pass.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro import ConvStencil
from repro.runtime import (
    execute,
    execute_batch,
    execute_pass,
    get_backend,
    get_plan_cache,
    list_backends,
    plan_for,
)
from repro.staticcheck.plan_invariants import check_plan
from repro.stencils.catalog import get_kernel
from repro.stencils.grid import BoundaryCondition, pad_halo
from repro.stencils.kernel import StencilKernel
from repro.utils.rng import default_rng
from repro.verify.differential import mutation_check

# These tests are about the plans the strategy rule builds.
pytestmark = pytest.mark.strategy_rule

#: heat-2d with ``fusion="auto"`` fuses 3 steps into a 7×7 pass with 25
#: weights, which the rule runs as ``toeplitz``; the unfused remainder is
#: ``direct``.  Four steps run one pass of each, with different halos.
KERNEL, SHAPE, STEPS = "heat-2d", (24, 26), 4

BOUNDARIES = [
    (BoundaryCondition.CONSTANT, 0.5),
    (BoundaryCondition.PERIODIC, 0.0),
    (BoundaryCondition.REFLECT, 0.0),
]


def _per_pass_loop(plan, x, fill, backend):
    """The sequencer without buffers: a fresh pad before every pass."""
    out = x
    for pp in plan.passes_for(STEPS):
        out = execute_pass(pp, pad_halo(out, pp.halo, plan.boundary, fill), backend)
    return out


def test_the_mixed_plan_is_mixed():
    plan = plan_for(get_kernel(KERNEL), SHAPE, fusion="auto")
    assert [pp.strategy for pp in plan.passes_for(STEPS)] == ["toeplitz", "direct"]
    assert plan.fused_pass.halo > plan.base_pass.halo


def _check_run_equals_per_pass_pad_loop(plan, fill, backend=None):
    batch = default_rng(3).random((3,) + SHAPE)
    want = [_per_pass_loop(plan, x, fill, backend) for x in batch]
    got = execute(plan, batch[0], STEPS, fill, backend)
    assert got.tobytes() == want[0].tobytes()
    got_batch = execute_batch(plan, batch, STEPS, fill, backend)
    assert got_batch.tobytes() == np.stack(want).tobytes()


@pytest.mark.parametrize("backend", list_backends())
@pytest.mark.parametrize("boundary,fill", BOUNDARIES, ids=lambda b: getattr(b, "value", ""))
def test_run_equals_per_pass_pad_loop(backend, boundary, fill):
    """Pinned ``gemm``, so every pass reaches the backend's
    ``apply_pass_batch`` (a single grid as a batch of one)."""
    plan = plan_for(get_kernel(KERNEL), SHAPE, boundary, "auto", strategy="gemm")
    _check_run_equals_per_pass_pad_loop(plan, fill, backend)


def test_run_equals_per_pass_pad_loop_on_the_mixed_plan():
    """The rule's plan: a ``toeplitz`` and a ``direct`` pass, no backend."""
    for boundary, fill in BOUNDARIES:
        plan = plan_for(get_kernel(KERNEL), SHAPE, boundary, "auto")
        _check_run_equals_per_pass_pad_loop(plan, fill)


def _check_result_is_a_fresh_contiguous_array(plan, backend=None):
    x = default_rng(4).random(SHAPE)
    x_before = x.copy()
    first = execute(plan, x, STEPS, backend=backend)
    second = execute(plan, x, STEPS, backend=backend)
    batch = execute_batch(plan, np.stack([x, x]), STEPS, backend=backend)
    for out in (first, second, batch):
        assert out.flags.c_contiguous
        assert not np.shares_memory(out, x)
    assert not np.shares_memory(first, second)
    assert np.array_equal(x, x_before)
    first[...] = -1.0
    assert np.array_equal(second, batch[0])


@pytest.mark.parametrize("backend", list_backends())
def test_result_is_a_fresh_contiguous_array(backend):
    plan = plan_for(get_kernel(KERNEL), SHAPE, fusion="auto", strategy="gemm")
    _check_result_is_a_fresh_contiguous_array(plan, backend)


def test_result_is_a_fresh_contiguous_array_on_the_mixed_plan():
    _check_result_is_a_fresh_contiguous_array(plan_for(get_kernel(KERNEL), SHAPE, fusion="auto"))


def test_zero_steps_returns_a_copy():
    x = default_rng(5).random(SHAPE)
    solver = ConvStencil(get_kernel(KERNEL), fusion="auto")
    out = solver.run(x, steps=0)
    assert np.array_equal(out, x)
    assert not np.shares_memory(out, x)
    batch = default_rng(5).random((2,) + SHAPE)
    out = solver.run_batch(batch, steps=0)
    assert np.array_equal(out, batch)
    assert not np.shares_memory(out, batch)


@pytest.mark.parametrize("many", [False, True])
def test_run_fills_its_halo_buffer_through_pad_halo(monkeypatch, many):
    """A run pads through the module's ``pad_halo_batch`` name (what
    per-layer timing wraps), a single grid as a batch of one, handing it
    its halo buffer, and gets the bits a ``numpy.pad`` copy gives."""
    # The module, not the ``execute`` function ``repro.runtime`` re-exports.
    execute_mod = importlib.import_module("repro.runtime.execute")
    real = execute_mod.pad_halo_batch
    buffers = []

    def spy(data, halo, boundary, fill_value, *, out):
        buffers.append(out)
        return real(data, halo, boundary, fill_value, out=out)

    def numpy_pad(data, halo, boundary, fill_value, *, out):
        out[...] = [pad_halo(g, halo, boundary, fill_value) for g in data]
        return out

    x = default_rng(9).random(((2,) + SHAPE) if many else SHAPE)
    solver = ConvStencil(get_kernel(KERNEL), fusion="auto")
    run = solver.run_batch if many else solver.run
    for boundary, fill in BOUNDARIES:
        monkeypatch.setattr(execute_mod, "pad_halo_batch", spy)
        filled = run(x, steps=STEPS, boundary=boundary, fill_value=fill)
        monkeypatch.setattr(execute_mod, "pad_halo_batch", numpy_pad)
        padded = run(x, steps=STEPS, boundary=boundary, fill_value=fill)
        assert filled.tobytes() == padded.tobytes()
    assert len(buffers) == len(BOUNDARIES)
    assert all(isinstance(b, np.ndarray) and not np.shares_memory(b, x) for b in buffers)
    assert all(len(b) == (2 if many else 1) for b in buffers)


class TestLazyTables:
    def test_direct_plan_builds_no_tables(self):
        kernel = get_kernel("heat-2d")
        ConvStencil(kernel).run(default_rng(6).random((40, 40)), steps=2)
        plan = plan_for(kernel, (40, 40))
        assert plan.fused_pass.strategy == "direct"
        assert plan.fused_pass.offsets is None
        assert plan.nbytes == 0

    @pytest.mark.parametrize("backend", ["serial", "compiled", "tiled"])
    def test_handed_direct_pass_matches_the_gemm_pass(self, backend):
        kernel = get_kernel("heat-2d")
        shape = (300, 40)  # rows enough for ``tiled`` to split the pass
        get_plan_cache().clear()
        pp = plan_for(kernel, shape).fused_pass
        gemm_pp = plan_for(kernel, shape, strategy="gemm").fused_pass
        assert (pp.strategy, gemm_pp.strategy) == ("direct", "gemm")
        padded = pad_halo(default_rng(7).random(shape), pp.halo)
        got = get_backend(backend).apply_pass(pp, padded)
        want = get_backend("serial").apply_pass(gemm_pp, padded)
        assert got.tobytes() == want.tobytes()
        # Built once, on that first hand-off, and kept on the pass.
        if backend != "tiled":  # tiled's slabs run plan-free
            assert pp.offsets is not None
            offsets = pp.offsets
            get_backend(backend).apply_pass(pp, padded)
            assert pp.offsets is offsets
        assert pp.strategy == "direct"

    def test_handed_direct_pass_matches_the_gemm_pass_batched(self):
        kernel = get_kernel("heat-2d")
        pp = plan_for(kernel, (20, 22)).fused_pass
        batch = np.stack([pad_halo(g, 1) for g in default_rng(8).random((2, 20, 22))])
        gemm_pp = plan_for(kernel, (20, 22), strategy="gemm").fused_pass
        for name in ("serial", "compiled"):
            got = get_backend(name).apply_pass_batch(pp, batch)
            want = get_backend("serial").apply_pass_batch(gemm_pp, batch)
            assert got.tobytes() == want.tobytes()

    def test_staticcheck_accepts_direct_plans(self, monkeypatch):
        """Under ``REPRO_STATICCHECK=1`` every plan is checked on insert,
        a ``direct`` one with no tables and a mixed one alike."""
        monkeypatch.setenv("REPRO_STATICCHECK", "1")
        get_plan_cache().clear()
        direct = plan_for(get_kernel("heat-3d"), (10, 11, 12))
        mixed = plan_for(get_kernel(KERNEL), SHAPE, fusion="auto")
        assert direct.fused_pass.offsets is None
        assert check_plan(direct) == [] and check_plan(mixed) == []
        direct.fused_pass.ensure_tables()
        assert check_plan(direct) == []
        assert mutation_check() is True

    def test_second_construction_composes_nothing(self, monkeypatch):
        kernel = StencilKernel.box(2, 1, name="fresh-box")
        first = ConvStencil(kernel, fusion="auto")
        assert first.fusion_depth == 3

        def compose(self, other):
            raise AssertionError("fused kernel recomposed")

        monkeypatch.setattr(StencilKernel, "compose", compose)
        second = ConvStencil(kernel, fusion="auto")
        assert second.fused_kernel is first.fused_kernel
