"""Plan execution: boundary handling, pass sequencing, backend dispatch.

This is the single code path every :class:`~repro.core.api.ConvStencil`
entry point (``run``, ``run_batch``, ``apply_valid``) funnels through:
fetch a cached plan, keep the grid's halo with the plan's boundary
semantics, and run each pass by the strategy its plan carries: ``gemm``
passes go to the selected :class:`~repro.runtime.backends.Backend`;
``direct`` passes go to the shifted-add kernel
(:func:`~repro.core.direct.direct_valid`) and ``toeplitz`` passes to the
banded GEMMs (:func:`~repro.core.toeplitz.toeplitz_valid`), whatever the
backend.  Keeping
one sequencer guarantees every backend sees identical ghost-zone
semantics — the property the differential test suite leans on — and that
a plan gives the same bits on every backend, served or called directly.

There is one pass sequence, over a stack of grids with a leading batch
axis: ``execute_batch`` hands it the caller's batch, ``execute`` and
``execute_pass`` the single grid as a batch of one (``data[None]``),
returning its only grid.  A ``gemm`` pass always reaches the backend
through ``apply_pass_batch``.

A run pads its input once, like the paper's padding that is reused as
scratch (§3.4).  Its state lives in the interior of two halo buffers
sized for the widest halo among its passes.  The input is copied into
the first buffer's interior and its halo filled in place
(``pad_halo_batch(..., out=buffer)``, which fills by
:func:`~repro.stencils.grid.refresh_halo`, equal to :func:`numpy.pad`
bit for bit and much cheaper on small grids); before each later pass
the halo of the current buffer is refreshed the same way, and the pass
writes the other buffer's interior.  A ``direct`` or
``toeplitz`` pass reads the buffer in place and writes straight into
that interior; a ``gemm`` pass gets a contiguous padded array, as it
would from a fresh pad, and its result is copied in.  The
last pass writes a fresh array, the run's result.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro import obs, telemetry
from repro.core.direct import direct_valid
from repro.core.fusion import FusionPlan
from repro.core.toeplitz import toeplitz_valid
from repro.runtime.backends import Backend, get_backend
from repro.runtime.cache import get_plan_cache
from repro.runtime.plan import ExecutionPlan, PassPlan, build_plan, plan_key
# A run pads only through pad_halo_batch; pad_halo stays importable here
# because perfbench/layers.py times the halo pad under both names.
from repro.stencils.grid import BoundaryCondition, pad_halo, pad_halo_batch, refresh_halo
from repro.stencils.kernel import StencilKernel

__all__ = ["execute", "execute_batch", "execute_pass", "plan_for"]


def plan_for(
    kernel: StencilKernel,
    grid_shape: Tuple[int, ...],
    boundary: BoundaryCondition = BoundaryCondition.CONSTANT,
    fusion: "int | str | FusionPlan" = 1,
    *,
    strategy: Optional[str] = None,
) -> ExecutionPlan:
    """The cached :class:`ExecutionPlan` for a problem, built on first use.

    Keyed by ``(kernel, grid_shape, boundary, fusion_depth)`` in the global
    :class:`~repro.runtime.cache.PlanCache`; repeated runs over the same
    problem reuse one plan's LUTs and weight matrices.
    ``strategy`` pins every pass (see ``build_plan``); a pinned plan is
    cached under the key extended by the pin, so it never stands in for
    the rule's.
    """
    if isinstance(fusion, FusionPlan):
        depth = fusion.depth
    else:
        from repro.core.fusion import plan_fusion

        fusion = plan_fusion(kernel, fusion)
        depth = fusion.depth
    key = plan_key(kernel, grid_shape, boundary, depth)
    if strategy is not None:
        key += (strategy,)
    return get_plan_cache().get_or_build(
        key, lambda: build_plan(kernel, grid_shape, boundary, fusion, strategy=strategy)
    )


def _apply(
    pp: PassPlan,
    padded: np.ndarray,
    backend: Backend,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """One pass over a padded stack by the plan's strategy, into ``out``
    when given; a run hands backends only ``gemm`` passes."""
    if pp.strategy == "direct":
        return direct_valid(padded, pp.kernel, out=out)
    if pp.strategy == "toeplitz":
        return toeplitz_valid(padded, pp.kernel, bands=pp.bands, out=out)
    result = backend.apply_pass_batch(pp, padded)
    if out is None:
        return result
    out[...] = result
    return out


def execute_pass(
    pp: PassPlan,
    padded: np.ndarray,
    backend: Union[str, Backend, None] = None,
) -> np.ndarray:
    """One valid-region pass over an already-padded grid."""
    padded = np.asarray(padded, dtype=np.float64)
    return np.ascontiguousarray(_apply(pp, padded[None], get_backend(backend))[0])


def _run_passes(
    plan: ExecutionPlan,
    stack: np.ndarray,
    steps: int,
    fill_value: float,
    backend: Backend,
) -> np.ndarray:
    """The pass sequence over a stack of grids (leading batch axis)."""
    passes = list(plan.passes_for(steps))
    if not passes:
        # Zero passes (steps=0): a no-op run still returns a fresh float64
        # array, never an alias of the caller's input.
        return np.array(stack, dtype=np.float64)
    halo = max(pp.halo for pp in passes)
    grid = stack.shape[1:]
    buffer = np.empty(stack.shape[:1] + tuple(n + 2 * halo for n in grid))
    current = pad_halo_batch(stack, halo, plan.boundary, fill_value, out=buffer)
    spare = np.empty_like(current) if len(passes) > 1 else None
    interior = (slice(None),) + tuple(slice(halo, halo + n) for n in grid)
    last = len(passes) - 1
    for i, pp in enumerate(passes):
        with telemetry.span(
            "convstencil.pass",
            kernel=pp.kernel.name,
            radius=pp.halo,
            shape=stack.shape,
            backend=backend.name,
            strategy=pp.strategy,
        ):
            if i:
                refresh_halo(current, halo, plan.boundary, fill_value)
            trim = halo - pp.halo
            padded = current[(slice(None),) + (slice(trim, -trim or None),) * pp.ndim]
            if pp.strategy == "gemm":
                # The contiguous array a fresh pad would have given the backend.
                padded = np.ascontiguousarray(padded)
            if i == last:
                result = _apply(pp, padded, backend)
            else:
                _apply(pp, padded, backend, out=spare[interior])
                current, spare = spare, current
    return np.ascontiguousarray(result)


def execute(
    plan: ExecutionPlan,
    data: np.ndarray,
    steps: int,
    fill_value: float = 0.0,
    backend: Union[str, Backend, None] = None,
) -> np.ndarray:
    """Advance one grid ``steps`` time steps under ``plan``.

    The grid runs as a batch of one through the pass sequence (fused
    passes plus unfused remainder, padding, backend hand-off); the result
    is a fresh same-shape array after exactly ``steps`` steps.
    """
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    resolved = get_backend(backend)
    data = np.asarray(data, dtype=np.float64)
    with telemetry.span(
        "convstencil.run",
        kernel=plan.kernel.name,
        shape=data.shape,
        steps=steps,
        fusion_depth=plan.fusion_depth,
        backend=resolved.name,
    ), obs.record_run(plan, resolved.name, steps):
        return _run_passes(plan, data[None], steps, fill_value, resolved)[0]


def execute_batch(
    plan: ExecutionPlan,
    batch: np.ndarray,
    steps: int,
    fill_value: float = 0.0,
    backend: Union[str, Backend, None] = None,
) -> np.ndarray:
    """Advance a batch of independent grids (leading batch axis).

    An empty batch (leading extent 0) is a well-defined no-op: the result
    is an empty float64 array of the same shape, whatever ``steps`` says
    (stencil passes preserve grid shape, so zero grids stay zero grids).
    """
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    resolved = get_backend(backend)
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim >= 1 and batch.shape[0] == 0:
        return np.array(batch, dtype=np.float64)
    with telemetry.span(
        "convstencil.run",
        kernel=plan.kernel.name,
        shape=batch.shape,
        steps=steps,
        fusion_depth=plan.fusion_depth,
        backend=resolved.name,
        batched=True,
    ), obs.record_run(plan, resolved.name, steps, batch=int(batch.shape[0])):
        return _run_passes(plan, batch, steps, fill_value, resolved)
