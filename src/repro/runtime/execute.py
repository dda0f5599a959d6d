"""Plan execution: boundary handling, pass sequencing, backend dispatch.

This is the single code path every :class:`~repro.core.api.ConvStencil`
entry point (``run``, ``run_batch``, ``apply_valid``) funnels through:
fetch a cached plan, pad per pass with the plan's boundary semantics, and
run each pass by the strategy its plan carries: ``gemm`` passes go to the
selected :class:`~repro.runtime.backends.Backend`, ``direct`` passes to the
shifted-add kernel (:func:`~repro.core.direct.direct_valid`), whatever the
backend.  Keeping one sequencer guarantees every backend sees identical
ghost-zone semantics — the property the differential test suite leans on —
and that a plan gives the same bits on every backend, single-grid or
batched, served or called directly.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro import obs, telemetry
from repro.core.direct import direct_valid
from repro.core.fusion import FusionPlan
from repro.runtime.backends import Backend, get_backend
from repro.runtime.cache import get_plan_cache
from repro.runtime.plan import ExecutionPlan, PassPlan, build_plan, plan_key
from repro.stencils.grid import BoundaryCondition, pad_halo, pad_halo_batch
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
    the measured one.
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


def _apply(pp: PassPlan, padded: np.ndarray, backend: Backend, batched: bool) -> np.ndarray:
    """One pass by the plan's strategy; backends only ever see ``gemm``."""
    if pp.strategy == "direct":
        return direct_valid(padded, pp.kernel, batched=batched)
    if batched:
        return backend.apply_pass_batch(pp, padded)
    return backend.apply_pass(pp, padded)


def execute_pass(
    pp: PassPlan,
    padded: np.ndarray,
    backend: Union[str, Backend, None] = None,
) -> np.ndarray:
    """One valid-region pass over an already-padded array."""
    return _apply(
        pp, np.asarray(padded, dtype=np.float64), get_backend(backend), batched=False
    )


def _run_passes(
    plan: ExecutionPlan,
    data: np.ndarray,
    steps: int,
    fill_value: float,
    backend: Backend,
    batched: bool,
) -> np.ndarray:
    out = data
    pad = pad_halo_batch if batched else pad_halo
    for pp in plan.passes_for(steps):
        with telemetry.span(
            "convstencil.pass",
            kernel=pp.kernel.name,
            radius=pp.halo,
            shape=out.shape,
            backend=backend.name,
            strategy=pp.strategy,
            **({"batched": True} if batched else {}),
        ):
            padded = pad(out, pp.halo, plan.boundary, fill_value)
            out = _apply(pp, padded, backend, batched)
    if out is data:
        # Zero passes (steps=0): a no-op run still returns a fresh float64
        # array, never an alias of the caller's input.
        out = np.array(data, dtype=np.float64)
    return out


def execute(
    plan: ExecutionPlan,
    data: np.ndarray,
    steps: int,
    fill_value: float = 0.0,
    backend: Union[str, Backend, None] = None,
) -> np.ndarray:
    """Advance one grid ``steps`` time steps under ``plan``.

    The pass sequence (fused passes plus unfused remainder), padding, and
    backend hand-off all live here; the result is the same-shape array
    after exactly ``steps`` steps.
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
        return _run_passes(plan, data, steps, fill_value, resolved, batched=False)


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
        return _run_passes(plan, batch, steps, fill_value, resolved, batched=True)
