"""Paper-derived efficiency counters folded into every benchmark entry.

Wall time alone says a run got slower; it cannot say *relative to what the
algorithm's structure allows*.  ConvStencil's analysis gives exact
structural quantities, and every perfwatch entry records them next to the
measured time:

* **Eq. 13 MMA count** — ``2·⌈k²/4⌉·⌈(k+1)/8⌉`` FP64 MMAs per 8×(k+1)
  output fragment, summed over the exact pass sequence a run executes
  (fused passes + unfused remainder).  ``achieved_mma_per_s`` is then the
  substrate-independent progress rate the paper's Tensor-Core analysis is
  phrased in.
* **Table 3 footprint factors** — the stencil2row expansion factor
  ``2(k+1)/(k+1)²``-style ratio and its saving vs im2row (Eq. 7–11):
  layout-pressure constants of the executed kernel, recorded so a future
  layout change shows up as a counter diff, not a mystery slowdown.
* **Model attainment** — measured GStencil/s against the calibrated A100
  model (:func:`repro.model.convstencil_model.convstencil_throughput`),
  the achieved-vs-roofline framing of Fig. 7.
* **Runtime counters** — plan-cache hit rate over the workload
  (:class:`repro.runtime.cache.PlanCache` telemetry).
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.core.fusion import plan_fusion
from repro.core.im2row import im2row_expansion_factor
from repro.core.stencil2row import (
    memory_saving_vs_im2row,
    stencil2row_expansion_factor,
)
from repro.model.convstencil_model import (
    convstencil_mma_count,
    convstencil_throughput,
)
from repro.stencils.kernel import StencilKernel

__all__ = [
    "efficiency_counters",
    "pass_mma_total",
    "plan_cache_delta",
]


def pass_mma_total(kernel: StencilKernel, n_points: int, steps: int, depth: int) -> float:
    """Eq.-13 MMA total over the exact pass sequence ``steps`` executes.

    Mirrors :meth:`repro.runtime.plan.ExecutionPlan.passes_for`: fused
    passes advance ``depth`` steps each, the remainder runs unfused.
    Public because the live obs collector prices runs with the same
    formula the bench counters use.
    """
    plan = plan_fusion(kernel, depth)
    fused_passes, remainder = divmod(steps, plan.depth)
    total = 0.0
    if fused_passes:
        total += fused_passes * convstencil_mma_count(plan.fused, n_points)
    if remainder:
        total += remainder * convstencil_mma_count(plan.base, n_points)
    return total


def plan_cache_delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    """Hit/miss delta between two :attr:`PlanCache.stats` snapshots."""
    hits = after.get("hits", 0) - before.get("hits", 0)
    misses = after.get("misses", 0) - before.get("misses", 0)
    total = hits + misses
    return {
        "plan_cache_hits": float(hits),
        "plan_cache_misses": float(misses),
        "plan_cache_hit_rate": (hits / total) if total else 1.0,
    }


def efficiency_counters(
    kernel: StencilKernel,
    grid_shape,
    steps: int,
    fusion_depth: int,
    elapsed: float,
    batch: int = 0,
) -> Dict[str, Any]:
    """The analytic-model counter block for one measured workload.

    ``elapsed`` is the workload's point-estimate wall time in seconds for
    the whole ``steps``-step run (× ``batch`` grids when batched).
    """
    n_grid = int(np.prod(tuple(grid_shape)))
    n_points = n_grid * max(1, batch)
    mma_total = pass_mma_total(kernel, n_grid, steps, fusion_depth) * max(1, batch)
    stencil_updates = float(steps) * n_points
    model = convstencil_throughput(
        kernel, tuple(grid_shape), fusion=fusion_depth
    )
    achieved_gst = (
        stencil_updates / elapsed / 1e9 if elapsed > 0.0 else 0.0
    )
    counters: Dict[str, Any] = {
        "n_points": n_points,
        "stencil_updates": stencil_updates,
        "mma_total": mma_total,
        "mma_per_point": mma_total / n_points if n_points else 0.0,
        "achieved_mma_per_s": mma_total / elapsed if elapsed > 0.0 else 0.0,
        "achieved_gstencils_per_s": achieved_gst,
        "model_gstencils_per_s": model.gstencils_per_s,
        "model_attainment": (
            achieved_gst / model.gstencils_per_s
            if model.gstencils_per_s > 0.0
            else 0.0
        ),
        "model_bound": model.bound,
        "stencil2row_factor": stencil2row_expansion_factor(kernel.edge),
        "im2row_factor": im2row_expansion_factor(kernel),
        "memory_saving_vs_im2row": memory_saving_vs_im2row(
            kernel.points, kernel.edge
        ),
    }
    return counters
