"""Structural ConvStencil performance model (Eq. 13/14 + §3.3 analysis).

Everything here is derived from the algorithm's structure:

* MMA count per pass — Eq. 13, generalised to 1-D rows, multi-block
  fragment widths (edge > 7) and 3-D plane decomposition;
* memory traffic per pass — one global read + one global write of the grid
  (stencil2row is implicit, §3.2), plus ``2k/(k+1)`` shared writes and
  ``2k²/(k+1)`` shared reads per point (§3.3 memory analysis);
* Eq. 2 core time, scaled by the calibrated roofline-achievement factor
  and a block-occupancy saturation curve for small grids.

Throughput is reported in the paper's GStencils/s metric (Eq. 16), counting
``fusion_depth`` time steps per pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.core.engine3d import plane_decomposition
from repro.core.fusion import plan_fusion
from repro.errors import ModelError
from repro.gpu.specs import A100, DeviceSpec
from repro.model.calibration import (
    CONVSTENCIL_HALF_SAT,
    KERNEL_LAUNCH_OVERHEAD,
    convstencil_efficiency,
)
from repro.model.perf_model import InstructionMix, MemoryTraffic, t_compute, t_memory
from repro.stencils.kernel import StencilKernel
from repro.utils.arrays import ceil_div

__all__ = [
    "ThroughputEstimate",
    "convstencil_mma_count",
    "convstencil_pass_time",
    "convstencil_throughput",
    "mma_per_point_2d",
]


def mma_per_point_2d(edge: int) -> float:
    """Eq. 13 normalised per grid point: ``2·⌈k²/4⌉·⌈(k+1)/8⌉ / (8(k+1))``.

    The ``⌈(k+1)/8⌉`` factor extends the paper's formula (which assumes the
    weight matrix fits one 8-column fragment, k ≤ 7) to wider kernels.
    """
    if edge < 1:
        raise ModelError(f"edge must be positive, got {edge}")
    g = edge + 1
    return 2.0 * ceil_div(edge * edge, 4) * ceil_div(g, 8) / (8.0 * g)


def _mma_per_point_1d(edge: int) -> float:
    """1-D analogue: tiles are 8×k, so ``⌈k/4⌉`` chunks per matrix."""
    g = edge + 1
    return 2.0 * ceil_div(edge, 4) * ceil_div(g, 8) / (8.0 * g)


def _plane_bounding_edge(plane: np.ndarray) -> int:
    """Edge of the nonzero bounding box of a 3-D kernel's 2-D plane."""
    nz = np.argwhere(plane != 0.0)
    if nz.size == 0:
        return 0
    spans = nz.max(axis=0) - nz.min(axis=0) + 1
    return int(spans.max())


def _mma_fma_per_point_3d(kernel: StencilKernel) -> Tuple[float, float]:
    """Per-output-point (MMA, CUDA-FMA) counts of the §4.2 decomposition.

    Dense planes run dual tessellation at their bounding-box edge; planes
    with a single point are CUDA-core AXPYs.
    """
    mma = 0.0
    fma = 0.0
    for _, kind, payload in plane_decomposition(kernel):
        if kind == "skip":
            continue
        if kind == "axpy":
            fma += 1.0
        else:
            edge = _plane_bounding_edge(payload.weights)
            if edge <= 1:
                fma += 1.0
            else:
                mma += mma_per_point_2d(edge)
    return mma, fma


def convstencil_mma_count(kernel: StencilKernel, n_points: int) -> float:
    """Total FP64 MMAs for one pass over ``n_points`` grid points (Eq. 13)."""
    if n_points <= 0:
        raise ModelError(f"n_points must be positive, got {n_points}")
    if kernel.ndim == 1:
        return _mma_per_point_1d(kernel.edge) * n_points
    if kernel.ndim == 2:
        return mma_per_point_2d(kernel.edge) * n_points
    return _mma_fma_per_point_3d(kernel)[0] * n_points


@dataclass(frozen=True)
class ThroughputEstimate:
    """One system's modelled performance on one problem."""

    system: str
    kernel_name: str
    grid_points: int
    time_per_pass: float
    steps_per_pass: int
    gstencils_per_s: float
    bound: str

    @property
    def time_per_step(self) -> float:
        return self.time_per_pass / self.steps_per_pass


def convstencil_pass_time(
    kernel: StencilKernel, n_points: int, spec: DeviceSpec = A100
) -> Tuple[float, str]:
    """Ideal (roofline) time of one dual-tessellation pass and its binding
    resource (``"compute"`` or ``"memory"``).

    ``kernel`` is the *executed* (possibly fused) kernel.
    """
    k = kernel.edge
    g = k + 1
    if kernel.ndim == 3:
        mma_pp, fma_pp = _mma_fma_per_point_3d(kernel)
        dense_planes = sum(
            1 for _, kind, _ in plane_decomposition(kernel) if kind == "conv2d"
        )
        shared_scale = max(dense_planes, 1)
    else:
        mma_pp = convstencil_mma_count(kernel, 1)
        fma_pp = 0.0
        shared_scale = 1
    mix = InstructionMix(
        mma_fp64=int(round(mma_pp * n_points)), fma_fp64=int(round(fma_pp * n_points))
    )
    traffic = MemoryTraffic(
        global_read=8.0 * n_points,
        global_write=8.0 * n_points,
        shared_write=shared_scale * (2.0 * k / g) * 8.0 * n_points,
        shared_read=shared_scale * (2.0 * k * k / g) * 8.0 * n_points,
    )
    tc = t_compute(mix, spec)
    tm = t_memory(traffic, spec)
    return max(tc, tm), ("compute" if tc >= tm else "memory")


def _saturation(n_points: int, half_sat: float) -> float:
    """Occupancy factor: large grids fill all SMs, tiny grids do not."""
    return n_points / (n_points + half_sat)


def convstencil_throughput(
    kernel: StencilKernel,
    shape: Tuple[int, ...],
    spec: DeviceSpec = A100,
    fusion: int | str = "auto",
    saturated: bool = False,
) -> ThroughputEstimate:
    """Modelled ConvStencil throughput (GStencils/s, Eq. 16) on a grid.

    ``saturated=True`` reports the large-grid plateau (used as the anchor
    for baseline ratios); otherwise occupancy and launch overhead reduce
    throughput on small grids — including the ×64-tiling fluctuation the
    paper observes on 3-D sweeps.
    """
    if len(shape) != kernel.ndim:
        raise ModelError(
            f"{kernel.ndim}-D kernel given a {len(shape)}-D problem shape"
        )
    n_points = int(np.prod(shape))
    plan = plan_fusion(kernel, fusion)
    ideal, bound = convstencil_pass_time(plan.fused, n_points, spec)
    eta = convstencil_efficiency(kernel.name)
    time = ideal / eta
    if not saturated:
        sat = _saturation(n_points, CONVSTENCIL_HALF_SAT[kernel.ndim])
        if kernel.ndim == 3 and shape[0] % 64 != 0:
            # spatial tiling is 64-wide; ragged extents waste partial tiles
            sat *= 0.93
        time = time / sat + KERNEL_LAUNCH_OVERHEAD
    gst = plan.depth * n_points / time / 1e9
    return ThroughputEstimate(
        system="convstencil",
        kernel_name=kernel.name,
        grid_points=n_points,
        time_per_pass=time,
        steps_per_pass=plan.depth,
        gstencils_per_s=gst,
        bound=bound,
    )
