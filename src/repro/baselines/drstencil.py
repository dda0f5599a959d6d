"""DRStencil baseline: fusion-partition stencil on CUDA cores (§5.1, §5.4).

DRStencil [You et al., HPCC'21] accelerates low-order stencils by *fusing*
several time steps into one generated kernel and *partitioning* the fused
computation across thread blocks to maximise register-level data reuse.
This engine reproduces that execution strategy: a ``fuse_steps``-fold kernel
composition applied per pass over a spatial tile partition, each tile
reading a ``fuse_steps·r`` ghost zone.

``DRStencil(fuse_steps=3)`` is the paper's DRStencil-T3 comparison point
(Figure 8).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import StencilBaseline
from repro.errors import BaselineError
from repro.stencils.grid import BoundaryCondition, pad_halo
from repro.stencils.kernel import StencilKernel
from repro.stencils.reference import apply_stencil_reference

__all__ = ["DRStencil"]


class DRStencil(StencilBaseline):
    """Fusion-partition stencil execution (DRStencil / DRStencil-T3)."""

    name = "drstencil"

    def __init__(self, fuse_steps: int = 1, tile_edge: int = 64) -> None:
        if fuse_steps < 1:
            raise BaselineError(f"fuse_steps must be >= 1, got {fuse_steps}")
        if tile_edge < 1:
            raise BaselineError(f"tile_edge must be >= 1, got {tile_edge}")
        self.fuse_steps = fuse_steps
        self.tile_edge = tile_edge
        if fuse_steps > 1:
            self.name = f"drstencil-t{fuse_steps}"

    def _fused_pass(
        self,
        data: np.ndarray,
        fused: StencilKernel,
        boundary: BoundaryCondition,
        fill_value: float,
    ) -> np.ndarray:
        """One fused pass over the spatial tile partition."""
        r = fused.radius
        padded = pad_halo(data, r, boundary, fill_value)
        out = np.empty_like(data)
        edge = self.tile_edge
        for idx in np.ndindex(*tuple(-(-s // edge) for s in data.shape)):
            starts = tuple(i * edge for i in idx)
            stops = tuple(min(s + edge, d) for s, d in zip(starts, data.shape))
            ghost = tuple(
                slice(s, e + 2 * r) for s, e in zip(starts, stops)
            )
            tile = apply_stencil_reference(
                padded[ghost], fused, BoundaryCondition.CONSTANT, 0.0
            )
            core = tuple(
                slice(r, r + (e - s)) for s, e in zip(starts, stops)
            )
            out[tuple(slice(s, e) for s, e in zip(starts, stops))] = tile[core]
        return out

    def _step(
        self,
        data: np.ndarray,
        kernel: StencilKernel,
        boundary: BoundaryCondition,
        fill_value: float,
    ) -> np.ndarray:
        return self._fused_pass(data, kernel, boundary, fill_value)

    def run(
        self,
        data: np.ndarray,
        kernel: StencilKernel,
        *,
        steps: int = 1,
        boundary: BoundaryCondition | str = BoundaryCondition.CONSTANT,
        fill_value: float = 0.0,
    ) -> np.ndarray:
        """Advance ``steps`` steps, fusing ``fuse_steps`` at a time.

        Any remainder (``steps % fuse_steps``) runs unfused so the requested
        step count is honoured exactly — the same policy the ConvStencil API
        uses for its own temporal fusion.
        """
        if steps < 0:
            raise BaselineError(f"steps must be non-negative, got {steps}")
        boundary = BoundaryCondition(boundary)
        out = np.asarray(data, dtype=np.float64)
        fused_passes, remainder = divmod(steps, self.fuse_steps)
        fused_kernel = kernel.fuse(self.fuse_steps)
        for _ in range(fused_passes):
            out = self._fused_pass(out, fused_kernel, boundary, fill_value)
        for _ in range(remainder):
            out = self._fused_pass(out, kernel, boundary, fill_value)
        return out

    def ghost_overhead(self, kernel: StencilKernel) -> float:
        """Redundant ghost-zone read fraction of the fusion-partition scheme.

        Each tile of edge ``B`` reads ``(B + 2·T·r)^d / B^d`` of its share —
        the cost that bounds how deep fusing can profitably go.
        """
        b = float(self.tile_edge)
        halo = 2.0 * self.fuse_steps * kernel.radius
        return ((b + halo) / b) ** kernel.ndim
