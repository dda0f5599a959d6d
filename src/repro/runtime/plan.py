"""Execution plans: everything shape-invariant, precomputed once (§3.4).

The paper's host side precomputes lookup tables and weight matrices once
and reuses them across every time iteration (§3.4, Table 5).  An
:class:`ExecutionPlan` is that idea applied to the whole runtime: for a
``(kernel, grid_shape, boundary, fusion_depth)`` key it captures

* the fused/base **pass kernels** and their halo geometry,
* the stencil2row **gather-offset LUTs** per pass,
* the triangular **weight matrices** (1-D pairs, 2-D blocks, 3-D
  per-plane blocks + plane decomposition),
* an execution **strategy** per pass: ``"gemm"`` (dual tessellation,
  handed to the backend) or ``"direct"`` (shifted adds, run by the pass
  sequencer), chosen by a fixed rule over the kernel's weights and the
  grid size (:func:`choose_strategy`).

Plans are immutable and reusable: engines receive the precomputed tables
explicitly, so a 50-step run builds every table exactly once (via the
:class:`~repro.runtime.cache.PlanCache`) instead of once per pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.core.engine3d import plane_decomposition
from repro.core.fusion import FusionPlan, plan_fusion
from repro.core.stencil2row import stencil2row_offsets, stencil2row_shape
from repro.core.weights import weight_blocks_2d, weight_matrices_1d
from repro.errors import KernelError
from repro.stencils.grid import BoundaryCondition
from repro.stencils.kernel import StencilKernel

__all__ = [
    "STRATEGIES",
    "ExecutionPlan",
    "PassPlan",
    "build_plan",
    "choose_strategy",
    "plan_key",
]


def plan_key(
    kernel: StencilKernel,
    grid_shape: Tuple[int, ...],
    boundary: BoundaryCondition,
    fusion_depth: int,
) -> tuple:
    """Cache key of a plan.

    Kernels hash by identity (they are immutable and interned per
    :class:`~repro.core.api.ConvStencil` instance), so the key is cheap and
    collision-free.
    """
    return (kernel, tuple(grid_shape), BoundaryCondition(boundary), int(fusion_depth))


@dataclass(frozen=True)
class PassPlan:
    """Precomputed state for one dual-tessellation pass of one kernel.

    Everything here depends only on the kernel and the grid shape — never
    on the grid values — so it is computed once per plan and shared by all
    backends and every time step.
    """

    kernel: StencilKernel
    grid_shape: Tuple[int, ...]
    #: Halo width the pass reads (``kernel.radius``).
    halo: int
    #: Shape of the halo-padded input the engines consume.
    padded_shape: Tuple[int, ...]
    #: Stencil2row gather LUT (1-D/2-D: for the pass kernel; 3-D: for the
    #: 2-D planes).  ``None`` only when the pass needs no gather (pure-axpy
    #: 3-D planes).
    offsets: Optional[np.ndarray] = None
    #: Triangular weight matrices: 1-D ``(WA, WB)``; 2-D ``(WA3, WB3)``.
    weights: Optional[tuple] = None
    #: 3-D only: precomputed plane decomposition of the pass kernel.
    planes: Optional[tuple] = None
    #: 3-D only: ``dz`` → 2-D weight blocks for the dense planes.
    weights_by_plane: Optional[Dict[int, tuple]] = None
    #: How the pass runs, set by :func:`choose_strategy` unless pinned:
    #: ``"gemm"`` hands it to the backend's dual-tessellation engine;
    #: ``"direct"`` runs the shifted-add kernel in the pass sequencer.
    #: Both keep the tables above, so a ``direct`` pass can still be
    #: handed to a backend explicitly.
    strategy: str = "gemm"

    @property
    def ndim(self) -> int:
        return self.kernel.ndim


#: The execution strategies a pass can carry.
STRATEGIES = ("gemm", "direct")

#: (least weight score, largest grid in points) where a 2-D pass runs
#: faster as a GEMM than as shifted adds; the score is defined in
#: :func:`choose_strategy`.  Fitted to
#: ``benchmarks/results/strategy_crossover.json``.
_GEMM_MAX_POINTS = ((49, 1 << 15), (12, 1 << 11))


def choose_strategy(kernel: StencilKernel, grid_shape: Tuple[int, ...]) -> str:
    """The strategy a pass of ``kernel`` over ``grid_shape`` runs with.

    A pure function of the kernel's weights and the grid shape, so every
    process picks the same plan.  A direct pass pays one shifted add per
    nonzero weight; a GEMM pass multiplies the whole weight box, of which
    only the nonzero share is useful.  The weight score is their product,
    ``nonzero² / volume`` (box-2d49p 49, box-2d25p 25, heat-2d-x3 12.8,
    star-2d13p 3.4).  Only a 2-D pass with a high score on a small grid
    repays the stencil2row gather and window copy; every other pass is
    ``direct``, the simpler path with the reference stencil's bits.
    """
    if kernel.ndim == 2:
        square = kernel.points**2
        points = int(np.prod(grid_shape, dtype=np.int64))
        for score, limit in _GEMM_MAX_POINTS:
            if square >= score * kernel.volume:
                return "gemm" if points <= limit else "direct"
    return "direct"


def _build_pass(
    kernel: StencilKernel,
    grid_shape: Tuple[int, ...],
    strategy: Optional[str] = None,
) -> PassPlan:
    halo = kernel.radius
    padded_shape = tuple(s + 2 * halo for s in grid_shape)
    k = kernel.edge
    offsets = weights = planes = weights_by_plane = None
    if kernel.ndim == 1:
        rows, _ = stencil2row_shape(padded_shape, k)
        offsets = stencil2row_offsets(rows, k)
        weights = weight_matrices_1d(kernel)
    elif kernel.ndim == 2:
        rows, _ = stencil2row_shape(padded_shape, k)
        offsets = stencil2row_offsets(rows, k)
        weights = weight_blocks_2d(kernel)
    else:
        planes = tuple(plane_decomposition(kernel))
        rows, _ = stencil2row_shape(padded_shape[1:], k)
        offsets = stencil2row_offsets(rows, k)
        weights_by_plane = {
            dz: weight_blocks_2d(payload)
            for dz, kind, payload in planes
            if kind == "conv2d"
        }
    return PassPlan(
        kernel=kernel,
        grid_shape=tuple(grid_shape),
        halo=halo,
        padded_shape=padded_shape,
        offsets=offsets,
        weights=weights,
        planes=planes,
        weights_by_plane=weights_by_plane,
        strategy=strategy or choose_strategy(kernel, grid_shape),
    )


@dataclass(frozen=True)
class ExecutionPlan:
    """All shape-invariant state for running one stencil on one grid shape.

    A plan covers both pass kernels a fused run needs: the ``fused`` pass
    (advancing ``depth`` steps at once) and the ``base`` pass (the unfused
    remainder).  ``passes_for(steps)`` yields the exact pass sequence that
    honours a requested step count.
    """

    key: tuple
    kernel: StencilKernel
    grid_shape: Tuple[int, ...]
    boundary: BoundaryCondition
    fusion: FusionPlan
    fused_pass: PassPlan
    base_pass: PassPlan

    @property
    def fusion_depth(self) -> int:
        return self.fusion.depth

    def passes_for(self, steps: int) -> Iterator[PassPlan]:
        """The pass sequence advancing exactly ``steps`` time steps."""
        if steps < 0:
            raise ValueError(f"steps must be non-negative, got {steps}")
        fused_passes, remainder = divmod(steps, self.fusion.depth)
        for _ in range(fused_passes):
            yield self.fused_pass
        for _ in range(remainder):
            yield self.base_pass

    @property
    def nbytes(self) -> int:
        """Approximate footprint of the precomputed tables (cache telemetry)."""
        total = 0
        passes = (
            (self.fused_pass,)
            if self.base_pass is self.fused_pass
            else (self.fused_pass, self.base_pass)
        )
        for pp in passes:
            for arr in (pp.offsets, *(pp.weights or ())):
                if isinstance(arr, np.ndarray):
                    total += arr.nbytes
            for pair in (pp.weights_by_plane or {}).values():
                total += sum(w.nbytes for w in pair)
        return total


def build_plan(
    kernel: StencilKernel,
    grid_shape: Tuple[int, ...],
    boundary: BoundaryCondition = BoundaryCondition.CONSTANT,
    fusion: "int | str | FusionPlan" = 1,
    *,
    strategy: Optional[str] = None,
) -> ExecutionPlan:
    """Construct an :class:`ExecutionPlan` (uncached — see ``plan_for``).

    ``fusion`` accepts a depth, ``"auto"``, or an already-resolved
    :class:`~repro.core.fusion.FusionPlan`.  Each pass's strategy comes
    from :func:`choose_strategy` unless ``strategy`` pins both
    passes — an internal hook for the verify harness and the static
    provers, which must cover each strategy.
    """
    grid_shape = tuple(int(s) for s in grid_shape)
    if kernel.ndim != len(grid_shape):
        raise KernelError(
            f"{kernel.ndim}-D kernel planned against {len(grid_shape)}-D shape"
        )
    if strategy is not None and strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    fplan = fusion if isinstance(fusion, FusionPlan) else plan_fusion(kernel, fusion)
    boundary = BoundaryCondition(boundary)
    fused_pass = _build_pass(fplan.fused, grid_shape, strategy)
    base_pass = (
        fused_pass
        if fplan.depth == 1
        else _build_pass(fplan.base, grid_shape, strategy)
    )
    return ExecutionPlan(
        key=plan_key(kernel, grid_shape, boundary, fplan.depth),
        kernel=kernel,
        grid_shape=grid_shape,
        boundary=boundary,
        fusion=fplan,
        fused_pass=fused_pass,
        base_pass=base_pass,
    )
