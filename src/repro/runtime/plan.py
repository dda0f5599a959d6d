"""Execution plans: everything shape-invariant, precomputed once (§3.4).

The paper's host side precomputes lookup tables and weight matrices once
and reuses them across every time iteration (§3.4, Table 5).  An
:class:`ExecutionPlan` is that idea applied to the whole runtime: for a
``(kernel, grid_shape, boundary, fusion_depth)`` key it captures

* the fused/base **pass kernels** and their halo geometry,
* an execution **strategy** per pass: ``"gemm"`` (dual tessellation,
  handed to the backend), ``"direct"`` (shifted adds) or ``"toeplitz"``
  (banded Toeplitz GEMMs over strided views), the last two run by the
  pass sequencer.  A fixed rule over the kernel's weights picks
  ``direct`` or ``toeplitz`` (:func:`choose_strategy`); ``gemm`` is
  reached only by pinning,
* for a ``gemm`` pass, the **GEMM tables** its engine reads: the
  stencil2row gather-offset LUT and the triangular weight matrices (1-D
  pairs, 2-D blocks, 3-D per-plane blocks + plane decomposition),
* for a ``toeplitz`` pass, the **band table**: one banded Toeplitz
  matrix per nonzero kernel row (:func:`~repro.core.toeplitz.band_matrices`).

Tables are built only where they are read.  A ``direct`` pass reads
none, so its plan carries none; if a ``direct`` or ``toeplitz`` pass is
handed to a backend explicitly (a benchmark sweep timing every engine
on one pass), the backend's :meth:`PassPlan.ensure_tables` builds the
GEMM tables on that first use and keeps them on the pass.

Plans are reusable: engines receive the precomputed tables explicitly,
so a 50-step run builds every table exactly once (via the
:class:`~repro.runtime.cache.PlanCache`) instead of once per pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.core.engine3d import plane_decomposition
from repro.core.fusion import FusionPlan, plan_fusion
from repro.core.stencil2row import stencil2row_offsets, stencil2row_shape
from repro.core.toeplitz import band_matrices
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
    """Precomputed state for one pass of one kernel.

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
    #: The GEMM tables, set for a ``gemm`` pass and ``None`` on a
    #: ``direct`` pass until :meth:`ensure_tables` builds them.
    #: Stencil2row gather LUT (1-D/2-D: for the pass kernel; 3-D: for the
    #: 2-D planes).
    offsets: Optional[np.ndarray] = None
    #: Triangular weight matrices: 1-D ``(WA, WB)``; 2-D ``(WA3, WB3)``.
    weights: Optional[tuple] = None
    #: 3-D only: precomputed plane decomposition of the pass kernel.
    planes: Optional[tuple] = None
    #: 3-D only: ``dz`` → 2-D weight blocks for the dense planes.
    weights_by_plane: Optional[Dict[int, tuple]] = None
    #: ``toeplitz`` only: leading kernel offset → banded Toeplitz matrix
    #: of that kernel row, for the nonzero rows.
    bands: Optional[Dict[Tuple[int, ...], np.ndarray]] = None
    #: How the pass runs, set by :func:`choose_strategy` unless pinned:
    #: ``"gemm"`` hands it to the backend's dual-tessellation engine;
    #: ``"direct"`` and ``"toeplitz"`` run the shifted-add kernel and the
    #: banded GEMMs in the pass sequencer.
    strategy: str = "gemm"

    @property
    def ndim(self) -> int:
        return self.kernel.ndim

    def ensure_tables(self) -> "PassPlan":
        """This pass, with its GEMM tables built if it has none yet.

        Backends that read the tables call this first, so a ``direct``
        pass handed to one explicitly builds them once, on first use, and
        keeps them.  The tables are a pure function of the pass, so two
        threads racing here store equal values; ``offsets`` is stored
        last, so a reader that sees it sees the rest.
        """
        if self.offsets is None:
            tables = _gemm_tables(self.kernel, self.padded_shape)
            for name in ("weights", "planes", "weights_by_plane", "offsets"):
                object.__setattr__(self, name, tables[name])
        return self


#: The execution strategies a pass can carry.
STRATEGIES = ("gemm", "direct", "toeplitz")

#: Least weight score (defined in :func:`choose_strategy`) at which a
#: 2-D or 3-D pass runs faster as banded GEMMs than as shifted adds.
#: Fitted to ``benchmarks/results/strategy_crossover.json``.
_TOEPLITZ_MIN_SCORE = 8


def choose_strategy(kernel: StencilKernel, grid_shape: Tuple[int, ...]) -> str:
    """The strategy a pass of ``kernel`` over ``grid_shape`` runs with.

    A pure function of the kernel's weights, so every process picks the
    same plan (``grid_shape`` is part of the signature; no fitted
    threshold depends on it).  A direct pass pays one shifted add per
    nonzero weight; a banded pass multiplies the whole weight box, of
    which only the nonzero share is useful.  The weight score is their
    product, ``nonzero² / volume`` (box-2d49p and box-2d9p-x3 49,
    box-3d27p 27, box-2d25p 25, heat-2d-x3 12.8, box-2d9p 9, heat-2d 2.8,
    star-2d13p 3.4).  A 2-D or 3-D pass at or above
    :data:`_TOEPLITZ_MIN_SCORE` runs ``toeplitz``; every other pass,
    1-D included (its blocks overlap in memory, which BLAS cannot read in
    place), runs ``direct``, the simpler path with the reference
    stencil's bits.  Dual tessellation (``gemm``) is never chosen: on a
    CPU its gather and window copy lose to both.
    """
    if kernel.ndim > 1 and kernel.points**2 >= _TOEPLITZ_MIN_SCORE * kernel.volume:
        return "toeplitz"
    return "direct"


def _gemm_tables(kernel: StencilKernel, padded_shape: Tuple[int, ...]) -> dict:
    """The tables a dual-tessellation engine reads for one pass."""
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
    return {
        "offsets": offsets,
        "weights": weights,
        "planes": planes,
        "weights_by_plane": weights_by_plane,
    }


def _build_pass(
    kernel: StencilKernel,
    grid_shape: Tuple[int, ...],
    strategy: Optional[str] = None,
) -> PassPlan:
    halo = kernel.radius
    padded_shape = tuple(s + 2 * halo for s in grid_shape)
    strategy = strategy or choose_strategy(kernel, grid_shape)
    if strategy == "gemm":
        tables = _gemm_tables(kernel, padded_shape)
    elif strategy == "toeplitz":
        tables = {"bands": band_matrices(kernel)}
    else:
        tables = {}
    return PassPlan(
        kernel=kernel,
        grid_shape=tuple(grid_shape),
        halo=halo,
        padded_shape=padded_shape,
        strategy=strategy,
        **tables,
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
        """Approximate footprint of the tables built so far (cache
        telemetry): GEMM tables and bands; ``0`` for a plan of ``direct``
        passes."""
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
            total += sum(band.nbytes for band in (pp.bands or {}).values())
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
