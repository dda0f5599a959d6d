"""Shared spec extraction for every code emitter (CUDA text, compiled Python).

Both generators lower the *same* planner facts — kernel edge, group width
``g = k + 1`` and the Eq.-13 fragment chunking of the contraction
dimension — into target-specific text (the 4×8 weight fragments come from
:func:`repro.core.chunks.weight_fragments`, which the simulator shares).
This module is the single source of those facts so the emitters cannot
drift apart: the CUDA generator's ``CudaKernelSpec`` constants and the
``compiled`` backend's :class:`~repro.runtime.plan.ExecutionPlan`-derived
geometry are both views of one :class:`GemmSpec` (the spec-consistency
tests pin this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.core.chunks import chunk_plan
from repro.errors import TessellationError
from repro.stencils.kernel import StencilKernel

__all__ = ["GemmSpec", "gemm_spec", "gemm_spec_from_pass"]


@dataclass(frozen=True)
class GemmSpec:
    """Target-independent GEMM geometry of one (fused) stencil kernel.

    The dual tessellation contracts ``contraction_rows`` weight rows
    (``k`` in 1-D, ``k²`` in 2-D and per 3-D conv2d plane) against the
    ``group``-wide triangular matrices; ``chunk_starts`` is the Eq.-13
    decomposition of that dimension into 4-row m8n8k4 fragments, the
    final chunk overlapping instead of overshooting.
    """

    edge: int
    group: int
    contraction_rows: int
    chunk_starts: Tuple[int, ...]
    chunk_zero_prefixes: Tuple[int, ...]

    @property
    def chunks(self) -> int:
        """Fragment chunks per tessellation matrix (``ceil(rows/4)``)."""
        return len(self.chunk_starts)

    @property
    def mma_per_tile(self) -> int:
        """``mma_sync`` count per output tile: Eq. 13's ``2 · ceil(k²/4)``
        in 2-D (one chain per tessellation matrix)."""
        return 2 * self.chunks


def gemm_spec(kernel: StencilKernel) -> GemmSpec:
    """The :class:`GemmSpec` of an already-fused kernel.

    1-D kernels contract ``edge`` rows, 2-D (and the conv2d planes of a
    3-D decomposition) contract ``edge²``.
    """
    k, g = kernel.edge, kernel.edge + 1
    if g > 8:
        raise TessellationError(
            f"fused edge {k} exceeds one m8n8k4 fragment column block"
        )
    rows = k if kernel.ndim == 1 else k * k
    plan = chunk_plan(rows)
    return GemmSpec(
        edge=k,
        group=g,
        contraction_rows=rows,
        chunk_starts=tuple(s for s, _ in plan),
        chunk_zero_prefixes=tuple(z for _, z in plan),
    )


def gemm_spec_from_pass(pp) -> GemmSpec:
    """The :class:`GemmSpec` a :class:`~repro.runtime.plan.PassPlan` implies.

    3-D passes execute their dense planes as batched 2-D tessellations
    (§4.2), so their GEMM geometry is the 2-D spec of the plane edge.

    Unlike :func:`gemm_spec`, this never enforces the m8n8k4 column-block
    width: the ``compiled`` Python target has no fragment-width limit, so
    a deeply fused pass whose group exceeds 8 is still compilable (the
    CUDA emitter, which *is* limited, goes through :func:`gemm_spec`).
    """
    kernel = pp.kernel
    k, g = kernel.edge, kernel.edge + 1
    rows = k if pp.ndim == 1 else k * k
    plan = chunk_plan(rows)
    return GemmSpec(
        edge=k,
        group=g,
        contraction_rows=rows,
        chunk_starts=tuple(s for s, _ in plan),
        chunk_zero_prefixes=tuple(z for _, z in plan),
    )
