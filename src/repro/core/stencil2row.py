"""The stencil2row layout transformation (paper §3.2, Figure 2, Eq. 5–11).

stencil2row replaces the redundancy-laden im2row matrix with **two** compact
matrices A and B.  With kernel edge ``k`` and group width ``g = k + 1``:

* input columns are partitioned into groups of ``g`` consecutive columns;
* matrix **A** row ``r`` holds, for every input row ``x``, the first ``k``
  columns of group ``r`` (the column ``y ≡ k (mod g)`` is skipped);
* matrix **B** row ``r`` holds the ``k`` columns starting at offset ``k`` of
  group ``r`` (the column ``y ≡ k-1 (mod g)`` is skipped).

Each matrix has ``n/g`` rows of ``k·m`` elements (Eq. 7/8), so together they
occupy ``2k/(k+1)`` of the input — a 70–96 % reduction versus im2row
(Eq. 11, Table 3).

Two in-memory representations are provided:

* the *paper layout* — 2-D matrices of shape ``(rows, k·m)`` whose column
  index is ``k·x + offset`` exactly as in Eq. 5/6 (used by the simulated
  Tensor-Core path and by the mapping property tests);
* *grouped views* — 3-D gathers of shape ``(m, rows, k)`` that the vectorised
  dual-tessellation engine consumes directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro import telemetry
from repro.errors import LayoutError
from repro.utils.arrays import ceil_div

__all__ = [
    "Stencil2RowLayout",
    "stencil2row_a_index",
    "stencil2row_b_index",
    "stencil2row_expansion_factor",
    "stencil2row_matrices_1d",
    "stencil2row_matrices_2d",
    "stencil2row_offsets",
    "stencil2row_shape",
    "stencil2row_views_2d",
    "stencil2row_views_batched",
    "memory_saving_vs_im2row",
]


def stencil2row_a_index(x: int, y: int, edge: int) -> tuple:
    """Eq. 5: map input index ``(x, y)`` to its slot in stencil2row matrix A.

    Defined only when ``(y + 1) mod (edge + 1) != 0``; raises otherwise
    (that residue is the column A skips — it lives in matrix B).
    """
    g = edge + 1
    if (y + 1) % g == 0:
        raise LayoutError(
            f"input column {y} (edge {edge}) is not mapped by stencil2row A"
        )
    return (y // g, edge * x + y % g)


def stencil2row_b_index(x: int, y: int, edge: int) -> tuple:
    """Eq. 6: map input index ``(x, y)`` to its slot in stencil2row matrix B.

    Defined only when ``y >= edge`` and ``(y - edge + 1) mod (edge + 1) != 0``.
    """
    g = edge + 1
    if y < edge or (y - edge + 1) % g == 0:
        raise LayoutError(
            f"input column {y} (edge {edge}) is not mapped by stencil2row B"
        )
    return ((y - edge) // g, edge * x + (y - edge) % g)


def stencil2row_shape(input_shape: tuple, edge: int) -> tuple:
    """Shape ``(rows, cols)`` of *each* stencil2row matrix (Eq. 7/8).

    For a 2-D input of shape ``(m, n)``: ``rows = ceil(n / (edge+1))`` column
    groups and ``cols = edge * m``.  For 1-D input of length ``n``:
    ``rows = ceil(n / (edge+1))``, ``cols = edge``.
    """
    g = edge + 1
    if len(input_shape) == 1:
        return ceil_div(input_shape[0], g), edge
    if len(input_shape) == 2:
        m, n = input_shape
        return ceil_div(n, g), edge * m
    raise LayoutError(f"stencil2row defined for 1-D/2-D inputs, got {input_shape}")


def _extend_columns(padded: np.ndarray, needed: int) -> np.ndarray:
    """Zero-extend the last axis to ``needed`` columns (the dirty zone).

    Matrix B's final group may reach past the input's last column; rather than
    branch per element (the conflict §3.4 removes), the layout always gathers
    from a zero-filled extension, mirroring the dirty-bits-padding design.
    """
    n = padded.shape[-1]
    if needed <= n:
        return padded
    pad = [(0, 0)] * (padded.ndim - 1) + [(0, needed - n)]
    return np.pad(padded, pad, mode="constant")


def stencil2row_matrices_1d(
    padded: np.ndarray, edge: int, offsets: np.ndarray | None = None
) -> tuple:
    """Build the paper-layout 1-D stencil2row matrices ``(A, B)``.

    ``A[r, i] = padded[r*(edge+1) + i]`` and
    ``B[r, u] = padded[r*(edge+1) + edge + u]`` for ``i, u in [0, edge)``.
    ``offsets`` may supply a precomputed :func:`stencil2row_offsets` LUT
    (an :class:`~repro.runtime.ExecutionPlan` does, so a time loop never
    rebuilds it).
    """
    padded = np.asarray(padded, dtype=np.float64)
    if padded.ndim != 1:
        raise LayoutError(f"expected 1-D input, got {padded.ndim}-D")
    with telemetry.span(
        "stencil2row", stage="matrices-1d", shape=padded.shape, edge=edge
    ):
        g = edge + 1
        rows, _ = stencil2row_shape(padded.shape, edge)
        ext = _extend_columns(padded, (rows - 1) * g + 2 * edge)
        if offsets is None:
            offsets = stencil2row_offsets(rows, edge)
        a = ext[offsets]
        b = ext[offsets + edge]
        return a, b


def stencil2row_matrices_2d(padded: np.ndarray, edge: int) -> tuple:
    """Build the paper-layout 2-D stencil2row matrices ``(A, B)``.

    Row ``r``, column ``edge*x + i`` of A holds ``padded[x, r*(edge+1) + i]``
    (Eq. 5); B is offset by ``edge`` input columns (Eq. 6).  Shapes follow
    :func:`stencil2row_shape`.
    """
    padded = np.asarray(padded, dtype=np.float64)
    if padded.ndim != 2:
        raise LayoutError(f"expected 2-D input, got {padded.ndim}-D")
    a3, b3 = stencil2row_views_2d(padded, edge)
    m = padded.shape[0]
    rows = a3.shape[1]
    # (m, rows, edge) -> (rows, m*edge) with column index edge*x + i
    a = a3.transpose(1, 0, 2).reshape(rows, m * edge)
    b = b3.transpose(1, 0, 2).reshape(rows, m * edge)
    return a, b


def stencil2row_views_batched(
    stack: np.ndarray, edge: int, offsets: np.ndarray | None = None
) -> tuple:
    """Grouped gathers ``(A3, B3)`` of shape ``(batch, m, rows, edge)``.

    ``A3[b, x, r, i] = stack[b, x, r*(edge+1) + i]``: one fancy-indexed
    gather covers every slice of a ``(batch, m, n)`` stack; it is the one
    2-D gather (:func:`stencil2row_views_2d` is its batch of one).
    Living here (not inlined in the engine) keeps the layout
    transform attributable to the stencil2row stage — spans *and* the
    obs sampling profiler's frame-based phase attribution see it.
    """
    stack = np.asarray(stack, dtype=np.float64)
    if stack.ndim != 3:
        raise LayoutError(f"expected (batch, m, n) input, got {stack.ndim}-D")
    with telemetry.span(
        "stencil2row", stage="views-2d", shape=stack.shape, edge=edge
    ):
        g = edge + 1
        rows, _ = stencil2row_shape(stack.shape[1:], edge)
        ext = _extend_columns(stack, (rows - 1) * g + 2 * edge)
        if offsets is None:
            offsets = stencil2row_offsets(rows, edge)
        a3 = ext[:, :, offsets]
        b3 = ext[:, :, offsets + edge]
        return a3, b3


@lru_cache(maxsize=256)
def stencil2row_offsets(rows: int, edge: int) -> np.ndarray:
    """Gather-offset LUT ``cols[r, i] = r*(edge+1) + i`` for matrix A.

    Matrix B gathers from ``cols + edge``.  This is the host-precomputed
    lookup table of §3.4 in index form: cached per ``(rows, edge)`` and also
    stored inside :class:`~repro.runtime.ExecutionPlan` so a time loop over
    a fixed grid shape reuses the same gather indices every pass.
    """
    g = edge + 1
    cols = np.arange(rows)[:, None] * g + np.arange(edge)[None, :]
    cols.setflags(write=False)
    return cols


def stencil2row_views_2d(
    padded: np.ndarray, edge: int, offsets: np.ndarray | None = None
) -> tuple:
    """Grouped gathers ``(A3, B3)`` of shape ``(m, rows, edge)``.

    ``A3[x, r, i] = padded[x, r*(edge+1) + i]`` — the same data as the paper
    layout, shaped for the vectorised dual-tessellation stacked matmul: the
    batch of one of :func:`stencil2row_views_batched`.  ``offsets`` may
    supply a precomputed :func:`stencil2row_offsets` LUT.
    """
    padded = np.asarray(padded, dtype=np.float64)
    if padded.ndim != 2:
        raise LayoutError(f"expected 2-D input, got {padded.ndim}-D")
    a3, b3 = stencil2row_views_batched(padded[None], edge, offsets)
    return a3[0], b3[0]


def stencil2row_expansion_factor(edge: int) -> float:
    """Memory-expansion multiple of *both* stencil2row matrices vs the input.

    ``2k/(k+1)``: 1.5 for k=3, ≈1.67 for k=5, 1.75 for k=7 (Table 3 column
    "stencil2row").
    """
    if edge < 1:
        raise LayoutError(f"edge must be positive, got {edge}")
    return 2.0 * edge / (edge + 1.0)


def memory_saving_vs_im2row(points: int, edge: int) -> float:
    """Fractional memory saved by stencil2row relative to im2row (Table 3).

    im2row expands by ``points`` (one column per stencil point); stencil2row
    by ``2k/(k+1)`` regardless of sparsity.  Heat-2D → 70.00 %, Box-2D49P →
    96.43 %.
    """
    return 1.0 - stencil2row_expansion_factor(edge) / float(points)


@dataclass(frozen=True)
class Stencil2RowLayout:
    """Static description of a stencil2row layout for a given problem.

    Bundles the shape arithmetic used by the engines, the performance model,
    and the footprint benchmarks so they cannot drift apart.
    """

    input_shape: tuple
    edge: int

    @property
    def group(self) -> int:
        """Column-group width ``g = edge + 1``."""
        return self.edge + 1

    @property
    def matrix_shape(self) -> tuple:
        """Shape of each of the two stencil2row matrices."""
        return stencil2row_shape(self.input_shape, self.edge)

    @property
    def total_elements(self) -> int:
        """Elements stored across both matrices."""
        r, c = self.matrix_shape
        return 2 * r * c

    @property
    def expansion_factor(self) -> float:
        """Exact expansion of this concrete layout (≈ ``2k/(k+1)``)."""
        return self.total_elements / float(np.prod(self.input_shape))
