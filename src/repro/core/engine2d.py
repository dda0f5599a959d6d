"""Vectorised 2-D ConvStencil engine — dual tessellation (§3.3, Figure 3).

The engine evaluates, for every 8-row band of the stencil2row matrices and
every tile shift ``t`` (Eq. 12), the fused MMA chain::

    result = tile_A(t) @ WA + tile_B(t) @ WB

but vectorised over *all* bands and shifts at once: the stencil2row gathers
are shaped ``(m, R, k)``, a zero-copy sliding window adds the ``t`` axis, and
one GEMM per matrix contracts the flattened ``(x', i)`` patch axes against
the per-row triangular weight blocks.  The arithmetic is exactly the
dual-tessellation arithmetic — each output element is a vitrolite-A partial
sum completed by its vitrolite-B complement — evaluated in a cache-friendly
batched GEMM instead of a Python tile loop.

The contraction is an **explicit stacked matmul** — one
``(R, k²) @ (k², g)`` GEMM per tile shift — not an
``einsum(..., optimize=True)``: the einsum path optimiser switches
contraction strategies with operand *size*, which made per-grid bits
depend on the batch extent (and row-count tails made any flattening that
folds the shift axis into GEMM rows depend on the tile height).  The
differential harness in :mod:`repro.verify` flushed both out as
bit-identity breaks between backends.  With the GEMM's shape a pure
function of the grid *width*, results are invariant under axis-0
slicing, batch splitting, and the chunk parameter.  There is one engine
body, over a stack of grids: a single grid is the stack of one.

Memory is bounded by chunking the shift axis: each chunk materialises at
most ``chunk × R × k²`` window elements.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
# The engine gathers through stencil2row_views_batched, looked up at call
# time (below); perfbench/layers.py still times this name here.
from repro.core.stencil2row import stencil2row_views_2d
from repro.core.weights import weight_blocks_2d
from repro.errors import TessellationError
from repro.stencils.kernel import StencilKernel
from repro.utils.arrays import sliding_windows

__all__ = ["convstencil_valid_2d", "convstencil_valid_2d_batched"]

#: Tile shifts per stacked-matmul call; bounds the materialised window at
#: ``_CHUNK × R × k²`` doubles per matrix while keeping each call large.
_CHUNK = 128


def convstencil_valid_2d(
    padded: np.ndarray,
    kernel: StencilKernel,
    chunk: int = _CHUNK,
    *,
    offsets: np.ndarray | None = None,
    weights: tuple | None = None,
) -> np.ndarray:
    """Valid-region stencil of a halo-padded 2-D input via dual tessellation.

    Returns an ``(m - k + 1, n - k + 1)`` array equal (to FP64 reassociation
    error) to the direct stencil: the batch of one of
    :func:`convstencil_valid_2d_batched`.  ``offsets`` (a stencil2row
    gather LUT) and ``weights`` (the ``(WA3, WB3)`` blocks) may be supplied
    precomputed by an :class:`~repro.runtime.ExecutionPlan`.
    """
    if kernel.ndim != 2:
        raise TessellationError("convstencil_valid_2d requires a 2-D kernel")
    padded = np.asarray(padded, dtype=np.float64)
    if padded.ndim != 2:
        raise TessellationError(f"expected 2-D data, got {padded.ndim}-D")
    return convstencil_valid_2d_batched(
        padded[None], kernel, chunk, offsets=offsets, weights=weights
    )[0]


def convstencil_valid_2d_batched(
    stack: np.ndarray,
    kernel: StencilKernel,
    chunk: int = _CHUNK,
    *,
    offsets: np.ndarray | None = None,
    weights: tuple | None = None,
) -> np.ndarray:
    """Dual tessellation over a batch of independent 2-D slices.

    ``stack`` has shape ``(batch, m, n)``; the return value is
    ``(batch, m - k + 1, n - k + 1)``.  One stacked GEMM per shift-chunk
    covers the whole batch — this is how the 3-D engine (§4.2) evaluates a
    dense kernel plane across every output plane at once, how a served
    batch runs, and, as a batch of one, how a single grid runs.  Each
    batch slice is an identically-shaped ``(R, k²) @ (k², g)`` GEMM per
    shift, so per-grid bits are invariant under batch splitting.
    ``offsets`` (a stencil2row gather LUT) and ``weights`` (the
    ``(WA3, WB3)`` blocks) may be supplied precomputed by an
    :class:`~repro.runtime.ExecutionPlan`.
    """
    if kernel.ndim != 2:
        raise TessellationError("convstencil_valid_2d_batched requires a 2-D kernel")
    stack = np.asarray(stack, dtype=np.float64)
    if stack.ndim != 3:
        raise TessellationError(f"expected (batch, m, n) data, got {stack.ndim}-D")
    if chunk <= 0:
        raise TessellationError(f"chunk must be positive, got {chunk}")
    k = kernel.edge
    g = k + 1
    batch, m, n = stack.shape
    if m < k or n < k:
        raise TessellationError(f"kernel edge {k} does not fit slices of {stack.shape[1:]}")
    x_valid, y_valid = m - k + 1, n - k + 1

    from repro.core.stencil2row import stencil2row_views_batched

    a3, b3 = stencil2row_views_batched(stack, k, offsets)  # (batch, m, R, k)
    r_groups = a3.shape[2]
    wa3, wb3 = weights if weights is not None else weight_blocks_2d(kernel)
    wa_flat = np.ascontiguousarray(wa3).reshape(k * k, g)
    wb_flat = np.ascontiguousarray(wb3).reshape(k * k, g)

    sa = sliding_windows(a3, k, axis=1)  # (batch, x_valid, k, R, k)
    sb = sliding_windows(b3, k, axis=1)
    out = np.empty((batch, x_valid, r_groups * g), dtype=np.float64)
    with telemetry.span(
        "dual_tessellation", kernel=kernel.name, shape=stack.shape, chunk=chunk
    ):
        for t0 in range(0, x_valid, chunk):
            t1 = min(t0 + chunk, x_valid)
            c = t1 - t0
            # (b, c, x, R, i) -> (b, c, R, x, i) -> (b, c, R, k²): the
            # stacked matmul runs one (R, k²) @ (k², g) GEMM per (grid,
            # shift).  Keeping the grid and shift axes *stacked* (not
            # folded into GEMM rows) makes every GEMM's shape a pure
            # function of the grid width, so per-grid bits are invariant
            # under the batch extent, axis-0 tiling and the chunk parameter.
            # staticcheck: gemm-shape-pinned
            flat_a = np.ascontiguousarray(
                sa[:, t0:t1].transpose(0, 1, 3, 2, 4)
            ).reshape(batch, c, r_groups, k * k)
            flat_b = np.ascontiguousarray(
                sb[:, t0:t1].transpose(0, 1, 3, 2, 4)
            ).reshape(batch, c, r_groups, k * k)
            block = flat_a @ wa_flat
            block += flat_b @ wb_flat
            out[:, t0:t1] = block.reshape(batch, c, r_groups * g)
    return out[:, :, :y_valid]
