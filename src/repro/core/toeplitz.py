"""Banded-Toeplitz GEMM pass: the banded-matrix form of Stencil Matrixization.

The plan-level GEMM strategy for a CPU (see :mod:`repro.runtime.plan`).
Dual tessellation stages its GEMM operands with the stencil2row gather
and a window copy, which a Tensor Core needs and BLAS does not: BLAS
reads a block of a row-strided array in place.  So this pass gathers
nothing.  Split the output's last axis into column blocks of width
:data:`BAND`.  Output block ``j`` of one kernel row is then a GEMM of the
``BAND + k - 1`` input columns it reads against that row's banded
Toeplitz matrix::

    T[c, b] = w[c - b]  if 0 <= c - b < k  else 0      # (BAND + k - 1, BAND)

For every leading kernel offset with a nonzero row (``dx`` in 2-D,
``(dz, dx)`` in 3-D, the single row in 1-D), a zero-copy
:func:`~numpy.lib.stride_tricks.as_strided` view stacks the column blocks
of the rows that offset reads, and one stacked matmul adds the row's
contribution for every block into one accumulator.  All-zero rows are
skipped: structured sparsity at row granularity.  The ``n % BAND``
column tail is one narrower GEMM against the band's leading
``(tail + k - 1, tail)`` corner, which is the tail's own band.

A 2-D star (every nonzero on the centre row or the centre column) would
pay one banded GEMM per single-point arm row.  Its centre column runs
along the other axis instead: output rows are cut into blocks of
:data:`BAND`, and the column band ``C = T.T`` of the centre column
without its centre point, ``(BAND, BAND + k - 1)``, left-multiplies the
``BAND + k - 1`` input rows each block reads (the ``m % BAND`` row tail
against the band's leading corner).  So a star pass is two GEMMs, one
per axis.  The accumulator is written to ``out`` once, through a strided
view of it.

Bits.  Each GEMM's shape is a pure function of the pass.  A row GEMM's
``M`` is the valid extent of the axis before the last (1-D: the number
of blocks), ``K`` is ``BAND + k - 1`` and ``N`` is ``BAND`` (the tail:
its width); the column GEMM's ``M`` is ``BAND`` (the tail: its height),
``K`` is ``M + k - 1`` and ``N`` the valid width.  Rows and columns are
never split across GEMMs other than by these blocks, a batch stacks the
same per-grid GEMMs along an outer axis, and the bands are summed in a
fixed order, so per-grid bits do not depend on the batch extent, on
axis-0 slicing or on the layout of ``out``.  They differ from the
reference stencil's by reassociation only (within the mirror oracle's
ULP budget).
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

from repro.errors import TessellationError
from repro.stencils.kernel import StencilKernel
from repro.utils.arrays import strided_view

__all__ = ["BAND", "band_matrices", "toeplitz_valid"]

#: Output columns (and, for a star's column band, rows) per block.  Of 8,
#: 16, 24, 32 and 64, 16 and 8 were fastest on the dense 2-D spot cells
#: and 16 on box-3d27p 48³ (x86_64, 2 CPUs, OpenBLAS 0.3); 64 was slowest.
BAND = 16


@lru_cache(maxsize=64)
def band_matrices(kernel: StencilKernel) -> Mapping[tuple, np.ndarray]:
    """The bands of a ``toeplitz`` pass of ``kernel``, keyed by the index
    of the kernel line each is built from (``kernel.weights[key]``).

    A leading kernel offset (``(dx,)`` in 2-D) keys its row's
    ``(BAND + k - 1, BAND)`` band; only rows with a nonzero weight
    appear, in row-major order (the order the pass sums them in).  A 2-D
    star instead has the centre row's band and, keyed ``(..., r)``, the
    ``(BAND, BAND + k - 1)`` column band of the centre column without its
    centre point, summed after it.  Built in one vectorised gather.

    Memoised per kernel (kernels hash by identity; at most 64 are held
    alive): the mapping and its arrays are read-only, and every plan of a
    kernel shares them.
    """
    k, r = kernel.edge, kernel.radius
    weights = np.asarray(kernel.weights, dtype=np.float64)
    rows = weights.reshape(-1, k)
    live = np.flatnonzero(rows.any(axis=1))
    lead = weights.shape[:-1]
    keys = [tuple(int(i) for i in np.unravel_index(row, lead)) for row in live]
    lines = rows[live]
    star = False
    if kernel.ndim == 2 and len(live) > 1:
        off_axes = weights.copy()
        off_axes[r, :] = off_axes[:, r] = 0.0
        star = not off_axes.any()
    if star:
        # The centre row (if it has a nonzero), then the rest of the
        # centre column.
        column = weights[:, r].copy()
        column[r] = 0.0
        keys = [(r,)] if weights[r].any() else []
        lines = np.concatenate([weights[r:r + len(keys)], column[None]])
        keys.append((..., r))
    lag = np.arange(BAND + k - 1)[:, None] - np.arange(BAND)[None, :]
    inside = (lag >= 0) & (lag < k)
    bands = list(np.where(inside, lines[:, np.clip(lag, 0, k - 1)], 0.0))
    if star:
        bands[-1] = np.ascontiguousarray(bands[-1].T)
    for band in bands:
        band.flags.writeable = False  # shared by every plan of the kernel
    return MappingProxyType(dict(zip(keys, bands)))


def toeplitz_valid(
    padded: np.ndarray,
    kernel: StencilKernel,
    *,
    bands: Optional[Mapping[tuple, np.ndarray]] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Valid-region stencil of a halo-padded stack of grids by banded GEMMs.

    ``padded`` has a leading batch axis (one grid is the stack
    ``grid[None]``; any strides, e.g. a halo buffer); each spatial extent
    shrinks by ``kernel.edge - 1``.  ``bands`` are the kernel's
    :func:`band_matrices`, precomputed by an
    :class:`~repro.runtime.ExecutionPlan`.  The result is written to
    ``out`` when given (any layout, the valid shape, not overlapping
    ``padded``) and returned.
    """
    padded = np.asarray(padded, dtype=np.float64)
    if padded.ndim != kernel.ndim + 1:
        raise TessellationError(
            f"{kernel.ndim}-D kernel applied to a stack of {padded.ndim - 1}-D grids"
        )
    k = kernel.edge
    spatial = padded.shape[1:]
    valid = tuple(s - k + 1 for s in spatial)
    if any(v < 1 for v in valid):
        raise TessellationError(f"kernel edge {k} does not fit input {spatial}")
    shape = padded.shape[:1] + valid
    if out is not None and out.shape != shape:
        raise TessellationError(f"out has shape {out.shape}, the pass gives {shape}")
    if bands is None:
        bands = band_matrices(kernel)
    if not bands or 0 in shape:  # an all-zero kernel, or no grids
        if out is None:
            out = np.empty(shape, dtype=np.float64)
        out[...] = 0.0
        return out
    if kernel.ndim == 3 and padded.strides[1] != spatial[1] * padded.strides[2]:
        # The GEMM rows run through whole padded planes (below), which
        # needs a plane stride of exactly one padded plane.
        padded = np.ascontiguousarray(padded)
    # GEMM rows.  2-D: the valid rows.  3-D: every padded row from the
    # first valid one of plane 0 to the last valid one of the last plane,
    # so one GEMM covers all planes; the k - 1 halo rows between planes
    # are computed and dropped.  1-D: the blocks are the rows.
    if kernel.ndim == 1:
        rows = ()
    elif kernel.ndim == 2:
        rows = (valid[0],)
    else:
        rows = ((valid[0] - 1) * spatial[1] + valid[1],)
    batch = padded.shape[:1]  # the stack's extent, as a shape prefix
    n = valid[-1]
    nblocks, tail = divmod(n, BAND)
    # The accumulator has the rows-by-columns layout of the output, so
    # the bands add as contiguous arrays; each GEMM writes its blocks
    # straight into it through a strided view.
    acc = np.empty(batch + rows + (n,), dtype=np.float64)
    tmp = np.empty_like(acc) if len(bands) > 1 else None
    ps, a = padded.strides, acc.strides
    row_gemms = []
    # Whole blocks, then the tail: each GEMM's shape is fixed by the pass.
    for col, count, width in ((0, nblocks, BAND), (nblocks * BAND, 1, tail)):
        if not count or not width:
            continue
        # One zero-copy view for every leading kernel offset:
        # views[offset][grid, block, row, c] = padded[grid, offset + row, col + block·BAND + c].
        views = strided_view(
            padded,
            (k,) * (kernel.ndim - 1) + batch + (count,) + rows + (width + k - 1,),
            ps[1:-1] + ps[:1] + (BAND * ps[-1],) + ps[-1 - len(rows):],
            col,
        )
        blocks = (batch + (count,) + rows + (width,), a[:1] + (BAND * a[-1],) + a[1:])
        row_gemms.append((
            views,
            (slice(0, width + k - 1), slice(0, width)),  # the block's band corner
            strided_view(acc, *blocks, col),
            None if tmp is None else strided_view(tmp, *blocks, col),
        ))
    col_gemms = []
    r = (k - 1) // 2
    if (..., r) in bands:
        # A star's column band: whole row blocks, then the row tail, each
        # reading the centre column's input columns
        # view[grid, block, c, j] = padded[grid, block·BAND + c, r + j].
        hblocks, htail = divmod(valid[0], BAND)
        if hblocks:
            blocks = (batch + (hblocks, BAND, n), a[:1] + (BAND * a[1],) + a[1:])
            col_gemms.append((
                strided_view(padded, batch + (hblocks, BAND + k - 1, n),
                             ps[:1] + (BAND * ps[1],) + ps[1:], r),
                (slice(0, BAND), slice(0, BAND + k - 1)),
                strided_view(acc, *blocks),
                None if tmp is None else strided_view(tmp, *blocks),
            ))
        if htail:
            top = hblocks * BAND
            col_gemms.append((
                padded[:, None, top:, r:r + n],
                (slice(0, htail), slice(0, htail + k - 1)),
                acc[:, None, top:],
                None if tmp is None else tmp[:, None, top:],
            ))
    first = True
    for offset, band in bands.items():
        column = offset[:1] == (...,)  # the column band left-multiplies
        for view, corner, acc_blocks, tmp_blocks in col_gemms if column else row_gemms:
            lhs, rhs = (band[corner], view) if column else (view[offset], band[corner])
            # staticcheck: gemm-shape-pinned — per (grid, block) one
            # (rows, width + k - 1) @ (width + k - 1, width) row GEMM or
            # (height, height + k - 1) @ (height + k - 1, n) column GEMM,
            # whatever the batch extent, so every grid keeps its bits.
            np.matmul(lhs, rhs, out=acc_blocks if first else tmp_blocks)
        if not first:
            acc += tmp
        first = False
    result = acc
    if kernel.ndim == 3:
        # The kept GEMM rows, as (grid, plane, row, column).
        result = strided_view(acc, shape, a[:1] + (spatial[1] * a[-2],) + a[-2:])
        if out is None:
            out = np.empty(shape, dtype=np.float64)
    if out is None:
        return acc
    out[...] = result
    return out
