"""Direct shifted-add pass: the valid-region stencil without a GEMM.

The plan-level alternative to dual tessellation (see
:mod:`repro.runtime.plan`): for every nonzero kernel point, one multiply
of a shifted view of the padded input by the point's weight into a
scratch array, then one add into the output.  No stencil2row gather, no
window copy — the data movement that dominates a dual-tessellation pass
on a CPU.

The output is walked in blocks along its leading axis (rows of one grid,
or whole grids of a batch whose grids are small), each at most
:data:`BLOCK_BYTES`, so a block's accumulator, its scratch and the input
rows it reads stay in cache across all the kernel's terms instead of
streaming the whole grid once per term.  A block accumulates in
contiguous memory: directly in ``out`` when ``out`` is C-contiguous,
else in a scratch block copied out afterwards (accumulating straight
into a strided destination, such as the interior of a halo buffer, is
much slower).

The arithmetic is exactly that of
:func:`repro.stencils.reference.apply_stencil_reference`: each output
element sums the same terms (:attr:`StencilKernel.terms`), in the same
``np.ndindex`` order, skipping the same zero weights, with the bits of
a sum into a zeroed accumulator.  A pass therefore gives the same bits as the reference step
on the same padded input, for a single grid or a batch (every operation
is elementwise, so neither the blocking nor the batch axis changes
anything).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from repro.errors import TessellationError
from repro.stencils.kernel import StencilKernel

__all__ = ["BLOCK_BYTES", "direct_valid"]

#: Output bytes per block.  The fastest of 8 KiB–1 MiB on an x86_64 host
#: with 2 CPUs, on heat-1d and heat-2d spot-cell grids.
BLOCK_BYTES = 256 * 1024


def direct_valid(
    padded: np.ndarray,
    kernel: StencilKernel,
    batched: bool = False,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Valid-region stencil of a halo-padded input by shifted adds.

    ``padded`` is one grid, or with ``batched`` a stack of grids along a
    leading axis; each spatial extent shrinks by ``kernel.edge - 1``.
    The result is written to ``out`` when given (any layout, the valid
    shape, not overlapping ``padded``) and returned.
    """
    padded = np.asarray(padded, dtype=np.float64)
    lead = 1 if batched else 0
    if padded.ndim != kernel.ndim + lead:
        raise TessellationError(
            f"{kernel.ndim}-D kernel applied to {padded.ndim}-D "
            f"{'batch' if batched else 'data'}"
        )
    spatial = padded.shape[lead:]
    valid = tuple(s - kernel.edge + 1 for s in spatial)
    if any(v < 1 for v in valid):
        raise TessellationError(
            f"kernel edge {kernel.edge} does not fit input {spatial}"
        )
    shape = padded.shape[:lead] + valid
    if out is None:
        out = np.empty(shape, dtype=np.float64)
    elif out.shape != shape:
        raise TessellationError(f"out has shape {out.shape}, the pass gives {shape}")
    if batched and math.prod(valid) * 8 > BLOCK_BYTES:
        # A grid is larger than a block: block each grid's rows instead.
        for b in range(shape[0]):
            _blocked(padded[b], kernel, out[b])
    else:
        _blocked(padded, kernel, out)
    return out


@lru_cache(maxsize=256)
def _windows(kernel: StencilKernel, valid: Tuple[int, ...], lead: int) -> tuple:
    """``(index, weight)`` per term: the index of the padded input that
    the term reads for the whole output, ``lead`` leading axes whole.
    The cache holds its kernels alive, at most 256 (kernel, shape) keys."""
    return tuple(
        ((slice(None),) * lead + tuple(slice(o, o + n) for o, n in zip(offset, valid)), weight)
        for offset, weight in kernel.terms
    )


def _blocked(padded: np.ndarray, kernel: StencilKernel, out: np.ndarray) -> None:
    """Shifted adds into ``out``, one block of its leading axis at a time.

    ``out`` is one grid's valid region, or a stack of them (then a block
    spans whole grids).
    """
    lead = out.ndim - kernel.ndim
    terms = [(padded[index], weight) for index, weight in _windows(kernel, out.shape[lead:], lead)]
    if not terms:  # an all-zero kernel
        out[...] = 0.0
        return
    (first, w0), rest = terms[0], terms[1:]
    extent = out.shape[0]
    step = max(1, min(extent, BLOCK_BYTES // max(out[:1].nbytes, 1)))
    in_place = out.flags.c_contiguous
    block = (step,) + out.shape[1:]
    acc_buf = None if in_place else np.empty(block, dtype=np.float64)
    tmp_buf = np.empty(block, dtype=np.float64)
    for lo in range(0, extent, step):
        hi = min(lo + step, extent)
        rows = slice(lo, hi)
        acc = out[rows] if in_place else acc_buf[: hi - lo]
        tmp = tmp_buf[: hi - lo]
        # The reference adds the first term to a zeroed accumulator; adding
        # 0.0 to the term instead gives the same bits (IEEE addition
        # commutes; both turn -0.0 into +0.0) with one pass less.
        np.multiply(first[rows], w0, out=acc)
        acc += 0.0
        for view, weight in rest:
            np.multiply(view[rows], weight, out=tmp)
            acc += tmp
        if not in_place:
            out[rows] = acc
