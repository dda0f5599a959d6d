"""Direct shifted-add pass: the valid-region stencil without a GEMM.

The plan-level alternative to dual tessellation (see
:mod:`repro.runtime.plan`): for every nonzero kernel point, one multiply
of a shifted view of the padded input by the point's weight into a
scratch array, then one add into the output.  No stencil2row gather, no
window copy — the data movement that dominates a dual-tessellation pass
on a CPU.

Each shifted view is one contiguous run of the padded input's memory.
In flat element offsets a kernel point ``o`` is a fixed shift
``Σ o_i·stride_i``, so output point ``p`` reads ``padded_flat[p + shift]``
wherever ``p`` lies.  A pass therefore sums whole 1-D runs, from the
first output point to the last, into a flat accumulator laid out like
the padded input; the positions in between that fall on halo cells are
computed and dropped, and the valid points are copied out through a
strided view.  Long 1-D runs cost NumPy far less than the same terms as
short strided rows.

A pass takes a stack of grids; one grid is a stack of one.  The output
is walked in blocks along a leading axis (the rows of each grid, or
whole grids of a stack of several small grids), each at most
:data:`BLOCK_BYTES`, so a block's accumulator, its scratch and the input
rows it reads stay in cache across all the kernel's terms instead of
streaming the whole grid once per term.  A 1-D pass whose ``out`` is
contiguous accumulates in place, since its accumulator has no dropped
positions.

The arithmetic is exactly that of
:func:`repro.stencils.reference.apply_stencil_reference`: each output
element sums the same terms (:attr:`StencilKernel.terms`), in the same
``np.ndindex`` order, skipping the same zero weights, with the bits of
a sum into a zeroed accumulator.  A pass therefore gives the same bits as the reference step
on the same padded input, for every grid of any stack (every operation
is elementwise, so neither the blocking, the batch axis nor the dropped
positions change anything).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from repro.errors import TessellationError
from repro.stencils.kernel import StencilKernel
from repro.utils.arrays import strided_view

__all__ = ["BLOCK_BYTES", "direct_valid"]

#: Output bytes per block.  The fastest of 8 KiB–1 MiB on an x86_64 host
#: with 2 CPUs, on heat-1d and heat-2d spot-cell grids.
BLOCK_BYTES = 256 * 1024


def direct_valid(
    padded: np.ndarray,
    kernel: StencilKernel,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Valid-region stencil of a halo-padded stack of grids by shifted adds.

    ``padded`` has a leading batch axis (one grid is the stack
    ``grid[None]``); each spatial extent shrinks by ``kernel.edge - 1``.
    The result is written to ``out`` when given (any layout, the valid
    shape, not overlapping ``padded``) and returned.
    """
    padded = np.asarray(padded, dtype=np.float64)
    if padded.ndim != kernel.ndim + 1:
        raise TessellationError(
            f"{kernel.ndim}-D kernel applied to a stack of {padded.ndim - 1}-D grids"
        )
    spatial = padded.shape[1:]
    valid = tuple(s - kernel.edge + 1 for s in spatial)
    if any(v < 1 for v in valid):
        raise TessellationError(
            f"kernel edge {kernel.edge} does not fit input {spatial}"
        )
    shape = padded.shape[:1] + valid
    if out is None:
        out = np.empty(shape, dtype=np.float64)
    elif out.shape != shape:
        raise TessellationError(f"out has shape {out.shape}, the pass gives {shape}")
    if shape[0] == 1 or math.prod(valid) * 8 > BLOCK_BYTES:
        # One grid, or grids larger than a block: block each grid's rows.
        for b in range(shape[0]):
            _blocked(padded[b], kernel, out[b])
    else:
        _blocked(padded, kernel, out)
    return out


@lru_cache(maxsize=256)
def _shifts(kernel: StencilKernel, strides: Tuple[int, ...]) -> tuple:
    """``(shift, weight)`` per term, the term's flat element offset in an
    array with element ``strides`` along the kernel's axes, and the
    largest shift.  The cache holds its kernels alive, at most 256
    (kernel, strides) keys."""
    terms = tuple(
        (sum(o * s for o, s in zip(offset, strides)), weight)
        for offset, weight in kernel.terms
    )
    return terms, max((shift for shift, _ in terms), default=0)


def _blocked(padded: np.ndarray, kernel: StencilKernel, out: np.ndarray) -> None:
    """Shifted adds into ``out``, one block of its leading axis at a time.

    ``out`` is one grid's valid region, or a stack of them (then a block
    spans whole grids).
    """
    if out.size == 0:
        return
    if min(padded.strides) <= 0 or any(s % padded.itemsize for s in padded.strides):
        padded = np.ascontiguousarray(padded)  # flat shifts need a plain layout
    lead = out.ndim - kernel.ndim
    step_of = tuple(s // padded.itemsize for s in padded.strides)
    terms, reach = _shifts(kernel, step_of[lead:])
    if not terms:  # an all-zero kernel
        out[...] = 0.0
        return
    (first, w0), rest = terms[0], terms[1:]
    extent = out.shape[0]
    # Flat span of one leading-axis slice of the output, first to last point.
    inner = 1 + sum((n - 1) * s for n, s in zip(out.shape[1:], step_of[1:]))
    flat = strided_view(
        padded,
        ((extent - 1) * step_of[0] + inner + reach,),
        (padded.itemsize,),
    )
    step = max(1, min(extent, BLOCK_BYTES // max(out[:1].nbytes, 1)))
    # A 1-D pass drops no positions: its accumulator is ``out`` itself.
    in_place = out.ndim == 1 and out.strides == padded.strides
    span = (step - 1) * step_of[0] + inner
    acc_buf = None if in_place else np.empty(span, dtype=np.float64)
    tmp_buf = np.empty(span, dtype=np.float64)
    for lo in range(0, extent, step):
        hi = min(lo + step, extent)
        size = (hi - lo - 1) * step_of[0] + inner
        at = lo * step_of[0]
        acc = out[lo:hi] if in_place else acc_buf[:size]
        tmp = tmp_buf[:size]
        # The reference adds the first term to a zeroed accumulator; adding
        # 0.0 to the term instead gives the same bits (IEEE addition
        # commutes; both turn -0.0 into +0.0) with one pass less.
        np.multiply(flat[at + first : at + first + size], w0, out=acc)
        acc += 0.0
        for shift, weight in rest:
            np.multiply(flat[at + shift : at + shift + size], weight, out=tmp)
            acc += tmp
        if not in_place:
            out[lo:hi] = strided_view(acc_buf, (hi - lo,) + out.shape[1:], padded.strides)
