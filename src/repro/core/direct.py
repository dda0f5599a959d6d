"""Direct shifted-add pass: the valid-region stencil without a GEMM.

The plan-level alternative to dual tessellation (see
:mod:`repro.runtime.plan`): for every nonzero kernel point, one multiply
of a shifted view of the padded input by the point's weight into a
reused scratch array, then one add into the output.  No stencil2row
gather, no window copy — the data movement that dominates a
dual-tessellation pass on a CPU.

The arithmetic is exactly that of
:func:`repro.stencils.reference.apply_stencil_reference`: the same terms,
in the same ``np.ndindex`` order, skipping the same zero weights,
accumulated into a zeroed output.  A pass therefore gives the same bits
as the reference step on the same padded input, for a single grid or a
batch (every operation is elementwise, so the leading batch axis changes
nothing).
"""

from __future__ import annotations

import numpy as np

from repro.errors import TessellationError
from repro.stencils.kernel import StencilKernel

__all__ = ["direct_valid"]


def direct_valid(
    padded: np.ndarray, kernel: StencilKernel, batched: bool = False
) -> np.ndarray:
    """Valid-region stencil of a halo-padded input by shifted adds.

    ``padded`` is one grid, or with ``batched`` a stack of grids along a
    leading axis; each spatial extent shrinks by ``kernel.edge - 1``.
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
    out = np.zeros(padded.shape[:lead] + valid, dtype=np.float64)
    tmp = np.empty_like(out)
    head = (slice(None),) * lead
    w = kernel.weights
    for offset in np.ndindex(*w.shape):
        weight = w[offset]
        if weight == 0.0:
            continue
        view = padded[head + tuple(slice(o, o + n) for o, n in zip(offset, valid))]
        np.multiply(view, weight, out=tmp)
        out += tmp
    return out
