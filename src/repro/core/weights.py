"""Triangular weight matrices A and B for dual tessellation (§3.3, Figure 3).

For a kernel of edge ``k`` (weights ``w[x', i]``, rows indexed by ``x'``),
dual tessellation multiplies stencil2row tiles by two weight matrices of
shape ``(k², k+1)``:

* **Weight matrix A** — a vertical stack of ``k`` lower-triangular blocks:
  block ``x'`` has entry ``[i, j] = w[x', i - j]`` for ``i ≥ j`` (``j < k``),
  and the final column ``j = k`` is all zeros.  Column ``j`` therefore
  applies the *leading* ``k - j`` kernel columns to a patch shifted right by
  ``j`` — the progressively-lighter shades of vitrolite A in Figure 3.
* **Weight matrix B** — a stack of upper-triangular blocks: block ``x'`` has
  entry ``[u, j] = w[x', k - j + u]`` for ``u < j``, with column ``0`` all
  zeros and column ``k`` holding the complete kernel.  Column ``j`` supplies
  exactly the *trailing* ``j`` kernel columns that A's column ``j`` is
  missing, evaluated on matrix-B data (which starts ``k`` input columns to
  the right).

The defining identity, verified in ``tests/core/test_weights.py``::

    patchA_flat @ WA[:, j] + patchB_flat @ WB[:, j]
        == full stencil at column offset j,            j = 0 … k

so summing the two "vitrolite" products tessellates ``k+1`` complete outputs
per tile row per pass.

1-D kernels use a single triangular block (shape ``(k, k+1)``).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.errors import TessellationError
from repro.stencils.kernel import StencilKernel

__all__ = [
    "weight_matrices_1d",
    "weight_matrices_2d",
    "weight_blocks_2d",
    "weight_matrix_a_1d",
    "weight_matrix_b_1d",
]


def _triangular_blocks(row_weights: np.ndarray) -> tuple:
    """Lower/upper triangular blocks for one kernel row of length ``k``.

    Returns ``(blockA, blockB)`` of shape ``(k, k+1)`` each.
    """
    k = row_weights.shape[0]
    g = k + 1
    i = np.arange(k)[:, None]  # data offset within the tile row
    j = np.arange(g)[None, :]  # output column offset
    block_a = np.zeros((k, g), dtype=np.float64)
    mask_a = (i >= j) & (j < k)
    block_a[mask_a] = row_weights[(i - j)[mask_a]]
    block_b = np.zeros((k, g), dtype=np.float64)
    mask_b = i < j
    block_b[mask_b] = row_weights[(k - j + i)[mask_b]]
    return block_a, block_b


def weight_matrix_a_1d(kernel: StencilKernel) -> np.ndarray:
    """Weight matrix A for a 1-D kernel: shape ``(k, k+1)``, last column zero."""
    if kernel.ndim != 1:
        raise TessellationError("weight_matrix_a_1d requires a 1-D kernel")
    return _triangular_blocks(kernel.weights)[0]


def weight_matrix_b_1d(kernel: StencilKernel) -> np.ndarray:
    """Weight matrix B for a 1-D kernel: shape ``(k, k+1)``, first column zero."""
    if kernel.ndim != 1:
        raise TessellationError("weight_matrix_b_1d requires a 1-D kernel")
    return _triangular_blocks(kernel.weights)[1]


@lru_cache(maxsize=128)
def weight_matrices_1d(kernel: StencilKernel) -> tuple:
    """Both 1-D weight matrices ``(WA, WB)`` of shape ``(k, k+1)``.

    Memoised per kernel instance (kernels are immutable and identity-
    hashed), so repeated time steps pay the construction cost once.
    """
    if kernel.ndim != 1:
        raise TessellationError("weight_matrices_1d requires a 1-D kernel")
    wa, wb = _triangular_blocks(kernel.weights)
    wa.setflags(write=False)
    wb.setflags(write=False)
    return wa, wb


@lru_cache(maxsize=128)
def weight_blocks_2d(kernel: StencilKernel) -> tuple:
    """Per-kernel-row weight blocks ``(WA3, WB3)`` of shape ``(k, k, k+1)``.

    ``WA3[x']`` is the lower-triangular block for kernel row ``x'``; the
    vectorised engine reshapes them to the ``(k², k+1)`` right operand of
    its stacked ``(R, k²) @ (k², k+1)`` GEMMs.
    Memoised per kernel instance so time loops build them once.
    """
    if kernel.ndim != 2:
        raise TessellationError("weight_blocks_2d requires a 2-D kernel")
    k = kernel.edge
    wa = np.empty((k, k, k + 1), dtype=np.float64)
    wb = np.empty((k, k, k + 1), dtype=np.float64)
    for x in range(k):
        wa[x], wb[x] = _triangular_blocks(kernel.weights[x])
    wa.setflags(write=False)
    wb.setflags(write=False)
    return wa, wb


def weight_matrices_2d(kernel: StencilKernel) -> tuple:
    """Stacked 2-D weight matrices ``(WA, WB)`` of shape ``(k², k+1)``.

    This is the exact Figure-3 layout: ``k`` triangular blocks concatenated
    vertically, one per kernel row.
    """
    wa3, wb3 = weight_blocks_2d(kernel)
    k = kernel.edge
    return wa3.reshape(k * k, k + 1), wb3.reshape(k * k, k + 1)
