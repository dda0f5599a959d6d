"""3-D ConvStencil engine via 2-D plane decomposition (§4.2).

A 3-D stencil is decomposed along the leading (plane) axis: each output
plane is the sum, over kernel plane offsets ``dz``, of a 2-D stencil of
input plane ``p + dz`` with kernel slice ``weights[dz]``.

Following the paper, dense kernel planes run through the 2-D dual
tessellation (Tensor Cores), while planes with a single nonzero point — the
off-centre planes of a star stencil — are handled as scalar AXPYs ("CUDA
cores").  The two paths cover every catalogued 3-D kernel and any custom
one.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.core.engine2d import convstencil_valid_2d_batched
from repro.errors import TessellationError
from repro.stencils.kernel import StencilKernel

__all__ = ["convstencil_valid_3d", "plane_decomposition"]


def plane_decomposition(kernel: StencilKernel) -> list:
    """Split a 3-D kernel into per-plane work items.

    Returns a list of ``(dz, kind, payload)`` where ``kind`` is:

    * ``"skip"``  — all-zero plane (no work);
    * ``"axpy"``  — single nonzero at offset ``payload = (dx, dy, weight)``
      (computed on CUDA cores in the paper);
    * ``"conv2d"`` — dense plane; ``payload`` is a 2-D
      :class:`~repro.stencils.kernel.StencilKernel` for dual tessellation.
    """
    if kernel.ndim != 3:
        raise TessellationError("plane_decomposition requires a 3-D kernel")
    items = []
    for dz in range(kernel.edge):
        plane = kernel.weights[dz]
        nz = np.argwhere(plane != 0.0)
        if nz.shape[0] == 0:
            items.append((dz, "skip", None))
        elif nz.shape[0] == 1:
            dx, dy = (int(v) for v in nz[0])
            items.append((dz, "axpy", (dx, dy, float(plane[dx, dy]))))
        else:
            sub = StencilKernel(
                name=f"{kernel.name}[z={dz}]", weights=plane, shape_kind="custom"
            )
            items.append((dz, "conv2d", sub))
    return items


def convstencil_valid_3d(
    padded: np.ndarray,
    kernel: StencilKernel,
    *,
    planes: list | None = None,
    offsets: np.ndarray | None = None,
    weights_by_plane: dict | None = None,
) -> np.ndarray:
    """Valid-region stencil of a halo-padded 3-D input.

    Returns an array of shape ``tuple(s - edge + 1 for s in padded.shape)``.
    ``planes`` (a precomputed :func:`plane_decomposition`), ``offsets`` (the
    shared 2-D stencil2row gather LUT), and ``weights_by_plane`` (``dz`` →
    2-D weight blocks) may be supplied by an
    :class:`~repro.runtime.ExecutionPlan` so a time loop never redoes the
    per-pass decomposition or table builds.
    """
    if kernel.ndim != 3:
        raise TessellationError("convstencil_valid_3d requires a 3-D kernel")
    padded = np.asarray(padded, dtype=np.float64)
    if padded.ndim != 3:
        raise TessellationError(f"expected 3-D data, got {padded.ndim}-D")
    k = kernel.edge
    if any(s < k for s in padded.shape):
        raise TessellationError(f"kernel edge {k} does not fit input {padded.shape}")
    pz, px, py = (s - k + 1 for s in padded.shape)
    out = np.zeros((pz, px, py), dtype=np.float64)
    if planes is None:
        planes = plane_decomposition(kernel)
    for dz, kind, payload in planes:
        if kind == "skip":
            continue
        plane_stack = padded[dz : dz + pz]
        if kind == "axpy":
            dx, dy, w = payload
            with telemetry.span(
                "plane_axpy", kernel=kernel.name, dz=dz, shape=padded.shape
            ):
                out += w * plane_stack[:, dx : dx + px, dy : dy + py]
        else:
            # batched dual tessellation: one stacked-matmul sweep covers
            # this kernel plane's contribution to every output plane
            w2 = weights_by_plane.get(dz) if weights_by_plane else None
            out += convstencil_valid_2d_batched(
                plane_stack, payload, offsets=offsets, weights=w2
            )
    return out
