"""Grids, halos, and boundary conditions.

Stencil engines in this package compute *valid* outputs of a halo-padded
input; :func:`pad_halo` centralises how halos are synthesised from a boundary
condition so every engine (ConvStencil and all baselines) agrees on semantics.
The runtime works on stacks of grids (one grid is a stack of one): it pads
a stack once into a reused buffer with :func:`pad_halo_batch` and refreshes
that buffer's halo between passes with :func:`refresh_halo`, both with the
bits of :func:`pad_halo` per grid.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

from repro.errors import GridError

__all__ = ["BoundaryCondition", "Grid", "pad_halo", "pad_halo_batch", "refresh_halo"]


class BoundaryCondition(enum.Enum):
    """How values outside the grid are synthesised.

    ``CONSTANT`` pads with a fixed fill value (Dirichlet-style ghost zone),
    ``PERIODIC`` wraps around (makes temporal kernel fusion exact everywhere),
    ``REFLECT`` mirrors the interior (Neumann-style).
    """

    CONSTANT = "constant"
    PERIODIC = "periodic"
    REFLECT = "reflect"


_NUMPY_PAD_MODE = {
    BoundaryCondition.CONSTANT: "constant",
    BoundaryCondition.PERIODIC: "wrap",
    BoundaryCondition.REFLECT: "symmetric",
}


def pad_halo(
    data: np.ndarray,
    halo: int,
    boundary: BoundaryCondition = BoundaryCondition.CONSTANT,
    fill_value: float = 0.0,
) -> np.ndarray:
    """Return ``data`` surrounded by a halo of width ``halo`` on every side.

    A fresh :func:`numpy.pad` copy, for the reference step and the
    baselines; a run fills its reused buffer by :func:`pad_halo_batch`.
    """
    if halo < 0:
        raise GridError(f"halo width must be non-negative, got {halo}")
    if halo == 0:
        return np.asarray(data, dtype=np.float64)
    mode = _NUMPY_PAD_MODE[BoundaryCondition(boundary)]
    if mode == "constant":
        return np.pad(data, halo, mode=mode, constant_values=fill_value)
    if boundary is BoundaryCondition.PERIODIC:
        if any(halo > s for s in data.shape):
            raise GridError(
                f"periodic halo {halo} exceeds grid extent {data.shape}; "
                "shrink the halo or enlarge the grid"
            )
    return np.pad(data, halo, mode=mode)


def pad_halo_batch(
    batch: np.ndarray,
    halo: int,
    boundary: BoundaryCondition = BoundaryCondition.CONSTANT,
    fill_value: float = 0.0,
    *,
    out: np.ndarray,
) -> np.ndarray:
    """Halo-pad every grid of a batch into the buffer ``out``.

    ``batch`` has a leading batch axis that is *not* padded (one grid is
    the batch ``grid[None]``); ``out`` is a float64 array of the padded
    shape.  ``batch`` is copied into the interior of ``out`` and the halo
    is filled in place by :func:`refresh_halo`: per grid the bits of
    :func:`pad_halo`, without the per-call overhead of :func:`numpy.pad`.
    ``out`` is returned, and never aliases ``batch``.
    """
    if halo < 0:
        raise GridError(f"halo width must be non-negative, got {halo}")
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim < 2:
        raise GridError(
            f"batch padding needs a leading batch axis, got {batch.ndim}-D data"
        )
    grid = batch.shape[1:]
    shape = batch.shape[:1] + tuple(n + 2 * halo for n in grid)
    if out.shape != shape:
        raise GridError(f"halo buffer has shape {out.shape}, expected {shape}")
    out[(slice(None),) + tuple(slice(halo, halo + n) for n in grid)] = batch
    return refresh_halo(out, halo, boundary, fill_value)


@lru_cache(maxsize=64)
def _reflect_sources(extent: int, halo: int) -> Tuple[np.ndarray, np.ndarray]:
    """Padded-array indices the left and right halo cells copy from under
    ``symmetric`` padding wider than the extent.

    The halo cell at ``p`` (interior coordinates) holds the interior
    mirrored with period ``2 * extent``, which is what :func:`numpy.pad`
    gives when it reflects again and again.
    """
    p = np.concatenate([np.arange(-halo, 0), np.arange(extent, extent + halo)])
    m = p % (2 * extent)
    src = np.where(m < extent, m, 2 * extent - 1 - m) + halo
    src.setflags(write=False)
    return src[:halo], src[halo:]


def refresh_halo(
    padded: np.ndarray,
    halo: int,
    boundary: BoundaryCondition = BoundaryCondition.CONSTANT,
    fill_value: float = 0.0,
) -> np.ndarray:
    """Rewrite the halo of a padded stack in place from its interior.

    ``padded`` has a leading batch axis that carries no halo.  Afterwards
    each of its grids equals :func:`pad_halo` of that grid's interior bit
    for bit, whatever its halo held before, so a buffer padded once can
    be reused pass after pass.  Axes are filled in order, each over the
    whole of the axes before it and the interior of the axes after it,
    which is the order :func:`numpy.pad` fills corners in.  Returns
    ``padded``.
    """
    if halo < 0:
        raise GridError(f"halo width must be non-negative, got {halo}")
    if halo == 0:
        return padded
    if not isinstance(boundary, BoundaryCondition):
        # A run passes a member, once per pass; coercing one costs ~0.6 µs.
        boundary = BoundaryCondition(boundary)
    extents = tuple(s - 2 * halo for s in padded.shape[1:])
    if boundary is BoundaryCondition.PERIODIC and any(halo > s for s in extents):
        raise GridError(
            f"periodic halo {halo} exceeds grid extent {extents}; "
            "shrink the halo or enlarge the grid"
        )
    ndim = len(extents)
    for axis, extent in enumerate(extents):
        before = (slice(None),) * (1 + axis)
        after = (slice(halo, -halo),) * (ndim - axis - 1)
        left = before + (slice(0, halo),) + after
        right = before + (slice(halo + extent, None),) + after
        if boundary is BoundaryCondition.CONSTANT:
            padded[left] = fill_value
            padded[right] = fill_value
            continue
        if boundary is BoundaryCondition.PERIODIC:
            src_left, src_right = slice(extent, extent + halo), slice(halo, 2 * halo)
        elif halo <= extent:
            src_left = slice(2 * halo - 1, halo - 1, -1)
            src_right = slice(halo + extent - 1, extent - 1, -1)
        else:
            src_left, src_right = _reflect_sources(extent, halo)
        padded[left] = padded[before + (src_left,) + after]
        padded[right] = padded[before + (src_right,) + after]
    return padded


@dataclass
class Grid:
    """A ``d``-dimensional FP64 grid with an attached boundary condition.

    This is the user-facing container the public API operates on; engines
    receive the raw array plus boundary metadata.
    """

    data: np.ndarray
    boundary: BoundaryCondition = BoundaryCondition.CONSTANT
    fill_value: float = 0.0

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=np.float64)
        self.boundary = BoundaryCondition(self.boundary)
        if self.data.ndim not in (1, 2, 3):
            raise GridError(f"grids must be 1-, 2-, or 3-dimensional, got {self.data.ndim}D")
        if any(s < 1 for s in self.data.shape):
            raise GridError(f"grid extents must be positive, got {self.data.shape}")

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def padded(self, halo: int) -> np.ndarray:
        """Halo-padded copy of the grid data (see :func:`pad_halo`)."""
        return pad_halo(self.data, halo, self.boundary, self.fill_value)

    def with_data(self, data: np.ndarray) -> "Grid":
        """A new grid with the same boundary metadata but different values."""
        return Grid(data=data, boundary=self.boundary, fill_value=self.fill_value)

    @staticmethod
    def random(
        shape: tuple,
        boundary: BoundaryCondition = BoundaryCondition.CONSTANT,
        seed: int | None = None,
    ) -> "Grid":
        """A grid of uniform random values in [0, 1) with deterministic seeding."""
        from repro.utils.rng import default_rng

        return Grid(default_rng(seed).random(shape), boundary=boundary)
