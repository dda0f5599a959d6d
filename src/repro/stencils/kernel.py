"""Stencil kernel definitions (§2.1 of the paper).

A stencil kernel is a small ``d``-dimensional array of FP64 weights with odd
edge lengths.  The paper distinguishes two shapes:

* **star** — nonzero weights only on the axes through the centre;
* **box** — a full dense hypercube of weights.

Both are represented uniformly as dense weight arrays (a star is a box whose
off-axis entries are zero); the ``shape_kind`` tag records intent and the
``points`` property counts the genuinely nonzero entries, which is what the
paper's im2row footprint accounting (Table 3) uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Sequence, Tuple

import numpy as np
from scipy.signal import convolve as _full_convolve

from repro.errors import KernelError

__all__ = ["StencilKernel"]


def _validate_weights(weights: np.ndarray) -> np.ndarray:
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim not in (1, 2, 3):
        raise KernelError(
            f"stencil kernels must be 1-, 2-, or 3-dimensional, got {weights.ndim}D"
        )
    for edge in weights.shape:
        if edge % 2 == 0:
            raise KernelError(
                f"kernel edge lengths must be odd so a centre exists, got {weights.shape}"
            )
    edges = set(weights.shape)
    if len(edges) != 1:
        raise KernelError(
            f"kernels must be hyper-cubic (equal edges), got {weights.shape}"
        )
    if not np.all(np.isfinite(weights)):
        raise KernelError("kernel weights must be finite")
    return weights


@dataclass(frozen=True, eq=False)
class StencilKernel:
    """An immutable stencil kernel: weights plus descriptive metadata.

    Instances are compared and hashed by *identity* (``eq=False``): the
    weight array makes value equality ambiguous, and identity hashing lets
    the engines memoise derived structures (weight matrices, gather
    indices) per kernel instance.

    Parameters
    ----------
    name:
        Human-readable identifier (e.g. ``"heat-2d"``).
    weights:
        Dense ``d``-dimensional FP64 weight array with odd, equal edges.
    shape_kind:
        ``"star"``, ``"box"``, or ``"custom"``; informational except for
        im2row footprint accounting, which counts only nonzero points.
    """

    name: str
    weights: np.ndarray = field(repr=False)
    shape_kind: str = "custom"

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", _validate_weights(self.weights))
        if self.shape_kind not in ("star", "box", "custom"):
            raise KernelError(f"unknown shape_kind {self.shape_kind!r}")
        self.weights.setflags(write=False)

    # -- geometry ---------------------------------------------------------

    @property
    def ndim(self) -> int:
        """Spatial dimensionality of the kernel (1, 2, or 3)."""
        return self.weights.ndim

    @property
    def edge(self) -> int:
        """Edge length ``n_kernel`` of the (hyper-cubic) weight array."""
        return self.weights.shape[0]

    @property
    def radius(self) -> int:
        """Stencil radius (the paper's *order*): ``(edge - 1) // 2``."""
        return (self.edge - 1) // 2

    # The weights are read-only, so everything derived from them is
    # computed once per instance.

    @cached_property
    def points(self) -> int:
        """Number of nonzero weights — the stencil's point count."""
        return int(np.count_nonzero(self.weights))

    @cached_property
    def volume(self) -> int:
        """Total entries of the bounding box, ``edge ** ndim``."""
        return int(np.prod(self.weights.shape))

    @cached_property
    def terms(self) -> Tuple[Tuple[Tuple[int, ...], np.float64], ...]:
        """The nonzero ``(offset, weight)`` pairs in ``np.ndindex`` order —
        the terms of a shifted-add step, in the order it sums them."""
        w = self.weights
        return tuple(
            (offset, w[offset]) for offset in np.ndindex(*w.shape) if w[offset] != 0.0
        )

    @cached_property
    def _fused(self) -> Dict[int, "StencilKernel"]:
        return {1: self}

    # -- derived kernels ---------------------------------------------------

    def compose(self, other: "StencilKernel") -> "StencilKernel":
        """Return the kernel equivalent to applying ``self`` then ``other``.

        Stencils are linear operators, so sequential application equals a
        single stencil whose weights are the full convolution of the two
        weight arrays.  This is the algebraic core of the paper's *kernel
        fusion* (§3.3, Figure 4).
        """
        if other.ndim != self.ndim:
            raise KernelError(
                f"cannot compose {self.ndim}D kernel with {other.ndim}D kernel"
            )
        fused = _full_convolve(self.weights, other.weights, mode="full")
        kind = "box" if "box" in (self.shape_kind, other.shape_kind) else "custom"
        if self.shape_kind == other.shape_kind == "star":
            # a fused star is generally no longer a star: it fills the box
            kind = "custom"
        return StencilKernel(
            name=f"{self.name}*{other.name}", weights=fused, shape_kind=kind
        )

    def fuse(self, steps: int) -> "StencilKernel":
        """Return the kernel equivalent to ``steps`` repeated applications.

        ``steps=1`` returns ``self``.  The fused kernel has radius
        ``steps * radius``; its application advances the simulation by
        ``steps`` time steps in one pass (exact in the interior / under
        periodic halos).  Memoised per depth: every caller fusing this
        kernel gets the same fused instance.
        """
        if steps < 1:
            raise KernelError(f"fusion depth must be >= 1, got {steps}")
        fused = self._fused.get(steps)
        if fused is None:
            fused = self
            for _ in range(steps - 1):
                fused = fused.compose(self)
            fused = self._fused.setdefault(
                steps,
                StencilKernel(
                    name=f"{self.name}-x{steps}",
                    weights=fused.weights,
                    shape_kind=fused.shape_kind,
                ),
            )
        return fused

    # -- constructors ------------------------------------------------------

    @staticmethod
    def box(
        ndim: int,
        radius: int,
        weights: Sequence[float] | np.ndarray | None = None,
        name: str | None = None,
    ) -> "StencilKernel":
        """Build a dense box kernel of the given radius.

        ``weights`` may be a flat sequence of ``(2r+1)**ndim`` values (filled
        in row-major order) or omitted for deterministic normalised defaults.
        """
        if radius < 1:
            raise KernelError(f"radius must be >= 1, got {radius}")
        edge = 2 * radius + 1
        shape = (edge,) * ndim
        n = int(np.prod(shape))
        if weights is None:
            w = _default_weights(n)
        else:
            w = np.asarray(weights, dtype=np.float64).reshape(-1)
            if w.size != n:
                raise KernelError(f"box kernel needs {n} weights, got {w.size}")
        return StencilKernel(
            name=name or f"box-{ndim}d{n}p",
            weights=w.reshape(shape),
            shape_kind="box",
        )

    @staticmethod
    def star(
        ndim: int,
        radius: int,
        weights: Sequence[float] | np.ndarray | None = None,
        name: str | None = None,
    ) -> "StencilKernel":
        """Build a star kernel: centre plus ``radius`` points along each axis.

        A ``ndim``-D star of radius ``r`` has ``2 * ndim * r + 1`` points.
        ``weights`` lists them in the order: axis-0 negative offsets (nearest
        first is *last*, i.e. offset ``-r`` first), …, then the centre, then
        positive offsets — concretely, points are ordered by
        ``(axis, offset)`` ascending with the centre in the middle.  Omitted
        weights default to deterministic normalised values.
        """
        if radius < 1:
            raise KernelError(f"radius must be >= 1, got {radius}")
        edge = 2 * radius + 1
        npoints = 2 * ndim * radius + 1
        if weights is None:
            w = _default_weights(npoints)
        else:
            w = np.asarray(weights, dtype=np.float64).reshape(-1)
            if w.size != npoints:
                raise KernelError(
                    f"{ndim}D star of radius {radius} needs {npoints} weights, got {w.size}"
                )
        dense = np.zeros((edge,) * ndim, dtype=np.float64)
        centre = (radius,) * ndim
        idx = 0
        for axis in range(ndim):
            for off in range(-radius, 0):
                pos = list(centre)
                pos[axis] += off
                dense[tuple(pos)] = w[idx]
                idx += 1
        dense[centre] = w[idx]
        idx += 1
        for axis in range(ndim):
            for off in range(1, radius + 1):
                pos = list(centre)
                pos[axis] += off
                dense[tuple(pos)] = w[idx]
                idx += 1
        return StencilKernel(
            name=name or f"star-{ndim}d{npoints}p",
            weights=dense,
            shape_kind="star",
        )


def _default_weights(n: int) -> np.ndarray:
    """Deterministic, distinct, sum-to-one weights.

    Distinct values (1, 2, …, n scaled) catch transposition and mirroring bugs
    that symmetric weights would mask; normalising to 1 keeps repeated
    application numerically stable in examples and fusion tests.
    """
    w = np.arange(1.0, n + 1.0)
    return w / w.sum()
