"""Public ConvStencil API.

:class:`ConvStencil` bundles a stencil kernel with an optional temporal
fusion plan and executes time iterations through the pluggable
:mod:`repro.runtime` — cached execution plans plus a swappable backend::

    from repro import ConvStencil, get_kernel
    cs = ConvStencil(get_kernel("box-2d9p"), fusion="auto", backend="compiled")
    out = cs.run(grid, steps=12)

Boundary semantics match the reference executors: each pass pads the grid by
the pass kernel's radius using the grid's boundary condition.  With fusion
depth ``d > 1`` one pass advances ``d`` time steps reading a ``d·r`` halo —
the same ghost-zone semantics the paper's fused GPU kernels use, so results
are identical to unfused execution under periodic halos and in the interior
(``≥ d·r`` from the boundary) under constant halos.

``run`` and ``run_batch`` resolve boundary metadata identically: a
:class:`~repro.stencils.grid.Grid` (or a list of them) carries its own
boundary condition, and passing an explicit ``boundary=``/``fill_value=``
alongside one raises :class:`ValueError` rather than silently picking a
winner.  Raw arrays default to constant/0.0 padding.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.core.engine1d import convstencil_valid_1d
from repro.core.engine2d import convstencil_valid_2d
from repro.core.engine3d import convstencil_valid_3d
from repro.core.fusion import FusionPlan, plan_fusion
from repro.errors import KernelError
from repro.stencils.grid import BoundaryCondition, Grid
from repro.stencils.kernel import StencilKernel

__all__ = ["ConvStencil", "convstencil_valid"]

_ENGINES = {
    1: convstencil_valid_1d,
    2: convstencil_valid_2d,
    3: convstencil_valid_3d,
}


def convstencil_valid(padded: np.ndarray, kernel: StencilKernel) -> np.ndarray:
    """Single valid-region dual-tessellation pass for 1-, 2-, or 3-D data."""
    try:
        engine = _ENGINES[kernel.ndim]
    except KeyError:  # pragma: no cover - kernel validation forbids this
        raise KernelError(f"unsupported dimensionality {kernel.ndim}")
    return engine(np.asarray(padded, dtype=np.float64), kernel)


def _resolve_boundary(
    source: str,
    grid_boundary: "BoundaryCondition | None",
    grid_fill: "float | None",
    boundary: "BoundaryCondition | str | None",
    fill_value: "float | None",
) -> Tuple[BoundaryCondition, float]:
    """Shared boundary/fill precedence for ``run`` and ``run_batch``.

    A :class:`Grid` is authoritative for its own boundary metadata;
    explicit keyword arguments alongside one are a contradiction and raise
    ``ValueError`` (historically they were silently ignored).  Raw arrays
    take the keywords, defaulting to constant/0.0.
    """
    if grid_boundary is not None:
        if boundary is not None:
            raise ValueError(
                f"{source} received both a Grid (boundary="
                f"{grid_boundary.value!r}) and an explicit boundary="
                f"{boundary!r}; the Grid carries its own boundary condition "
                "— drop the keyword or pass a raw array"
            )
        if fill_value is not None:
            raise ValueError(
                f"{source} received both a Grid and an explicit fill_value=; "
                "the Grid carries its own fill value — drop the keyword or "
                "pass a raw array"
            )
        return grid_boundary, float(grid_fill if grid_fill is not None else 0.0)
    resolved = (
        BoundaryCondition(boundary)
        if boundary is not None
        else BoundaryCondition.CONSTANT
    )
    return resolved, float(fill_value if fill_value is not None else 0.0)


class ConvStencil:
    """Stencil executor built on stencil2row + dual tessellation.

    Parameters
    ----------
    kernel:
        The stencil to apply each time step.
    fusion:
        ``1`` (default, no fusion), a positive integer depth, or ``"auto"``
        to densify Tensor-Core fragments per §3.3 (e.g. Box-2D9P → depth 3).
    backend:
        Execution backend: a registered name (``"serial"``, ``"compiled"``,
        ``"reference"``, or anything added via
        :func:`repro.runtime.register_backend`), a
        :class:`~repro.runtime.Backend` instance, or ``None`` for the
        process default (``REPRO_BACKEND`` environment variable, else
        ``"serial"``).
    """

    def __init__(
        self,
        kernel: StencilKernel,
        fusion: "int | str" = 1,
        backend: "str | object | None" = None,
    ) -> None:
        self.kernel = kernel
        self.plan: FusionPlan = plan_fusion(kernel, fusion)
        self.backend = backend

    @property
    def fused_kernel(self) -> StencilKernel:
        """The kernel actually executed per pass (``kernel`` composed
        ``fusion`` times)."""
        return self.plan.fused

    @property
    def fusion_depth(self) -> int:
        """Time steps advanced per dual-tessellation pass."""
        return self.plan.depth

    @property
    def backend_name(self) -> str:
        """Resolved name of the backend this instance executes on."""
        from repro.runtime import get_backend

        return get_backend(self.backend).name

    def _plan_for(self, grid_shape: Tuple[int, ...], boundary: BoundaryCondition):
        from repro.runtime import plan_for

        return plan_for(self.kernel, grid_shape, boundary, self.plan)

    def apply_valid(self, padded: np.ndarray) -> np.ndarray:
        """One fused pass over an already-padded array (valid region out)."""
        from repro.runtime import execute_pass

        padded = np.asarray(padded, dtype=np.float64)
        if padded.ndim != self.kernel.ndim:
            raise KernelError(
                f"{self.kernel.ndim}-D kernel applied to {padded.ndim}-D data"
            )
        grid_shape = tuple(s - (self.plan.fused.edge - 1) for s in padded.shape)
        if any(s < 1 for s in grid_shape):
            # Too small for one valid output; let the engine raise its
            # canonical TessellationError.
            return convstencil_valid(padded, self.plan.fused)
        ep = self._plan_for(grid_shape, BoundaryCondition.CONSTANT)
        return execute_pass(ep.fused_pass, padded, self.backend)

    def run(
        self,
        grid: "Grid | np.ndarray",
        *,
        steps: int,
        boundary: "BoundaryCondition | str | None" = None,
        fill_value: "float | None" = None,
    ) -> np.ndarray:
        """Advance ``steps`` time steps and return the final same-shape array.

        Everything past ``grid`` is keyword-only: ``run(x, steps=4,
        boundary="periodic")``.

        If ``grid`` is a :class:`~repro.stencils.grid.Grid` its boundary
        metadata is used (passing ``boundary=``/``fill_value=`` too raises
        ``ValueError``).  Fused passes cover ``steps // depth`` iterations;
        any remainder runs unfused so the requested step count is always
        honoured exactly.
        """
        from repro.runtime import execute

        if steps < 0:
            raise ValueError(f"steps must be non-negative, got {steps}")
        if isinstance(grid, Grid):
            data = grid.data
            bc, fill = _resolve_boundary(
                "run", grid.boundary, grid.fill_value, boundary, fill_value
            )
        else:
            data = np.asarray(grid, dtype=np.float64)
            bc, fill = _resolve_boundary("run", None, None, boundary, fill_value)
        if data.ndim != self.kernel.ndim:
            raise KernelError(
                f"{self.kernel.ndim}-D kernel applied to {data.ndim}-D grid"
            )
        ep = self._plan_for(data.shape, bc)
        return execute(ep, data, steps, fill, self.backend)

    def run_batch(
        self,
        batch: "np.ndarray | Grid | Sequence[Grid] | Sequence[np.ndarray]",
        *,
        steps: int,
        boundary: "BoundaryCondition | str | None" = None,
        fill_value: "float | None" = None,
    ) -> np.ndarray:
        """Advance a batch of independent grids (leading batch axis).

        Everything past ``batch`` is keyword-only: ``run_batch(stack,
        steps=4)``.

        ``batch`` may be an array of shape ``(batch, *grid)``, a
        :class:`~repro.stencils.grid.Grid` holding such a stack, or a list
        of same-shape grids/:class:`Grid` objects.  Boundary precedence is
        identical to :meth:`run`: Grid metadata is authoritative (and must
        agree across a list); explicit keywords alongside Grids raise
        ``ValueError``.

        For 2-D kernels the whole batch shares each pass's tessellation
        sweep (one einsum over the stacked slices — the ensemble-simulation
        fast path) and padding is a single vectorised call; other
        dimensionalities loop per grid inside the backend.

        A shaped empty array (``np.empty((0, *grid))``) is a well-defined
        no-op returning an empty float64 result of the same shape; an empty
        *list* raises :class:`~repro.errors.ReproError` because it carries
        no grid shape.  ``steps=0`` returns a float64 copy of the input.
        """
        from repro.runtime import execute_batch

        if steps < 0:
            raise ValueError(f"steps must be non-negative, got {steps}")
        data, bc, fill = self._coerce_batch(batch, boundary, fill_value)
        ep = self._plan_for(data.shape[1:], bc)
        return execute_batch(ep, data, steps, fill, self.backend)

    def _coerce_batch(
        self,
        batch,
        boundary,
        fill_value,
    ) -> Tuple[np.ndarray, BoundaryCondition, float]:
        """Normalise every accepted batch form to (stack, boundary, fill)."""
        want = self.kernel.ndim + 1
        if isinstance(batch, Grid):
            if batch.ndim != want:
                raise KernelError(
                    f"run_batch expects (batch, *grid) data: {want}-D, got a "
                    f"{batch.ndim}-D Grid"
                )
            bc, fill = _resolve_boundary(
                "run_batch", batch.boundary, batch.fill_value, boundary, fill_value
            )
            return batch.data, bc, fill
        if isinstance(batch, (list, tuple)):
            if not batch:
                raise KernelError(
                    "run_batch received an empty list, which carries no grid "
                    "shape; pass a shaped empty array instead (e.g. "
                    "np.empty((0, 32, 32))) to get an empty result back"
                )
            if all(isinstance(g, Grid) for g in batch):
                first = batch[0]
                for g in batch[1:]:
                    if (
                        g.boundary is not first.boundary
                        or g.fill_value != first.fill_value
                    ):
                        raise ValueError(
                            "run_batch received Grids with differing boundary "
                            f"metadata ({first.boundary.value!r}/"
                            f"{first.fill_value!r} vs {g.boundary.value!r}/"
                            f"{g.fill_value!r}); batches share one boundary "
                            "condition"
                        )
                bc, fill = _resolve_boundary(
                    "run_batch", first.boundary, first.fill_value, boundary,
                    fill_value,
                )
                arrays = [g.data for g in batch]
            else:
                bc, fill = _resolve_boundary(
                    "run_batch", None, None, boundary, fill_value
                )
                arrays = [np.asarray(g, dtype=np.float64) for g in batch]
            shapes = {a.shape for a in arrays}
            if len(shapes) != 1:
                raise KernelError(
                    f"run_batch grids must share one shape, got {sorted(shapes)}"
                )
            data = np.stack(arrays)
        else:
            bc, fill = _resolve_boundary("run_batch", None, None, boundary, fill_value)
            data = np.asarray(batch, dtype=np.float64)
        if data.ndim != want:
            raise KernelError(
                f"run_batch expects (batch, *grid) data: {want}-D, "
                f"got {data.ndim}-D"
            )
        return data, bc, fill


class PinnedStencil(ConvStencil):
    """A :class:`ConvStencil` whose plans run every pass by one pinned
    execution strategy (``"gemm"`` or ``"direct"``) instead of the one
    :func:`~repro.runtime.plan.choose_strategy` picks.

    Internal, for harnesses that must reach a given path whatever the
    rule picks: ``repro verify`` runs every case under each strategy,
    and the CLI's ``--verify`` checks each strategy against the
    reference.
    Pinned plans go through the plan cache under their own key, so they
    are shared across backends but never stand in for the rule's plans.
    """

    def __init__(
        self,
        kernel: StencilKernel,
        strategy: str,
        fusion: "int | str" = 1,
        backend: "str | object | None" = None,
    ) -> None:
        from repro.runtime.plan import STRATEGIES

        if strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
        super().__init__(kernel, fusion=fusion, backend=backend)
        self.strategy = strategy

    def _plan_for(self, grid_shape: Tuple[int, ...], boundary: BoundaryCondition):
        from repro.runtime import plan_for

        return plan_for(
            self.kernel, grid_shape, boundary, self.plan, strategy=self.strategy
        )
