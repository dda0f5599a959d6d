"""Forward-Euler heat/diffusion solver with an explicit stability check.

``u_t = α ∇²u`` advanced as ``u^{n+1} = u^n + r ∇²u^n`` with
``r = α Δt / Δx²``.  The update is a single stencil whose weights depend on
``r``; construction rejects unstable ``r`` (the positivity condition of the
explicit scheme), and execution uses ConvStencil with temporal fusion —
the exact workload class of the paper's Heat-1D/2D/3D benchmarks.
"""

from __future__ import annotations

import numpy as np

from repro import obs, telemetry
from repro.core.api import ConvStencil
from repro.errors import ReproError
from repro.stencils.grid import BoundaryCondition
from repro.stencils.kernel import StencilKernel

__all__ = ["HeatSolver"]

#: Stability bound of the explicit scheme: r <= 1 / (2 d).
_MAX_R = {1: 0.5, 2: 0.25, 3: 1.0 / 6.0}


class HeatSolver:
    """Explicit diffusion in 1, 2, or 3 dimensions."""

    def __init__(self, ndim: int = 2, r: float = 0.2, fusion: int | str = "auto") -> None:
        if ndim not in _MAX_R:
            raise ReproError(f"ndim must be 1, 2, or 3, got {ndim}")
        if not 0 < r <= _MAX_R[ndim]:
            raise ReproError(
                f"r = {r} is unstable for {ndim}-D explicit diffusion "
                f"(limit {_MAX_R[ndim]:.4f})"
            )
        self.ndim = ndim
        self.r = r
        centre = 1.0 - 2.0 * ndim * r
        weights = [r] * ndim + [centre] + [r] * ndim
        self.kernel = StencilKernel.star(ndim, 1, weights=weights, name=f"heat-{ndim}d-r{r}")
        self._engine = ConvStencil(self.kernel, fusion=fusion)

    @property
    def fusion_depth(self) -> int:
        return self._engine.fusion_depth

    def run(
        self,
        field: np.ndarray,
        *,
        steps: int,
        boundary: BoundaryCondition | str = BoundaryCondition.CONSTANT,
        fill_value: float = 0.0,
    ) -> np.ndarray:
        """Advance ``steps`` diffusion steps.

        Everything past ``field`` is keyword-only: ``run(u, steps=100,
        boundary="periodic")``.
        """
        field = np.asarray(field, dtype=np.float64)
        if field.ndim != self.ndim:
            raise ReproError(f"{self.ndim}-D solver given a {field.ndim}-D field")
        with telemetry.span(
            "heat.run", ndim=self.ndim, r=self.r, steps=steps,
            fusion_depth=self.fusion_depth, shape=field.shape,
        ):
            out = self._engine.run(
                field, steps=steps, boundary=boundary, fill_value=fill_value
            )
        obs.count("solver.heat.steps", steps)
        if obs.enabled():  # the mean is a full pass over the field
            obs.set_gauge("solver.heat.mean_temperature", float(out.mean()))
        return out
