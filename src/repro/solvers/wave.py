"""Leap-frog integrator for the scalar wave equation.

``u_tt = c² ∇²u`` advanced with the standard three-level scheme::

    u^{n+1} = 2 u^n - u^{n-1} + (c Δt / Δx)² ∇²u^n

The Laplacian sweep is one ConvStencil pass per step; the spatial operator
is pluggable (2nd-order 5-point by default, 4th-order 13-point optional —
both from the application-kernel library).
"""

from __future__ import annotations

import numpy as np

from repro import obs, telemetry
from repro.core.api import ConvStencil
from repro.errors import ReproError
from repro.stencils.applications import get_application_kernel

__all__ = ["LeapfrogWave"]

_OPERATORS = {2: "laplace-2d-5p", 4: "laplace-2d-13p"}
#: CFL limits of the two operators (uniform grid, 2-D).
_CFL_LIMIT = {2: 1.0 / np.sqrt(2.0), 4: np.sqrt(3.0 / 8.0)}


class LeapfrogWave:
    """Explicit wave propagation with energy tracking.

    ``courant`` is ``c Δt / Δx``; construction rejects values beyond the
    operator's CFL stability limit.
    """

    def __init__(self, courant: float = 0.5, spatial_order: int = 2) -> None:
        if spatial_order not in _OPERATORS:
            raise ReproError(
                f"spatial_order must be one of {sorted(_OPERATORS)}, got {spatial_order}"
            )
        if not 0 < courant <= _CFL_LIMIT[spatial_order]:
            raise ReproError(
                f"courant {courant} violates the CFL limit "
                f"{_CFL_LIMIT[spatial_order]:.3f} of the order-{spatial_order} scheme"
            )
        self.courant = courant
        self.spatial_order = spatial_order
        self._laplacian = ConvStencil(get_application_kernel(_OPERATORS[spatial_order]))
        self.prev: np.ndarray | None = None
        self.curr: np.ndarray | None = None

    def initialize(self, displacement: np.ndarray, velocity: np.ndarray | None = None) -> None:
        """Set ``u^0`` and (optionally) an initial velocity field.

        The missing ``u^{-1}`` level is synthesised with the standard
        2nd-order Taylor start: ``u^{-1} = u^0 - Δt v + (Δt²/2) c² ∇²u^0``.
        """
        u0 = np.asarray(displacement, dtype=np.float64)
        if u0.ndim != 2:
            raise ReproError(f"expected a 2-D displacement field, got {u0.ndim}-D")
        lap = self._laplacian.run(u0, steps=1)
        c2 = self.courant**2
        v = np.zeros_like(u0) if velocity is None else np.asarray(velocity, dtype=np.float64)
        if v.shape != u0.shape:
            raise ReproError("velocity must match the displacement shape")
        self.curr = u0
        self.prev = u0 - v + 0.5 * c2 * lap

    def step(self, n: int = 1) -> np.ndarray:
        """Advance ``n`` time steps; returns the current displacement."""
        if self.curr is None or self.prev is None:
            raise ReproError("call initialize() before step()")
        if n < 0:
            raise ReproError(f"n must be non-negative, got {n}")
        c2 = self.courant**2
        with telemetry.span(
            "wave.step", n=n, courant=self.courant,
            spatial_order=self.spatial_order, shape=self.curr.shape,
        ):
            for _ in range(n):
                lap = self._laplacian.run(self.curr, steps=1)
                nxt = 2.0 * self.curr - self.prev + c2 * lap
                self.prev, self.curr = self.curr, nxt
        obs.count("solver.wave.steps", n)
        return self.curr

    def energy(self) -> float:
        """Discrete energy ``Σ (u_t)² + c² |∇u|²`` (bounded for stable runs)."""
        if self.curr is None or self.prev is None:
            raise ReproError("call initialize() before energy()")
        ut = self.curr - self.prev
        gx = np.diff(self.curr, axis=0)
        gy = np.diff(self.curr, axis=1)
        e = float((ut**2).sum() + self.courant**2 * ((gx**2).sum() + (gy**2).sum()))
        obs.set_gauge("solver.wave.energy", e)
        return e
