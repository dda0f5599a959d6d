"""Jacobi relaxation for the 2-D Poisson equation.

Solves ``∇²u = f`` on the unit-spaced interior with Dirichlet boundary
values, by the classic fixed-point iteration::

    u_{k+1}(i,j) = ( u_k neighbours' mean ) - f(i,j) / 4

The neighbour average is a 5-point star stencil with a zero centre — one
ConvStencil pass per sweep — making this the canonical "iterative stencil
loop" workload of the paper's §1 application list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro import obs, telemetry
from repro.core.api import ConvStencil
from repro.errors import ReproError
from repro.stencils.kernel import StencilKernel

__all__ = ["JacobiPoisson", "JacobiResult"]


@dataclass
class JacobiResult:
    """Outcome of a Jacobi solve."""

    solution: np.ndarray
    iterations: int
    converged: bool
    residual_history: List[float]

    @property
    def final_residual(self) -> float:
        return self.residual_history[-1] if self.residual_history else np.inf


class JacobiPoisson:
    """Jacobi solver for ``∇²u = f`` with Dirichlet boundaries.

    ``boundary_values`` is a full-grid array whose edge ring supplies the
    fixed boundary condition (interior entries are ignored).
    """

    #: neighbour-mean kernel: 5-point star, centre 0, neighbours 1/4
    _SWEEP = StencilKernel.star(
        2, 1, weights=[0.25, 0.25, 0.0, 0.25, 0.25], name="jacobi-sweep"
    )

    def __init__(self, tol: float = 1e-6, max_iterations: int = 10_000) -> None:
        if tol <= 0:
            raise ReproError(f"tolerance must be positive, got {tol}")
        if max_iterations < 1:
            raise ReproError(f"max_iterations must be >= 1, got {max_iterations}")
        self.tol = tol
        self.max_iterations = max_iterations
        self._engine = ConvStencil(self._SWEEP)

    def residual(self, u: np.ndarray, f: np.ndarray) -> float:
        """Max-norm of ``∇²u - f`` on the interior."""
        lap = (
            u[:-2, 1:-1] + u[2:, 1:-1] + u[1:-1, :-2] + u[1:-1, 2:] - 4.0 * u[1:-1, 1:-1]
        )
        return float(np.abs(lap - f[1:-1, 1:-1]).max())

    def solve(
        self,
        f: np.ndarray,
        boundary_values: np.ndarray | None = None,
        u0: np.ndarray | None = None,
        record_every: int = 10,
    ) -> JacobiResult:
        """Iterate until the interior residual drops below ``tol``."""
        f = np.asarray(f, dtype=np.float64)
        if f.ndim != 2 or min(f.shape) < 3:
            raise ReproError(f"need a 2-D grid of at least 3x3, got {f.shape}")
        if boundary_values is None:
            boundary_values = np.zeros_like(f)
        boundary_values = np.asarray(boundary_values, dtype=np.float64)
        if boundary_values.shape != f.shape:
            raise ReproError("boundary_values must match the grid shape")
        u = np.array(u0, dtype=np.float64) if u0 is not None else np.zeros_like(f)
        if u.shape != f.shape:
            raise ReproError("u0 must match the grid shape")
        _impose_boundary(u, boundary_values)

        history: List[float] = []
        with telemetry.span(
            "jacobi.solve", shape=f.shape, tol=self.tol
        ) as solve_span:
            for it in range(1, self.max_iterations + 1):
                swept = self._engine.run(u, steps=1)  # neighbour mean (interior-correct)
                u_next = swept - 0.25 * f
                _impose_boundary(u_next, boundary_values)
                u = u_next
                if it % record_every == 0 or it == self.max_iterations:
                    res = self.residual(u, f)
                    history.append(res)
                    obs.set_gauge("solver.jacobi.residual", res)
                    obs.set_gauge("solver.jacobi.iterations", it)
                    if res < self.tol:
                        solve_span.set_attribute("iterations", it)
                        solve_span.set_attribute("converged", True)
                        return JacobiResult(
                            solution=u,
                            iterations=it,
                            converged=True,
                            residual_history=history,
                        )
            solve_span.set_attribute("iterations", self.max_iterations)
            solve_span.set_attribute("converged", False)
        return JacobiResult(
            solution=u,
            iterations=self.max_iterations,
            converged=False,
            residual_history=history,
        )


def _impose_boundary(u: np.ndarray, boundary_values: np.ndarray) -> None:
    u[0, :] = boundary_values[0, :]
    u[-1, :] = boundary_values[-1, :]
    u[:, 0] = boundary_values[:, 0]
    u[:, -1] = boundary_values[:, -1]
