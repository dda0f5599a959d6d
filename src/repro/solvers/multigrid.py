"""Geometric multigrid (V-cycle) for the 2-D Poisson equation.

Multigrid is *the* production solver for the elliptic problems Jacobi
merely smooths — and every one of its component operators is a stencil,
executed here through ConvStencil:

* **smoother** — weighted Jacobi sweeps (5-point star);
* **restriction** — full-weighting (the 3×3 box ``[[1,2,1],[2,4,2],[1,2,1]]/16``)
  followed by coarse subsampling;
* **prolongation** — bilinear interpolation (the transpose stencil).

Grids are ``2^k + 1`` points per side with homogeneous Dirichlet
boundaries.  A V(ν₁,ν₂) cycle reduces the residual by roughly an order of
magnitude — hundreds of times faster than plain Jacobi, which the tests
demonstrate quantitatively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro import obs, telemetry
from repro.core.api import ConvStencil
from repro.errors import ReproError
from repro.stencils.kernel import StencilKernel

__all__ = ["MultigridPoisson", "MultigridResult"]

#: full-weighting restriction stencil
_FW = StencilKernel(
    name="full-weighting",
    weights=np.array([[1, 2, 1], [2, 4, 2], [1, 2, 1]], dtype=float) / 16.0,
    shape_kind="box",
)
#: Jacobi neighbour-mean sweep (5-point star, zero centre)
_SWEEP = StencilKernel.star(
    2, 1, weights=[0.25, 0.25, 0.0, 0.25, 0.25], name="jacobi-sweep"
)


@dataclass
class MultigridResult:
    """Outcome of a multigrid solve."""

    solution: np.ndarray
    cycles: int
    converged: bool
    residual_history: List[float]

    @property
    def final_residual(self) -> float:
        return self.residual_history[-1] if self.residual_history else np.inf

    def convergence_factor(self) -> float:
        """Geometric-mean residual reduction per V-cycle."""
        h = self.residual_history
        if len(h) < 2 or h[0] == 0:
            return 0.0
        return float((h[-1] / h[0]) ** (1.0 / (len(h) - 1)))


def _is_mg_size(n: int) -> bool:
    return n >= 3 and ((n - 1) & (n - 2)) == 0  # n == 2^k + 1


class MultigridPoisson:
    """V-cycle multigrid for ``∇²u = f`` (zero Dirichlet boundaries).

    ``pre_sweeps``/``post_sweeps`` are the Jacobi smoothing counts ν₁/ν₂;
    ``omega`` the damping (2/3 is optimal for 2-D Jacobi smoothing).
    """

    def __init__(
        self,
        pre_sweeps: int = 2,
        post_sweeps: int = 2,
        omega: float = 2.0 / 3.0,
        coarse_n: int = 3,
        tol: float = 1e-8,
        max_cycles: int = 50,
    ) -> None:
        if pre_sweeps < 0 or post_sweeps < 0 or pre_sweeps + post_sweeps == 0:
            raise ReproError("need at least one smoothing sweep per cycle")
        if not 0 < omega <= 1.0:
            raise ReproError(f"omega must be in (0, 1], got {omega}")
        if not _is_mg_size(coarse_n):
            raise ReproError(f"coarse_n must be 2^k + 1, got {coarse_n}")
        self.pre_sweeps = pre_sweeps
        self.post_sweeps = post_sweeps
        self.omega = omega
        self.coarse_n = coarse_n
        self.tol = tol
        self.max_cycles = max_cycles
        self._sweep = ConvStencil(_SWEEP)
        self._restrict = ConvStencil(_FW)

    # -- grid-transfer operators ------------------------------------------

    def restrict(self, fine: np.ndarray) -> np.ndarray:
        """Full-weighting restriction onto the 2×-coarser grid."""
        weighted = self._restrict.run(fine, steps=1)
        coarse = weighted[::2, ::2].copy()
        coarse[0, :] = coarse[-1, :] = coarse[:, 0] = coarse[:, -1] = 0.0
        return coarse

    @staticmethod
    def prolong(coarse: np.ndarray) -> np.ndarray:
        """Bilinear interpolation onto the 2×-finer grid."""
        nc = coarse.shape[0]
        nf = 2 * (nc - 1) + 1
        fine = np.zeros((nf, nf))
        fine[::2, ::2] = coarse
        fine[1::2, ::2] = 0.5 * (coarse[:-1, :] + coarse[1:, :])
        fine[::2, 1::2] = 0.5 * (coarse[:, :-1] + coarse[:, 1:])
        fine[1::2, 1::2] = 0.25 * (
            coarse[:-1, :-1] + coarse[1:, :-1] + coarse[:-1, 1:] + coarse[1:, 1:]
        )
        return fine

    # -- core cycle ----------------------------------------------------------

    def _smooth(self, u: np.ndarray, f: np.ndarray, sweeps: int) -> np.ndarray:
        for _ in range(sweeps):
            jac = self._sweep.run(u, steps=1) - 0.25 * f
            u = (1.0 - self.omega) * u + self.omega * jac
            u[0, :] = u[-1, :] = u[:, 0] = u[:, -1] = 0.0
        return u

    @staticmethod
    def residual_field(u: np.ndarray, f: np.ndarray) -> np.ndarray:
        """``f - ∇²u`` with zero boundary ring."""
        r = np.zeros_like(u)
        r[1:-1, 1:-1] = f[1:-1, 1:-1] - (
            u[:-2, 1:-1] + u[2:, 1:-1] + u[1:-1, :-2] + u[1:-1, 2:] - 4.0 * u[1:-1, 1:-1]
        )
        return r

    def v_cycle(self, u: np.ndarray, f: np.ndarray) -> np.ndarray:
        """One V(ν₁,ν₂) cycle."""
        n = u.shape[0]
        u = self._smooth(u, f, self.pre_sweeps)
        if n > self.coarse_n:
            coarse_r = self.restrict(self.residual_field(u, f))
            # unit-spacing coarse operator is (2h)²∇², so the restricted
            # residual scales by 4 to pose the coarse error equation
            coarse_e = self.v_cycle(np.zeros_like(coarse_r), 4.0 * coarse_r)
            u = u + self.prolong(coarse_e)
            u[0, :] = u[-1, :] = u[:, 0] = u[:, -1] = 0.0
        else:
            # coarsest grid: smooth to convergence
            u = self._smooth(u, f, 50)
        return self._smooth(u, f, self.post_sweeps)

    def solve(self, f: np.ndarray, u0: np.ndarray | None = None) -> MultigridResult:
        """Run V-cycles until the residual max-norm drops below ``tol``."""
        f = np.asarray(f, dtype=np.float64)
        if f.ndim != 2 or f.shape[0] != f.shape[1]:
            raise ReproError(f"multigrid needs a square 2-D grid, got {f.shape}")
        if not _is_mg_size(f.shape[0]):
            raise ReproError(
                f"grid side must be 2^k + 1 for coarsening, got {f.shape[0]}"
            )
        u = np.zeros_like(f) if u0 is None else np.array(u0, dtype=np.float64)
        history = [float(np.abs(self.residual_field(u, f)).max())]
        with telemetry.span(
            "multigrid.solve", shape=f.shape, tol=self.tol
        ) as solve_span:
            for cycle in range(1, self.max_cycles + 1):
                with telemetry.span("multigrid.vcycle", cycle=cycle):
                    u = self.v_cycle(u, f)
                res = float(np.abs(self.residual_field(u, f)).max())
                history.append(res)
                obs.set_gauge("solver.multigrid.residual", res)
                obs.set_gauge("solver.multigrid.cycles", cycle)
                if res < self.tol:
                    solve_span.set_attribute("cycles", cycle)
                    solve_span.set_attribute("converged", True)
                    return MultigridResult(
                        solution=u,
                        cycles=cycle,
                        converged=True,
                        residual_history=history,
                    )
            solve_span.set_attribute("cycles", self.max_cycles)
            solve_span.set_attribute("converged", False)
        return MultigridResult(
            solution=u, cycles=self.max_cycles, converged=False, residual_history=history
        )
