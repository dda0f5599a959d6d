"""Common interface for baseline stencil engines."""

from __future__ import annotations

import abc
from typing import Tuple

import numpy as np

from repro.errors import BaselineError
from repro.gpu.specs import A100, DeviceSpec
from repro.stencils.grid import BoundaryCondition
from repro.stencils.kernel import StencilKernel

__all__ = ["StencilBaseline", "all_baselines"]


class StencilBaseline(abc.ABC):
    """A functional stencil engine standing in for one evaluated system.

    Subclasses implement :meth:`_step` (one time iteration, same-shape
    output); the shared :meth:`run` provides the time loop and validation.
    """

    #: System identifier matching :data:`repro.model.baseline_models.SYSTEMS`.
    name: str = "baseline"
    #: Dimensionalities the system supports.
    supported_ndim: Tuple[int, ...] = (1, 2, 3)

    def supports(self, kernel: StencilKernel) -> bool:
        """Whether this system can execute ``kernel`` at all."""
        return kernel.ndim in self.supported_ndim

    @abc.abstractmethod
    def _step(
        self,
        data: np.ndarray,
        kernel: StencilKernel,
        boundary: BoundaryCondition,
        fill_value: float,
    ) -> np.ndarray:
        """Advance one time step (same-shape output)."""

    def run(
        self,
        data: np.ndarray,
        kernel: StencilKernel,
        *,
        steps: int = 1,
        boundary: BoundaryCondition | str = BoundaryCondition.CONSTANT,
        fill_value: float = 0.0,
    ) -> np.ndarray:
        """Advance ``steps`` (default 1) time steps from ``data``.

        Everything past ``kernel`` is keyword-only: ``run(x, k, steps=4)``.
        """
        if steps < 0:
            raise BaselineError(f"steps must be non-negative, got {steps}")
        if not self.supports(kernel):
            raise BaselineError(f"{self.name} does not support kernel {kernel.name!r}")
        boundary = BoundaryCondition(boundary)
        out = np.asarray(data, dtype=np.float64)
        if out.ndim != kernel.ndim:
            raise BaselineError(
                f"{kernel.ndim}-D kernel applied to {out.ndim}-D data"
            )
        for _ in range(steps):
            out = self._step(out, kernel, boundary, fill_value)
        return out

    def modelled_throughput(
        self, kernel_name: str, shape: Tuple[int, ...] | None = None, spec: DeviceSpec = A100
    ):
        """Calibrated A100 throughput estimate for this system (may be None)."""
        from repro.model.baseline_models import system_throughput

        return system_throughput(self.name, kernel_name, shape, spec)


def all_baselines() -> dict:
    """Instantiate every baseline, keyed by system name."""
    from repro.baselines.amos import AmosStencil
    from repro.baselines.brick import BrickStencil
    from repro.baselines.direct_cuda import DirectStencil
    from repro.baselines.drstencil import DRStencil
    from repro.baselines.gemm_conv import GemmConvStencil
    from repro.baselines.tcstencil import TCStencil

    engines = [
        AmosStencil(),
        GemmConvStencil(),
        BrickStencil(),
        DRStencil(),
        TCStencil(),
        DirectStencil(),
    ]
    return {e.name: e for e in engines}
