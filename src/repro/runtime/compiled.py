"""The ``compiled`` backend: plan-driven, shape-pinned generated kernels.

Where :class:`~repro.runtime.backends.SerialBackend` interprets each
:class:`~repro.runtime.plan.PassPlan` through the generic
:mod:`repro.core` engines, this backend hands the plan to
:mod:`repro.codegen.compiled`, which lowers it once into straight-line
stacked-GEMM NumPy source (every branch resolved at generation time),
``exec``-compiles it, and caches the kernel per plan key.  Results are
bit-identical to ``serial``/``reference`` — the generated code performs
the same floating-point operations in the same order.  The 2-D kernel
takes a stack of grids, so a single 2-D grid runs as a stack of one and
both entry points share one kernel per plan key.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.codegen.compiled import get_compiled_pass
from repro.runtime.backends import Backend, register_backend

__all__ = ["CompiledBackend"]


class CompiledBackend(Backend):
    """Executes passes through exec-compiled, shape-pinned generated kernels."""

    name = "compiled"

    def apply_pass(self, pp, padded: np.ndarray) -> np.ndarray:
        """Run one pass through the generated kernel for this plan (a 2-D
        grid as a stack of one)."""
        with _span(pp, padded):
            if pp.ndim == 2:
                return get_compiled_pass(pp)(padded[None])[0]
            return get_compiled_pass(pp)(padded)

    def apply_pass_batch(self, pp, padded: np.ndarray) -> np.ndarray:
        """Batched pass: the pinned batch-axis kernel in 2-D, the base-class
        per-grid loop elsewhere or when a subclass overrides
        :meth:`apply_pass` (matching ``serial``'s dispatch)."""
        if pp.ndim == 2 and len(padded) and type(self).apply_pass is CompiledBackend.apply_pass:
            with _span(pp, padded):
                return get_compiled_pass(pp)(padded)
        return super().apply_pass_batch(pp, padded)


def _span(pp, padded: np.ndarray):
    """The ``dual_tessellation`` span the ``serial`` engines emit, so a
    trace names the same phase on both GEMM backends."""
    return telemetry.span("dual_tessellation", kernel=pp.kernel.name, shape=padded.shape)


register_backend("compiled", CompiledBackend)
