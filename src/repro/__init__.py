"""ConvStencil reproduction: stencil computation as matrix multiplication.

A faithful Python reimplementation of *ConvStencil: Transform Stencil
Computation to Matrix Multiplication on Tensor Cores* (PPoPP '24),
comprising the stencil2row layout transformation, dual tessellation with
triangular weight matrices, temporal kernel fusion, conflict-removal
machinery, a Tensor-Core/GPU simulator substrate, the paper's performance
model, and the five comparison baselines.

Quickstart::

    import numpy as np
    from repro import ConvStencil, Grid, get_kernel

    grid = Grid.random((512, 512))
    cs = ConvStencil(get_kernel("box-2d9p"), fusion="auto")
    out = cs.run(grid, steps=12)

Execution is routed through :mod:`repro.runtime` — cached
:class:`ExecutionPlan` objects whose strategy rule picks how each pass
runs.  A :class:`Backend` (``"serial"``, ``"compiled"``, ``"reference"``,
or anything registered via :func:`repro.runtime.register_backend`; see
:func:`list_backends`) runs only a pass pinned to the paper's dual
tessellation, and is chosen by the caller that pins it.

Serving::

    import asyncio
    from repro import Request, ServeConfig, StencilService, get_kernel

    async def main():
        async with StencilService(ServeConfig(lanes=2)) as svc:
            resp = await svc.submit(
                Request("acme", kernel=get_kernel("heat-2d"), data=x, steps=4)
            )
            assert resp.ok

**Stable vs. internal API.**  Everything in ``__all__`` below is the
stable surface: the kernel/grid vocabulary (:class:`StencilKernel`,
:class:`Grid`, :class:`BoundaryCondition`, :func:`get_kernel`), the
execution engine (:class:`ConvStencil`, :func:`plan_for`,
:class:`Backend` registration), and the serving layer
(:class:`StencilService`, :class:`ServeConfig`, :class:`TenantQuota`,
:class:`Request`, :class:`Response`).  Stable entry points are
keyword-only past their positional inputs (``cs.run(grid, steps=12)``)
and follow one vocabulary: ``steps``, ``fusion``, ``boundary``,
``fill_value``, and ``backend`` where a pinned pass is run
(:func:`repro.runtime.execute`).  Submodules reachable only by import path
(:mod:`repro.core.engine2d`, :mod:`repro.runtime.plan`,
:mod:`repro.obs.collector`, …) are internal: their contents may change
between releases without a deprecation cycle.
"""

from repro._version import __version__
from repro.core import ConvStencil, convstencil_valid
from repro.runtime import (
    Backend,
    ExecutionPlan,
    PlanCache,
    get_backend,
    list_backends,
    plan_for,
    register_backend,
)
from repro.serve import (
    Request,
    Response,
    ServeConfig,
    StencilService,
    TenantQuota,
)
from repro.stencils import (
    BENCHMARKS,
    BoundaryCondition,
    Grid,
    StencilKernel,
    apply_stencil_reference,
    get_benchmark,
    get_kernel,
    list_kernels,
    run_reference,
)

__all__ = [
    "BENCHMARKS",
    "Backend",
    "BoundaryCondition",
    "ConvStencil",
    "ExecutionPlan",
    "Grid",
    "PlanCache",
    "Request",
    "Response",
    "ServeConfig",
    "StencilKernel",
    "StencilService",
    "TenantQuota",
    "__version__",
    "apply_stencil_reference",
    "convstencil_valid",
    "get_backend",
    "get_benchmark",
    "get_kernel",
    "list_backends",
    "list_kernels",
    "plan_for",
    "register_backend",
    "run_reference",
]
