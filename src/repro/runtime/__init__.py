"""Pluggable execution runtime: plans, plan caching, and backends.

The paper wins by precomputing its lookup tables and weight matrices once
and reusing them across time iterations (§3.4, Table 5); related work
shows the execution substrate is the dominant performance knob.  This
package is both ideas as architecture:

* :class:`ExecutionPlan` — everything shape-invariant for a
  ``(kernel, grid_shape, boundary, fusion_depth)`` problem: stencil2row
  gather LUTs, triangular weight matrices, halo geometry, 3-D plane
  decompositions, and an execution strategy per pass (``gemm`` or
  ``direct``), a pure function of the pass kernel and the grid size;
* :class:`PlanCache` — a bounded, telemetry-instrumented LRU sharing
  plans across runs (``runtime.plan_cache.*`` metrics);
* :class:`Backend` — the execution protocol, with four built-ins:
  ``serial`` (plan-driven vectorised engines, the default), ``compiled``
  (shape-pinned generated kernels, :mod:`repro.codegen.compiled`),
  ``reference`` (plan-free ground truth for differential testing), and
  ``tiled`` (axis-0 slabs on a thread pool, :mod:`repro.runtime.tiled`);
* :func:`execute` / :func:`execute_batch` / :func:`execute_pass` — the
  single sequencing path every public API call funnels through.

Typical use::

    from repro import ConvStencil, get_kernel
    cs = ConvStencil(get_kernel("heat-2d"), backend="compiled")
    out = cs.run(grid, steps=50)        # plan built once, reused 50×

or one level lower::

    from repro.runtime import execute, plan_for
    plan = plan_for(kernel, grid.shape, grid.boundary, fusion="auto")
    out = execute(plan, grid.data, steps=50, backend="compiled")

The default backend is ``serial``; set ``REPRO_BACKEND=compiled`` (or pass
``backend=``) to switch every run in the process.
"""

from repro.runtime.backends import (
    BACKEND_ENV,
    Backend,
    ReferenceBackend,
    SerialBackend,
    default_backend_name,
    get_backend,
    list_backends,
    register_backend,
)
from repro.runtime.cache import PlanCache, get_plan_cache, set_plan_cache
from repro.runtime.execute import execute, execute_batch, execute_pass, plan_for
from repro.runtime.plan import (
    ExecutionPlan,
    PassPlan,
    build_plan,
    plan_key,
)
from repro.runtime.compiled import CompiledBackend
from repro.runtime.tiled import TiledBackend

__all__ = [
    "BACKEND_ENV",
    "Backend",
    "CompiledBackend",
    "ExecutionPlan",
    "PassPlan",
    "PlanCache",
    "ReferenceBackend",
    "SerialBackend",
    "TiledBackend",
    "build_plan",
    "default_backend_name",
    "execute",
    "execute_batch",
    "execute_pass",
    "get_backend",
    "get_plan_cache",
    "list_backends",
    "plan_for",
    "plan_key",
    "register_backend",
    "set_plan_cache",
]
