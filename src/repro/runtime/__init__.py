"""Pluggable execution runtime: plans, plan caching, and backends.

The paper wins by precomputing its lookup tables and weight matrices once
and reusing them across time iterations (§3.4, Table 5); related work
shows the execution substrate is the dominant performance knob.  This
package is both ideas as architecture:

* :class:`ExecutionPlan` — everything shape-invariant for a
  ``(kernel, grid_shape, boundary, fusion_depth)`` problem: stencil2row
  gather LUTs, triangular weight matrices, halo geometry, 3-D plane
  decompositions, Toeplitz bands, and an execution strategy per pass
  (``gemm``, ``direct`` or ``toeplitz``), a pure function of the pass
  kernel unless pinned;
* :class:`PlanCache` — a bounded LRU sharing plans across runs, whose
  own hit/miss/eviction counts (``PlanCache.stats``) are what the obs
  snapshot and exporter report;
* :class:`Backend` — the engine that runs a pinned ``gemm`` pass, with
  four built-ins: ``serial`` (plan-driven vectorised engines, the
  default), ``compiled`` (shape-pinned generated kernels,
  :mod:`repro.codegen.compiled`), ``reference`` (plan-free ground truth
  for differential testing), and ``tiled`` (axis-0 slabs on a thread
  pool, :mod:`repro.runtime.tiled`);
* :func:`execute` / :func:`execute_batch` / :func:`execute_pass` — the
  single sequencing path every public API call funnels through.

Typical use::

    from repro import ConvStencil, get_kernel
    cs = ConvStencil(get_kernel("heat-2d"))
    out = cs.run(grid, steps=50)        # plan built once, reused 50×

or one level lower, pinning the paper's dual tessellation and choosing
the engine that runs it::

    from repro.runtime import execute, plan_for
    plan = plan_for(kernel, grid.shape, grid.boundary, strategy="gemm")
    out = execute(plan, grid.data, steps=50, backend="compiled")

A backend only runs ``gemm`` passes, which the strategy rule never picks,
so it is chosen by the caller that pins the pass; there is no
process-wide backend switch.
"""

from repro.runtime.backends import (
    Backend,
    ReferenceBackend,
    SerialBackend,
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
    "Backend",
    "CompiledBackend",
    "ExecutionPlan",
    "PassPlan",
    "PlanCache",
    "ReferenceBackend",
    "SerialBackend",
    "TiledBackend",
    "build_plan",
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
