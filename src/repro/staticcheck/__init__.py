"""repro.staticcheck — the determinism & safety static analyzer.

Five layers behind one finding model and one reporter (see DESIGN.md
"Static analysis"):

1. **AST determinism rules** (:mod:`.rules_ast`, RPR002, RPR004,
   RPR006) — unpinned GEMMs in engine hot paths, unseeded or global
   RNG and clock reads, and swallowed exceptions, flagged in source text
   before anything runs.
2. **Plan/LUT static verifier** (:mod:`.plan_invariants`, RPR201–204,
   RPR206, RPR207) — proves the paper's stencil2row/dirty-zone/
   triangular-weights invariants on built (never executed) execution
   plans; auto-runs on every :class:`~repro.runtime.cache.PlanCache`
   insert under ``REPRO_STATICCHECK=1``.
3. **Concurrency discipline checker** (:mod:`.rules_concurrency`,
   RPR102–103) — `with`-only ordered locking and no blocking under the
   PlanCache global lock.
4. **Generated-kernel prover** (:mod:`.symexec`, RPR400–401,
   RPR403–406) — abstract interpretation of the ``compiled`` backend's
   generated source against its plan: strided-view bounds, Eq.-13 chunk
   tiling, GEMM conformance, float64 end-to-end, deterministic op
   order.  Gates the compiled-kernel cache under ``REPRO_STATICCHECK=1``
   exactly as layer 2 gates plan inserts.
5. **Asyncio concurrency rules** (:mod:`.rules_async`, RPR301–305) —
   the serve/obs hazard shapes: await under a sync lock, blocking calls
   in coroutines, fire-and-forget tasks, executor dispatch under the
   service lock, and serve hand-offs that drop the trace context.

A module that does not parse is itself a finding, RPR000.  Entry points:
``repro lint`` on the command line (``--format text|json``,
``--no-plans``), :func:`run_lint` / :func:`check_plan` /
:func:`check_generated` from tests.  Suppress an intentionally exempt
line with a trailing ``# staticcheck: disable=RPRxxx``.
"""

from repro.staticcheck.engine import (
    GEMM_PINNED_MARK,
    STATICCHECK_ENV,
    LintResult,
    ModuleSource,
    all_rules,
    default_paths,
    lint_paths,
    lint_sources,
    run_lint,
    staticcheck_enabled,
)
from repro.staticcheck.finding import (
    Finding,
    SEVERITIES,
    sort_findings,
    source_snippet,
)
from repro.staticcheck.plan_invariants import (
    check_plan,
    check_plan_catalog,
    eq13_mma_count,
)
from repro.staticcheck.report import render_json, render_text
from repro.staticcheck.symexec import (
    check_gemm_spec,
    check_generated,
    check_generated_catalog,
)

__all__ = [
    "Finding",
    "GEMM_PINNED_MARK",
    "LintResult",
    "ModuleSource",
    "SEVERITIES",
    "STATICCHECK_ENV",
    "all_rules",
    "check_gemm_spec",
    "check_generated",
    "check_generated_catalog",
    "check_plan",
    "check_plan_catalog",
    "default_paths",
    "eq13_mma_count",
    "lint_paths",
    "lint_sources",
    "render_json",
    "render_text",
    "run_lint",
    "sort_findings",
    "source_snippet",
    "staticcheck_enabled",
]
