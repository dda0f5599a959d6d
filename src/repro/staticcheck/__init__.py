"""repro.staticcheck — the determinism & safety static analyzer.

Five layers behind one finding model and one reporter (see DESIGN.md
"Static checks"):

1. **AST determinism/numerics linter** (:mod:`.rules_ast`, RPR001–006) —
   the bit-stability hazard classes the PR 3 differential harness caught
   dynamically, flagged in source text before anything runs.
2. **Plan/LUT static verifier** (:mod:`.plan_invariants`, RPR201–207) —
   proves the paper's stencil2row/dirty-zone/triangular-weights
   invariants on built (never executed) execution plans; auto-runs on
   every :class:`~repro.runtime.cache.PlanCache` insert under
   ``REPRO_STATICCHECK=1``.
3. **Concurrency discipline checker** (:mod:`.rules_concurrency`,
   RPR102–103) — `with`-only ordered locking and no blocking under the
   PlanCache global lock.
4. **Generated-kernel prover** (:mod:`.symexec`, RPR400–406) — abstract
   interpretation of the ``compiled`` backend's generated source against
   its plan: strided-view bounds, gather-LUT bounds, Eq.-13 chunk
   tiling, GEMM conformance, float64 end-to-end, deterministic op
   order.  Gates the compiled-kernel cache under ``REPRO_STATICCHECK=1``
   exactly as layer 2 gates plan inserts.
5. **Asyncio concurrency rules** (:mod:`.rules_async`, RPR301–304) —
   the serve/obs hazard shapes: await under a sync lock, blocking calls
   in coroutines, fire-and-forget tasks, executor dispatch under the
   service lock.

Entry points: ``repro lint`` on the command line (``--format
text|json|sarif``, ``--prune-baseline``), :func:`run_lint` /
:func:`check_plan` / :func:`check_generated` from tests.  Suppress
intentionally exempt lines with ``# staticcheck: disable=RPR00x``.
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
from repro.staticcheck.report import (
    DEFAULT_BASELINE,
    load_baseline,
    prune_baseline,
    render_json,
    render_sarif,
    render_text,
    write_baseline,
)
from repro.staticcheck.symexec import (
    check_gemm_spec,
    check_generated,
    check_generated_catalog,
)

__all__ = [
    "DEFAULT_BASELINE",
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
    "load_baseline",
    "prune_baseline",
    "render_json",
    "render_sarif",
    "render_text",
    "run_lint",
    "sort_findings",
    "source_snippet",
    "staticcheck_enabled",
    "write_baseline",
]
