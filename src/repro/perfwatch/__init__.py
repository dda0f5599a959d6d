"""Continuous performance observability for the ConvStencil reproduction.

The paper's contribution *is* a performance claim (§5: 1.77×–2.77× over
tuned baselines), yet a reproduction without a measurement trajectory
would let any hot-path regression ship silently.  ``repro.perfwatch``
closes that gap:

* :mod:`~repro.perfwatch.suite` — a pinned workload suite (catalog
  kernels × backends × sizes, single and ensemble) measured with
* :mod:`~repro.perfwatch.timer` — warmup + repeat batches +
  median-of-batches point estimates, over an injectable clock, with
* :mod:`~repro.perfwatch.stats` — seeded bootstrap confidence intervals
  and the noise-aware gate (regression ⇔ CIs disjoint ∧ slowdown >
  threshold), carrying
* :mod:`~repro.perfwatch.counters` — paper-derived efficiency counters
  (Eq.-13 MMA totals, Table-3 footprint factors, model attainment,
  plan-cache hit rate), persisted by
* :mod:`~repro.perfwatch.baseline` — schema-versioned ``BENCH_PR<N>.json``
  documents with environment fingerprints, and rendered by
* :mod:`~repro.perfwatch.report` — the cross-PR trajectory dashboard.

Command-line surface (see ``python -m repro bench --help``)::

    python -m repro bench --quick               # measure, write BENCH_PR<N>.json
    python -m repro bench --check BENCH_PR5.json  # regression gate, exit 2 on fail
    python -m repro bench --report              # trajectory across committed baselines
"""

from repro.perfwatch.baseline import (
    CURRENT_PR,
    SCHEMA_VERSION,
    ComparisonResult,
    Verdict,
    compare,
    default_baseline_path,
    environment_fingerprint,
    load_baseline,
    make_report,
    write_baseline,
)
from repro.perfwatch.counters import efficiency_counters, plan_cache_delta
from repro.perfwatch.report import discover_baselines, render_run, render_trajectory
from repro.perfwatch.stats import (
    Interval,
    bootstrap_ci,
    gate,
    intervals_disjoint,
    median,
    relative_change,
)
from repro.perfwatch.suite import Workload, default_suite, run_check, run_suite
from repro.perfwatch.timer import (
    DEFAULT_CLOCK,
    FULL_SPEC,
    QUICK_SPEC,
    Timing,
    TimingSpec,
    time_callable,
)

__all__ = [
    "CURRENT_PR",
    "ComparisonResult",
    "DEFAULT_CLOCK",
    "FULL_SPEC",
    "Interval",
    "QUICK_SPEC",
    "SCHEMA_VERSION",
    "Timing",
    "TimingSpec",
    "Verdict",
    "Workload",
    "bootstrap_ci",
    "compare",
    "default_baseline_path",
    "default_suite",
    "discover_baselines",
    "efficiency_counters",
    "environment_fingerprint",
    "gate",
    "intervals_disjoint",
    "load_baseline",
    "make_report",
    "median",
    "plan_cache_delta",
    "relative_change",
    "render_run",
    "render_trajectory",
    "run_check",
    "run_suite",
    "time_callable",
    "write_baseline",
]
