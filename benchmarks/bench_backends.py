"""Backend comparison — GEMM-engine wall clock per backend, plan-cache effectiveness.

Not a paper figure: measures this library's :mod:`repro.runtime` execution
substrate.  Two questions:

* how does every registered optimised backend (all but the plan-free
  ``reference``) compare with ``serial`` on this host, with outputs
  checked bit-identical, and
* does the :class:`~repro.runtime.PlanCache` actually absorb repeated runs
  (hit rate across a 50-step loop should be well above 90%)?

Both results are read from the telemetry registry / span trace, so the
emitted numbers and the persisted trace are one measurement.  Backend
timings pin every pass to the ``gemm`` strategy (``PinnedStencil``): a
measured ``direct`` choice never reaches a backend, and would time the
same shifted-add kernel on both sides.

Runs standalone (CI smoke)::

    PYTHONPATH=src python benchmarks/bench_backends.py --quick

or under pytest-benchmark along with the other benches::

    pytest benchmarks/bench_backends.py --benchmark-only
"""

from __future__ import annotations

import argparse
import time
from typing import List, Tuple

import numpy as np

from _common import emit, emit_json, emit_obs
from repro import ConvStencil, get_kernel, obs, telemetry
from repro.core.api import PinnedStencil
from repro.runtime import PlanCache, get_plan_cache, list_backends, set_plan_cache
from repro.utils.rng import default_rng
from repro.utils.tables import format_table

#: (kernel, grid shape, steps) for the full comparison sweep.
CASES: List[Tuple[str, Tuple[int, ...], int]] = [
    ("heat-1d", (1_048_576,), 4),
    ("heat-2d", (1024, 1024), 4),
    ("box-2d49p", (1024, 1024), 2),
    ("heat-3d", (64, 64, 64), 2),
]
QUICK_CASES: List[Tuple[str, Tuple[int, ...], int]] = [
    ("heat-2d", (256, 256), 2),
]


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _compared_backends() -> List[str]:
    """``serial`` first, then every other registered backend but ``reference``."""
    others = [n for n in list_backends() if n not in ("serial", "reference")]
    return ["serial"] + others


def compare_backends(
    cases: List[Tuple[str, Tuple[int, ...], int]],
    repeats: int = 3,
) -> List[dict]:
    """Time each case on every compared backend; verify bit-identity while at it."""
    names = _compared_backends()
    rows = []
    for name, shape, steps in cases:
        kernel = get_kernel(name)
        x = default_rng(7).random(shape)
        solvers = {b: PinnedStencil(kernel, "gemm", backend=b) for b in names}
        # Warm-up (plans, compiled kernels) doubles as the identity check.
        outputs = {b: cs.run(x, steps=steps) for b, cs in solvers.items()}
        for b, out in outputs.items():
            if not np.array_equal(outputs["serial"], out):
                raise AssertionError(f"{name}: {b} output != serial output")
        seconds = {
            b: _best_of(lambda cs=cs: cs.run(x, steps=steps), repeats)
            for b, cs in solvers.items()
        }
        rows.append(
            {
                "kernel": name,
                "shape": "x".join(map(str, shape)),
                "steps": steps,
                "seconds": seconds,
                "speedup_vs_serial": {
                    b: seconds["serial"] / t for b, t in seconds.items() if b != "serial"
                },
                "bit_identical": True,
            }
        )
    return rows


def measure_cache_hit_rate(steps: int = 50) -> dict:
    """Plan-cache counters across a ``steps``-iteration run loop.

    Uses a fresh cache so the reported rate is this loop's alone; the
    per-step ``run`` pattern (one plan fetch per call, same problem every
    call) is the steady-state shape of a time-marching simulation.
    """
    previous = get_plan_cache()
    set_plan_cache(PlanCache())
    try:
        cs = ConvStencil(get_kernel("heat-2d"))
        x = default_rng(7).random((128, 128))
        for _ in range(steps):
            x = cs.run(x, steps=1)
        return dict(get_plan_cache().stats)
    finally:
        set_plan_cache(previous)


def run_suite(quick: bool = False) -> List[str]:
    level = obs.get_level()
    if not telemetry.enabled():
        obs.set_level("trace")
    try:
        rows = compare_backends(
            QUICK_CASES if quick else CASES,
            repeats=2 if quick else 3,
        )
        cache = measure_cache_hit_rate(steps=10 if quick else 50)
        names = _compared_backends()
        others = names[1:]
        table = format_table(
            ["kernel", "shape", "steps"]
            + [f"{b} [s]" for b in names]
            + [f"{b} speedup" for b in others],
            [
                (
                    r["kernel"],
                    r["shape"],
                    str(r["steps"]),
                    *(f"{r['seconds'][b]:.4f}" for b in names),
                    *(f"{r['speedup_vs_serial'][b]:.2f}x" for b in others),
                )
                for r in rows
            ],
            title=(
                "Backend comparison (gemm passes, speedup vs serial; "
                "all outputs bit-identical)"
            ),
        )
        cache_line = (
            f"Plan cache over a {cache['hits'] + cache['misses']}-fetch run loop: "
            f"{cache['hits']} hits / {cache['misses']} misses "
            f"(hit rate {100 * cache['hit_rate']:.1f}%)"
        )
        emit("backend_comparison", table + "\n\n" + cache_line)
        emit_json("backend_comparison", rows, plan_cache=cache)
        emit_obs("backend_comparison")
        return [table, cache_line]
    finally:
        obs.set_level(level)


# -- pytest-benchmark entry points ----------------------------------------


def test_bench_backend_serial(benchmark):
    import pytest

    pytest.importorskip("pytest_benchmark")
    kernel = get_kernel("heat-2d")
    x = default_rng(7).random((512, 512))
    cs = PinnedStencil(kernel, "gemm", backend="serial")
    benchmark(cs.run, x, steps=1)


def test_bench_backend_compiled(benchmark):
    import pytest

    pytest.importorskip("pytest_benchmark")
    kernel = get_kernel("heat-2d")
    x = default_rng(7).random((512, 512))
    cs = PinnedStencil(kernel, "gemm", backend="compiled")
    benchmark(cs.run, x, steps=1)


def test_bench_emit_backend_comparison(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    lines = run_suite(quick=True)
    assert any("hit rate" in line for line in lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="one small case, fewer repeats (CI smoke)",
    )
    args = parser.parse_args(argv)
    for block in run_suite(quick=args.quick):
        print(block)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
