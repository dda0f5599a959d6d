"""Backend comparison — serial vs tiled wall clock, plan-cache effectiveness.

Not a paper figure: measures this library's :mod:`repro.runtime` execution
substrate.  Two questions:

* does the ``tiled`` backend beat ``serial`` on this host (it should once
  the grid is large enough and more than one core exists — on a single-core
  container it reports the pool overhead instead), and
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
from typing import List, Optional, Tuple

import numpy as np

from _common import emit, emit_json, emit_obs
from repro import ConvStencil, get_kernel, telemetry
from repro.core.api import PinnedStencil
from repro.runtime import PlanCache, TiledBackend, get_plan_cache, set_plan_cache
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


def compare_backends(
    cases: List[Tuple[str, Tuple[int, ...], int]],
    repeats: int = 3,
    workers: Optional[int] = None,
    min_rows_per_tile: int = 64,
) -> List[dict]:
    """Time each case on serial and tiled; verify bit-identity while at it."""
    tiled = TiledBackend(workers=workers, min_rows_per_tile=min_rows_per_tile)
    rows = []
    try:
        for name, shape, steps in cases:
            kernel = get_kernel(name)
            x = default_rng(7).random(shape)
            serial_cs = PinnedStencil(kernel, "gemm", backend="serial")
            tiled_cs = PinnedStencil(kernel, "gemm", backend=tiled)
            out_serial = serial_cs.run(x, steps=steps)  # warm-up + identity check
            out_tiled = tiled_cs.run(x, steps=steps)
            if not np.array_equal(out_serial, out_tiled):
                raise AssertionError(f"{name}: tiled output != serial output")
            t_serial = _best_of(lambda: serial_cs.run(x, steps=steps), repeats)
            t_tiled = _best_of(lambda: tiled_cs.run(x, steps=steps), repeats)
            rows.append(
                {
                    "kernel": name,
                    "shape": "x".join(map(str, shape)),
                    "steps": steps,
                    "serial_s": t_serial,
                    "tiled_s": t_tiled,
                    "speedup": t_serial / t_tiled,
                    "workers": tiled.workers,
                    "bit_identical": True,
                }
            )
    finally:
        tiled.close()
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


def run_suite(quick: bool = False, workers: Optional[int] = None) -> List[str]:
    was_enabled = telemetry.enabled()
    telemetry.enable()
    try:
        rows = compare_backends(
            QUICK_CASES if quick else CASES,
            repeats=2 if quick else 3,
            workers=workers,
        )
        cache = measure_cache_hit_rate(steps=10 if quick else 50)
        table = format_table(
            ["kernel", "shape", "steps", "serial [s]", "tiled [s]", "speedup"],
            [
                (
                    r["kernel"],
                    r["shape"],
                    str(r["steps"]),
                    f"{r['serial_s']:.4f}",
                    f"{r['tiled_s']:.4f}",
                    f"{r['speedup']:.2f}x",
                )
                for r in rows
            ],
            title=(
                f"Backend comparison ({rows[0]['workers']} tiled worker(s); "
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
        if not was_enabled:
            telemetry.disable()


# -- pytest-benchmark entry points ----------------------------------------


def test_bench_backend_serial(benchmark):
    import pytest

    pytest.importorskip("pytest_benchmark")
    kernel = get_kernel("heat-2d")
    x = default_rng(7).random((512, 512))
    cs = PinnedStencil(kernel, "gemm", backend="serial")
    benchmark(cs.run, x, 1)


def test_bench_backend_tiled(benchmark):
    import pytest

    pytest.importorskip("pytest_benchmark")
    kernel = get_kernel("heat-2d")
    x = default_rng(7).random((512, 512))
    tiled = TiledBackend(min_rows_per_tile=64)
    cs = PinnedStencil(kernel, "gemm", backend=tiled)
    try:
        benchmark(cs.run, x, 1)
    finally:
        tiled.close()


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
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="tiled worker count (default: $REPRO_TILED_WORKERS or cpu_count)",
    )
    args = parser.parse_args(argv)
    for block in run_suite(quick=args.quick, workers=args.workers):
        print(block)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
