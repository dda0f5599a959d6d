"""Strategy crossover — the timings the ``gemm``/``direct`` rule is fitted to.

Not a paper figure: the evidence behind
:func:`repro.runtime.plan.choose_strategy`.  For every ``perfbench``
``solve`` cell and every (kernel, fusion, size class) of the ``churn``
catalog, one pass of each strategy is timed on a seeded array of the
pass's padded shape — the ``serial`` dual-tessellation engine against
:func:`repro.core.direct.direct_valid`, best of 5, interleaved — and the
faster one is set beside the rule's pick.  A ``churn`` size class is the ``bit_length`` of the grid's point count;
each is timed on the catalog shape of median point count within it.

The runtime reads no clock to choose a strategy; refit the rule's
thresholds from this table when an engine changes, then rerun::

    PYTHONPATH=src python benchmarks/bench_strategy_crossover.py

It rewrites ``results/strategy_crossover.{json,txt}``;
``tests/runtime/test_strategy.py`` checks the rule against the JSON.
"""

from __future__ import annotations

import os
import platform
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from _common import emit, emit_json
from repro import get_kernel
from repro.core.direct import direct_valid
from repro.core.fusion import plan_fusion
from repro.runtime.backends import SerialBackend
from repro.runtime.plan import build_plan, choose_strategy
from repro.utils.tables import format_table
from workloads import CHURN_FUSIONS, CHURN_KERNELS, SOLVE_CELLS, churn_pool

#: Timed runs of each strategy per row; the best one counts.
REPEATS = 5


def time_pass(kernel, shape: Tuple[int, ...]) -> Dict[str, float]:
    """Best-of-:data:`REPEATS` seconds of one pass of each strategy."""
    pp = build_plan(kernel, shape, strategy="gemm").fused_pass
    padded = np.random.default_rng(0).random(pp.padded_shape)
    runs = {
        "gemm": lambda: SerialBackend().apply_pass(pp, padded),
        "direct": lambda: direct_valid(padded, pp.kernel),
    }
    best = dict.fromkeys(runs, float("inf"))
    for _ in range(REPEATS):
        for name, run in runs.items():
            t0 = time.perf_counter()
            run()
            best[name] = min(best[name], time.perf_counter() - t0)
    return best


def churn_cases() -> List[Tuple[str, "int | str", Tuple[int, ...]]]:
    """(kernel, fusion, shape): one shape per catalog size class — the one
    of median point count among the ``churn_pool`` shapes in it."""
    classes: Dict[Tuple[str, "int | str", int], set] = {}
    for p in churn_pool(seed=0):
        points = int(np.prod(p.shape))
        classes.setdefault((p.kernel, p.fusion, points.bit_length()), set()).add(p.shape)
    cases = []
    for name in CHURN_KERNELS:
        for fusion in CHURN_FUSIONS:
            keys = sorted(k for k in classes if k[:2] == (name, fusion))
            for key in keys:
                shapes = sorted(classes[key], key=lambda s: (int(np.prod(s)), s))
                cases.append((name, fusion, shapes[(len(shapes) - 1) // 2]))
    return cases


def sweep() -> List[dict]:
    cases = [("solve", name, 1, shape) for name, shape, _ in SOLVE_CELLS]
    cases += [("churn", name, fusion, shape) for name, fusion, shape in churn_cases()]
    # fusion="auto" leaves most kernels unfused: time each distinct pass once.
    timed: Dict[tuple, Dict[str, float]] = {}
    rows = []
    for workload, name, fusion, shape in cases:
        kernel = plan_fusion(get_kernel(name), fusion).fused
        key = (kernel.weights.shape, kernel.weights.tobytes(), shape)
        if key not in timed:
            timed[key] = time_pass(kernel, shape)
        best = timed[key]
        faster = "gemm" if best["gemm"] < best["direct"] else "direct"
        rule = choose_strategy(kernel, shape)
        rows.append(
            {
                "workload": workload,
                "kernel": name,
                "fusion": fusion,
                "pass_kernel": kernel.name,
                "edge": kernel.edge,
                "nonzero": kernel.points,
                "shape": list(shape),
                "points": int(np.prod(shape)),
                "gemm_ms": best["gemm"] * 1e3,
                "direct_ms": best["direct"] * 1e3,
                "faster": faster,
                "rule": rule,
                "agree": rule == faster,
            }
        )
    return rows


def render(rows: List[dict], host: dict) -> str:
    table = format_table(
        ["workload", "kernel", "fusion", "pass", "shape", "points",
         "gemm [ms]", "direct [ms]", "faster", "rule", ""],
        [
            (
                r["workload"], r["kernel"], r["fusion"], r["pass_kernel"],
                "x".join(map(str, r["shape"])), r["points"],
                f"{r['gemm_ms']:.3f}", f"{r['direct_ms']:.3f}",
                r["faster"], r["rule"], "" if r["agree"] else "MISS",
            )
            for r in rows
        ],
        title=(
            f"Strategy crossover: one serial GEMM pass vs direct, best of {REPEATS} "
            f"({host['machine']}, {host['cpus']} CPUs, numpy {host['numpy']})"
        ),
    )
    lines = [table]
    for workload in ("solve", "churn"):
        mine = [r for r in rows if r["workload"] == workload]
        agree = sum(r["agree"] for r in mine)
        lines.append(f"{workload}: rule agrees on {agree} of {len(mine)} rows")
    return "\n".join(lines)


def main() -> None:
    rows = sweep()
    host = {"machine": platform.machine(), "cpus": os.cpu_count(), "numpy": np.__version__}
    emit("strategy_crossover", render(rows, host))
    emit_json("strategy_crossover", rows, repeats=REPEATS, host=host)


if __name__ == "__main__":
    main()
