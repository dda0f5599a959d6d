"""The repository benchmark: ConvStencil measured against the direct-stencil floor.

Run from the repository root::

    python3 perfbench/run.py --workload solve --seed 1 --seconds 15 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/METRICS.md``):

* ``solve`` — warm ``ConvStencil.run`` calls round-robin over the six
  ROADMAP spot cells, each paired with the same call via ``run_reference``;
* ``churn`` — a seeded stream of small, distinct problems, each on a fresh
  ``ConvStencil``, drawn from 512 plan keys (the plan cache holds 64);
* ``serve`` — open-loop Poisson arrivals into a default-config
  ``StencilService``.

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` measures an untraced phase and a traced phase, reports the
per-layer metrics of the traced phase and the slowdown tracing caused,
then sweeps every backend and the direct floor over the spot cells.

Before the result the benchmark prints an environment line and every
metric by name with its unit; the last line of standard output is the
JSON result.  Without the program's source next to it, it exits with
status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Set-up samples per untraced run: this process plus two fresh ones.
SETUP_SAMPLES = 3
#: Share of a traced run's seconds spent in its untraced phase.
UNTRACED_SHARE = 0.4

#: The gated end-to-end metrics.  Raw call times are printed but not
#: gated: on a shared host they drift with its load by more than the
#: largest allowed bound, while a ratio to the direct floor timed in the
#: same run cancels most of that drift (see METRICS.md).
END_TO_END_UNITS = {
    "setup_s": "s",
    "speedup_vs_direct": "x",
    "peak_rss_mb": "MB",
}
#: Units of the end-to-end figures printed for information only.
INFORMATIONAL_UNITS = {"throughput_mpts": "Mpts/s"}


def per_layer_unit(name: str) -> str:
    if name.endswith(".mb"):
        return "MB"
    if re.search(r"[._]ms(?:[._]|$)", name):
        return "ms"
    if name.endswith((".builds", ".evictions", ".queue_peak")):
        return "count"
    if name.endswith(".batch_size_mean"):
        return "requests"
    return "ratio"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("solve", "churn", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set up once, print the set-up time as JSON and exit",
    )
    return parser.parse_args(argv)


def environment(seed: int) -> dict:
    import ctypes
    import glob
    import importlib.util

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "default")
    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "libscipy_openblas*"))
    if libs:
        try:
            get = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
            get.restype = ctypes.c_int
            threads = get()
        except (OSError, AttributeError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "numba": importlib.util.find_spec("numba") is not None,
        "seed": seed,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def setup_in_fresh_process(args) -> float:
    """Set-up time of one fresh interpreter: import, construction, warm-up."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
    ] + (["--tiny"] if args.tiny else [])
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"set-up process failed: {done.stderr.strip()[-400:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def stop_helper_processes() -> None:
    """Stop every process the program started and wait for each to end.

    The tiled backend's shared memory starts the ``multiprocessing``
    resource tracker, which would otherwise outlive this process for a
    moment; pool workers are joined by the backends' ``close``, and any
    ``multiprocessing`` child still alive is joined here.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    try:
        return run(argv)
    finally:
        stop_helper_processes()


def run(argv) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC.relative_to(ROOT)}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro  # noqa: F401  (imported here so it counts as set-up)
    import workloads

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"error: repro imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    try:
        workload.setup()
        setup_s = time.perf_counter() - t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        tally = workloads.Tally()
        if args.trace:
            metrics, extra = traced(workload, args, tally)
        else:
            metrics = workload.measure(args.seconds, tally)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            extra = {}
            if args.workload == "solve":
                extra["cells"] = workload.per_cell()
    finally:
        workload.close()
    calls = metrics.pop("calls", 0)
    if not args.trace:
        samples = [setup_s] + [setup_in_fresh_process(args) for _ in range(SETUP_SAMPLES - 1)]
        metrics["setup_s"] = statistics.median(samples)
    report(args, metrics, tally, calls, extra)
    return 0


def traced(workload, args, tally):
    """Untraced phase, traced phase, then the backend/floor sweep."""
    import layers
    import workloads
    from repro.runtime import get_plan_cache

    headline = "latency_ms_p50" if args.workload == "serve" else "throughput_mpts"
    untraced = workload.measure(args.seconds * UNTRACED_SHARE, tally)
    tracer = layers.Tracer()
    cache_before = get_plan_cache().stats
    serve_before = workload.service.stats() if args.workload == "serve" else None
    traced_e2e = workload.measure(args.seconds * (1 - UNTRACED_SHARE), tally, tracer)
    metrics = layers.layer_metrics(tracer, cache_before, get_plan_cache().stats)
    if serve_before is not None:
        metrics.update(layers.serve_metrics(tracer, workload, serve_before, workload.service.stats()))
        metrics["serve.latency_ms_p99"] = traced_e2e.get("latency_ms_p99", math.nan)
    else:
        metrics.update(dict.fromkeys(layers.SERVE_METRICS, 0.0))
    # Slowdown > 1 means tracing cost time: a lower throughput, or a
    # higher serve latency.
    ratio = traced_e2e.get(headline, math.nan) / untraced.get(headline, math.nan)
    metrics["trace.slowdown"] = ratio if headline.startswith("latency") else 1 / ratio
    cells = workload.cells if args.workload == "solve" else workloads.solve_cells(args.seed, args.tiny)
    sweep, fastest = layers.sweep(cells)
    metrics.update(sweep)
    dropped = tracer.omit_missing(metrics)
    extra = {"fastest": fastest, "missing_bindings": tracer.missing, "omitted": dropped}
    metrics["calls"] = traced_e2e.get("calls", 0)
    return metrics, extra


def report(args, metrics, tally, calls, extra) -> None:
    print("env: " + json.dumps(environment(args.seed)))
    cells = extra.pop("cells", ())
    for key, value in extra.items():
        print(f"{key}: {json.dumps(value)}")
    if cells:
        print("cell         call_ms  direct_ms  speedup_vs_direct")
        for name, call_ms, direct_ms in cells:
            print(f"{name:<12} {call_ms:8.2f} {direct_ms:10.2f} {direct_ms / call_ms:10.2f}")
    out = {}
    for name in sorted(metrics):
        value = float(metrics[name])
        unit = END_TO_END_UNITS.get(name) or INFORMATIONAL_UNITS.get(name) or per_layer_unit(name)
        if not args.trace and name not in END_TO_END_UNITS:
            print(f"{name} = {value:.6g} {unit} (informational)")
        elif math.isfinite(value):
            out[name] = {"value": value, "unit": unit}
            print(f"{name} = {value:.6g} {unit}")
    error_ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"calls measured = {calls:.0f}; error_ratio = {error_ratio:.4g} "
          f"({tally.failed} failed of {tally.attempted})")
    for note in tally.notes:
        print(f"failure: {note}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": out,
    }))


if __name__ == "__main__":
    sys.exit(main())
