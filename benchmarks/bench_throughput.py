"""Library throughput — this implementation's own wall-clock numbers.

Not a paper figure: measures the vectorised dual-tessellation engines in
MStencils/s on laptop-scale grids, the number a downstream user of this
Python library actually experiences.
"""

import numpy as np
import pytest

from _common import emit, emit_telemetry
from repro import obs, telemetry
from repro.core.api import ConvStencil
from repro.stencils.catalog import BENCHMARKS, get_kernel
from repro.stencils.reference import apply_stencil_reference
from repro.utils.rng import default_rng
from repro.utils.tables import format_table

SHAPES = {1: (262_144,), 2: (512, 512), 3: (48, 48, 48)}


@pytest.mark.parametrize("kernel_name", list(BENCHMARKS))
def test_bench_engine_throughput(benchmark, kernel_name, backend):
    kernel = get_kernel(kernel_name)
    x = default_rng(2).random(SHAPES[kernel.ndim])
    cs = ConvStencil(kernel, backend=backend)
    out = benchmark(cs.run, x, steps=1)
    assert out.shape == x.shape


@pytest.mark.parametrize("kernel_name", ["heat-2d", "box-2d49p"])
def test_bench_reference_executor(benchmark, kernel_name):
    """The shifted-view reference, for comparison with dual tessellation."""
    kernel = get_kernel(kernel_name)
    x = default_rng(2).random(SHAPES[kernel.ndim])
    benchmark(apply_stencil_reference, x, kernel)


def test_bench_emit_throughput_summary(benchmark, backend):
    """One-shot MStencils/s summary across all catalogued benchmarks.

    Timing comes from telemetry spans rather than ad-hoc ``perf_counter``
    pairs, so the reported MStencils/s and the persisted trace are the
    *same* measurement and cannot drift apart.
    """
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    level = obs.get_level()
    if not telemetry.enabled():
        obs.set_level("trace")
    tracer = telemetry.get_tracer()
    rows = []
    try:
        for name in BENCHMARKS:
            kernel = get_kernel(name)
            x = default_rng(2).random(SHAPES[kernel.ndim])
            cs = ConvStencil(kernel, backend=backend)
            cs.run(x, steps=1)  # warm-up (traced too; the timed span is named apart)
            with telemetry.span("bench.throughput", kernel=name, size=x.size):
                cs.run(x, steps=1)
            timed = [
                sp
                for sp in tracer.spans()
                if sp.name == "bench.throughput" and sp.attributes["kernel"] == name
            ][-1]
            rows.append((name, f"{x.size / timed.duration / 1e6:.1f}"))
        emit(
            "library_throughput",
            format_table(
                ["kernel", "MStencils/s (this library, CPU)"],
                rows,
                title="Library functional throughput (not a paper figure)",
            ),
        )
        emit_telemetry("library_throughput")
    finally:
        obs.set_level(level)
