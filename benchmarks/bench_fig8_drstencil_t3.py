"""Figure 8 — ConvStencil vs DRStencil-T3 across problem sizes.

Emits the modelled sweep (crossovers + plateaus) and functionally races the
two engines at a pair of grid sizes, three fused time steps each.
"""

import numpy as np
import pytest

from _common import emit, emit_json
from repro.analysis.fusion_sweep import FIG8_KERNELS, fig8_sweep, find_crossover, sweep_table
from repro.baselines.drstencil import DRStencil
from repro.core.api import ConvStencil
from repro.stencils.catalog import get_kernel
from repro.utils.rng import default_rng


@pytest.mark.parametrize("size", [96, 256])
def test_bench_convstencil_fused_pass(benchmark, size):
    kernel = get_kernel("box-2d9p")
    cs = ConvStencil(kernel, fusion=3)
    x = default_rng(0).random((size, size))
    out = benchmark(cs.run, x, steps=3)
    assert np.all(np.isfinite(out))


@pytest.mark.parametrize("size", [96, 256])
def test_bench_drstencil_t3_pass(benchmark, size):
    kernel = get_kernel("box-2d9p")
    engine = DRStencil(fuse_steps=3)
    x = default_rng(0).random((size, size))
    out = benchmark(engine.run, x, kernel, steps=3)
    assert np.all(np.isfinite(out))


def test_bench_sweep_model(benchmark):
    pts = benchmark(fig8_sweep, "heat-2d", 2, 256, 5120, 256)
    assert find_crossover(pts) is not None


def test_bench_emit_fig8(benchmark):
    table = benchmark.pedantic(sweep_table, rounds=1, iterations=1)
    emit("fig8_drstencil_t3", table)
    sweeps = {
        cfg[0]: fig8_sweep(*cfg) for cfg in FIG8_KERNELS
    }
    emit_json("fig8_drstencil_t3", sweeps)
    for kernel_name, *_ in FIG8_KERNELS:
        assert kernel_name in table


def test_bench_emit_fig8_charts(benchmark):
    """Speedup-vs-size curves with the crossover baseline at 1.0."""
    from repro.viz import series_chart

    def build():
        charts = []
        for kernel_name, ndim, start, stop, step in FIG8_KERNELS:
            pts = fig8_sweep(kernel_name, ndim, start, stop, step)
            series = [(p.edge_size, p.speedup) for p in pts]
            charts.append(
                series_chart(
                    series,
                    baseline=1.0,
                    title=f"{kernel_name}: ConvStencil / DRStencil-T3 vs size^{ndim}",
                )
            )
        return "\n\n".join(charts)

    emit("fig8_charts", benchmark.pedantic(build, rounds=1, iterations=1))
