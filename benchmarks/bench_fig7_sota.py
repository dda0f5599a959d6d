"""Figure 7 — state-of-the-art comparison.

Two layers, matching the reproduction strategy:

* the **modelled** A100 GStencils/s for every system at the paper's
  Table-4 problem sizes (the actual Figure-7 bars), emitted as a table;
* **functional** wall-clock benchmarks of every engine at the scaled-down
  ``sim_size`` grids, verifying each system actually executes the kernels
  it claims to support.
"""

import numpy as np
import pytest

from _common import emit, emit_json
from repro.analysis.sota import fig7_rows, fig7_table
from repro.baselines import all_baselines
from repro.core.api import ConvStencil
from repro.stencils.catalog import BENCHMARKS, get_benchmark, get_kernel
from repro.utils.rng import default_rng

ENGINES = all_baselines()
#: functional benches use modest grids so the full matrix stays quick
FUNCTIONAL_SHAPES = {1: (32_768,), 2: (192, 192), 3: (24, 24, 24)}


def _grid(kernel):
    return default_rng(11).random(FUNCTIONAL_SHAPES[kernel.ndim])


@pytest.mark.parametrize("kernel_name", list(BENCHMARKS))
def test_bench_convstencil_functional(benchmark, kernel_name):
    kernel = get_kernel(kernel_name)
    cs = ConvStencil(kernel, fusion="auto")
    x = _grid(kernel)
    out = benchmark(cs.run, x, steps=cs.fusion_depth)
    assert np.all(np.isfinite(out))


@pytest.mark.parametrize("system", ["cudnn", "brick", "drstencil", "tcstencil"])
@pytest.mark.parametrize("kernel_name", ["heat-2d", "box-2d9p"])
def test_bench_baseline_functional(benchmark, system, kernel_name):
    kernel = get_kernel(kernel_name)
    engine = ENGINES[system]
    x = _grid(kernel)
    out = benchmark(engine.run, x, kernel, steps=1)
    assert np.all(np.isfinite(out))


def test_bench_emit_fig7(benchmark):
    table = benchmark(fig7_table)
    emit("fig7_sota", table)
    emit_json("fig7_sota", fig7_rows(), problem_sizes="Table 4")
    assert "convstencil" in table


def test_bench_emit_fig7_charts(benchmark):
    """ASCII bar charts per kernel — the visual analogue of Figure 7."""
    from repro.viz import bar_chart

    rows = benchmark.pedantic(fig7_rows, rounds=1, iterations=1)
    charts = [
        bar_chart(
            row.gstencils, title=f"{row.kernel_name} (GStencils/s)", unit=""
        )
        for row in rows
    ]
    emit("fig7_charts", "\n\n".join(charts))
