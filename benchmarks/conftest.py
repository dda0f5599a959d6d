"""Benchmark-harness pytest options.

``--backend`` routes every bench's ConvStencil through a chosen
:mod:`repro.runtime` backend, so the same bench file measures serial,
compiled, or any registered custom backend::

    pytest benchmarks/bench_throughput.py --benchmark-only --backend compiled
"""

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--backend",
        action="store",
        default=None,
        help=(
            "repro.runtime backend the benches execute on "
            "(serial/compiled/reference; default: $REPRO_BACKEND or serial)"
        ),
    )


@pytest.fixture
def backend(request):
    """The ``--backend`` option (``None`` → process default)."""
    return request.config.getoption("--backend")
