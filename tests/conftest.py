"""Shared fixtures for the test suite."""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.runtime.plan import choose_strategy as _STRATEGY_RULE
from repro.stencils.catalog import list_kernels
from repro.utils.rng import default_rng


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic generator, fresh per test."""
    return default_rng(1234)


@pytest.fixture
def obs_on():
    """Level ``metrics`` (collector, no sampler) with a fresh collector; the
    previous level is restored on exit."""
    from repro import obs

    level = obs.get_level()
    obs._reset_for_tests()
    obs.set_level("metrics")
    yield obs
    obs._reset_for_tests()
    obs.set_level(level)


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "strategy_rule: build plans with the gemm/direct strategy rule "
        "instead of the suite-wide gemm pin",
    )


@functools.wraps(_STRATEGY_RULE)  # introspection still sees the real one
def _pinned_gemm(kernel, grid_shape) -> str:
    return "gemm"


@pytest.fixture(scope="session", autouse=True)
def _gemm_strategy_by_default():
    """Pin every plan the suite builds to the ``gemm`` strategy.

    The strategy rule sends most test grids to the ``direct`` kernel,
    which never reaches a backend: tests that compare backends,
    or assert what happens inside one (tile spans, worker folds, engine
    phases, custom backends), would silently stop exercising the GEMM
    engines, and so would the ``REPRO_BACKEND`` CI legs.  Session-scoped
    so plans built by wider-scoped fixtures are pinned too.  Tests about
    the rule itself opt out with ``@pytest.mark.strategy_rule``;
    the direct kernel is covered by pinning ``direct`` explicitly.
    """
    from repro.runtime import plan as plan_mod
    from repro.runtime.cache import get_plan_cache

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(plan_mod, "choose_strategy", _pinned_gemm)
        get_plan_cache().clear()
        yield


@pytest.fixture(autouse=True)
def _strategy_rule(request):
    """Restore the strategy rule for ``strategy_rule`` tests, clearing the
    plan cache on both sides so no rule-built plan is shared with a
    pinned test."""
    if request.node.get_closest_marker("strategy_rule") is None:
        yield
        return
    from repro.runtime import plan as plan_mod
    from repro.runtime.cache import get_plan_cache

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(plan_mod, "choose_strategy", _STRATEGY_RULE)
        get_plan_cache().clear()
        try:
            yield
        finally:
            get_plan_cache().clear()


def pytest_generate_tests(metafunc):
    """Parametrise any test requesting ``kernel_name`` over the catalog."""
    if "kernel_name" in metafunc.fixturenames:
        metafunc.parametrize("kernel_name", list(list_kernels()))


@pytest.fixture
def lane_path(monkeypatch):
    """Serve every batch through a lane thread, none inline on the event
    loop: a test that holds the lane thread (``LaneGate`` in
    ``tests/serve/test_service.py``) would otherwise block the loop."""
    monkeypatch.setattr("repro.serve.service.INLINE_WORK_BOUND", 0)
