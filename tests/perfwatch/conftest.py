"""Perfwatch test fixtures: telemetry isolation and a tiny pinned suite."""

from __future__ import annotations

import pytest

from repro import obs, telemetry
from repro.perfwatch import TimingSpec, Workload


@pytest.fixture
def tele():
    """Telemetry module with a clean tracer and a fresh obs collector;
    level restored on exit."""
    level = obs.get_level()
    telemetry.get_tracer().clear()
    obs._reset_for_tests()
    yield telemetry
    telemetry.get_tracer().clear()
    obs._reset_for_tests()
    obs.set_level(level)


#: One-cell suite small enough to measure for real inside a unit test.
TINY_SUITE = [
    Workload(
        name="tiny-heat-1d",
        kernel="heat-1d",
        shape=(256,),
        steps=1,
        backend="serial",
    )
]

#: Minimal protocol: no warmup, three single-call batches.
TINY_SPEC = TimingSpec(warmup=0, batches=3, batch_size=1)


@pytest.fixture
def tiny_suite():
    return list(TINY_SUITE)


@pytest.fixture
def tiny_spec():
    return TINY_SPEC


def make_scripted_clock(step: float = 1.0, start: float = 0.0):
    """A deterministic ``() -> float`` clock advancing ``step`` per call."""
    state = {"now": start}

    def clock() -> float:
        value = state["now"]
        state["now"] += step
        return value

    return clock
