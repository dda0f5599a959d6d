"""Shared telemetry-test fixtures: isolated level + clean buffers."""

from __future__ import annotations

import pytest

from repro import obs, telemetry


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
