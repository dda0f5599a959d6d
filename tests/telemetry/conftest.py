"""Shared telemetry-test fixtures: isolated level + clean buffers."""

from __future__ import annotations

import pytest

from repro import obs, telemetry


@pytest.fixture
def tele():
    """Telemetry module with clean tracer/registry; level restored on exit."""
    level = obs.get_level()
    telemetry.get_tracer().clear()
    telemetry.get_registry().clear()
    yield telemetry
    telemetry.get_tracer().clear()
    telemetry.get_registry().clear()
    obs.set_level(level)
