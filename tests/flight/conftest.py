"""Flight-test fixtures: a traced process with a tmp black-box directory."""

from __future__ import annotations

import pytest

from repro import obs, telemetry


@pytest.fixture
def flight_ring(tmp_path, monkeypatch):
    """Level ``trace`` with a clean span ring dumping into ``tmp_path``;
    yields the process tracer."""
    monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_FLIGHT_MAX_DUMPS", raising=False)
    level = obs.get_level()
    obs.set_level("trace")
    telemetry.get_tracer().clear()
    yield telemetry.get_tracer()
    telemetry.get_tracer().clear()
    obs.set_level(level)


@pytest.fixture
def flight_off():
    """Observability level ``off`` (hot-path tests); restored on exit."""
    level = obs.get_level()
    obs.set_level("off")
    telemetry.get_tracer().clear()
    yield telemetry.get_tracer()
    obs.set_level(level)
