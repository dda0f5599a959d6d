"""Obs-test fixtures: an isolated observability level with a fresh collector."""

from __future__ import annotations

import pytest

from repro import obs


@pytest.fixture
def obs_on():
    """Level ``metrics`` (collector, no sampler) with fresh state; the
    previous level is restored on exit."""
    level = obs.get_level()
    obs._reset_for_tests()
    obs.set_level("metrics")
    yield obs
    obs._reset_for_tests()
    obs.set_level(level)


@pytest.fixture
def obs_profiled(obs_on):
    """Level ``profile``: the collector plus the sampling profiler."""
    obs_on.set_level("profile")
    yield obs_on
