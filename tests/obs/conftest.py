"""Obs-test fixtures: ``obs_on`` (in ``tests/conftest.py``) plus the sampler."""

from __future__ import annotations

import pytest


@pytest.fixture
def obs_profiled(obs_on):
    """Level ``profile``: the collector plus the sampling profiler."""
    obs_on.set_level("profile")
    yield obs_on
