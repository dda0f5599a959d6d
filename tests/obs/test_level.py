"""The one observability switch: the REPRO_OBS level ladder."""

from __future__ import annotations

import asyncio
import warnings

import pytest

from repro import ConvStencil, get_kernel, obs, telemetry
from repro.serve import Request, ServeConfig, StencilService
from repro.serve.request import STAGES
from repro.telemetry import level as levels
from repro.utils.rng import default_rng


@pytest.fixture
def restore_level():
    level = obs.get_level()
    obs._reset_for_tests()
    telemetry.get_tracer().clear()
    yield
    obs.set_level(level)
    obs._reset_for_tests()
    telemetry.get_tracer().clear()


def _serve_one() -> None:
    request = Request(
        "acme", kernel=get_kernel("heat-2d"), data=default_rng(0).random((12, 12)),
        request_id="ladder-0",
    )

    async def scenario():
        async with StencilService(ServeConfig(lanes=1)) as service:
            return await service.submit(request)

    assert asyncio.run(scenario()).ok


@pytest.mark.parametrize("level", levels.LEVELS)
def test_each_level_includes_the_ones_below(level, restore_level):
    obs.set_level(level)
    rank = levels.rank(level)
    ConvStencil(get_kernel("heat-2d")).run(default_rng(1).random((32, 32)), steps=2)
    _serve_one()

    names = [sp.name for sp in telemetry.get_tracer().spans()]
    runs = obs.snapshot()["runs"]
    profiler = obs.get_profiler()

    assert obs.get_level() == level
    assert bool(runs) == (rank >= levels.METRICS)  # the collector
    assert ("convstencil.run" in names) == (rank >= levels.TRACE)  # engine spans
    stages = {name[len("serve."):] for name in names if name.startswith("serve.")}
    assert (stages >= set(STAGES)) == (rank >= levels.TRACE)
    if rank < levels.TRACE:
        assert names == []
    sampling = profiler is not None and profiler.running
    assert sampling == (rank >= levels.PROFILE)


@pytest.mark.parametrize(
    "env",
    [{name: "1"} for name in levels.RETIRED_ENV] + [{"REPRO_OBS": "1"}, {"REPRO_OBS": "verbose"}],
    ids=lambda env: "=".join(next(iter(env.items()))),
)
def test_retired_switches_and_unknown_levels_warn_and_stay_off(env, monkeypatch, restore_level):
    for name in levels.RETIRED_ENV + (levels.ENV_VAR,):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        levels._reset_for_tests()
    runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert len(runtime) == 1, [str(w.message) for w in runtime]
    message = str(runtime[0].message)
    assert all(name in message for name in levels.LEVELS), message
    assert obs.get_level() == "off"
    assert not obs.enabled() and not telemetry.enabled()


def test_set_level_rejects_unknown_names(restore_level):
    with pytest.raises(ValueError, match="off, metrics, trace, profile"):
        obs.set_level("verbose")


def test_dropping_below_profile_stops_the_sampler(restore_level):
    obs.set_level("profile")
    ConvStencil(get_kernel("heat-2d")).run(default_rng(1).random((32, 32)), steps=1)
    assert obs.get_profiler().running
    obs.set_level("trace")
    assert not obs.get_profiler().running
