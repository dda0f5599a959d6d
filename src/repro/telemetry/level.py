"""The observability level: one switch for every instrumentation layer.

``REPRO_OBS`` names one rung of a ladder, each rung including the ones
below it:

* ``off`` — nothing is recorded (the default);
* ``metrics`` — the live collector (:mod:`repro.obs`) accounts runs and
  serve requests;
* ``trace`` — also spans (:mod:`repro.telemetry.trace`): engine phases
  and the five serve stage spans, which the black box
  (:mod:`repro.flight`) dumps from;
* ``profile`` — also the sampling profiler.

The variable is read here, once, at import.  :func:`repro.obs.set_level`
is the one programmatic setter; the hot paths read :data:`state`
(``telemetry.enabled()`` is ``state.tracing``).  The switches this one
replaced are named in :data:`RETIRED_ENV`: setting one warns and is
otherwise ignored.
"""

from __future__ import annotations

import os
import warnings
from typing import Mapping

__all__ = ["ENV_VAR", "LEVELS", "METRICS", "OFF", "PROFILE", "RETIRED_ENV", "TRACE", "rank"]

#: Environment variable holding the level name.
ENV_VAR = "REPRO_OBS"

#: Level names, lowest first; a level's rank is its index.
LEVELS = ("off", "metrics", "trace", "profile")
OFF, METRICS, TRACE, PROFILE = range(len(LEVELS))

#: Enable switches and knobs folded into ``REPRO_OBS``.
RETIRED_ENV = ("REPRO_TELEMETRY", "REPRO_FLIGHT", "REPRO_OBS_PROFILE", "REPRO_FLIGHT_RING")

_CHOICES = ", ".join(LEVELS)


def rank(level: str) -> int:
    """The rank of a level name; ``ValueError`` naming the levels otherwise."""
    try:
        return LEVELS.index(level)
    except ValueError:
        raise ValueError(f"unknown observability level {level!r}; use one of {_CHOICES}")


def _from_env(environ: Mapping[str, str]) -> int:
    """The rank ``environ`` asks for; warns once per retired or bad value."""
    for name in RETIRED_ENV:
        if name in environ:
            warnings.warn(
                f"{name} is retired and ignored; set {ENV_VAR} to one of {_CHOICES}",
                RuntimeWarning,
                stacklevel=3,
            )
    raw = environ.get(ENV_VAR, "").strip().lower()
    if not raw:
        return OFF
    if raw in LEVELS:
        return LEVELS.index(raw)
    warnings.warn(
        f"{ENV_VAR}={raw!r} is not a level; use one of {_CHOICES} (staying off)",
        RuntimeWarning,
        stacklevel=3,
    )
    return OFF


class _State:
    """The process-wide level, plus the derived flag the span hot path reads."""

    __slots__ = ("rank", "tracing")

    def __init__(self) -> None:
        self.set(_from_env(os.environ))

    def set(self, new_rank: int) -> None:
        self.rank = new_rank
        self.tracing = new_rank >= TRACE


state = _State()


def _reset_for_tests() -> None:
    """Re-read ``REPRO_OBS`` (and warn about retired switches) as at import."""
    state.set(_from_env(os.environ))
