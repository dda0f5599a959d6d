"""Metrics registry: counters and gauges.

Spans answer *where the time went*; metrics answer *how much of what
happened* — MMA instructions issued, bank conflicts replayed, residuals at
each solver iteration.  The registry is a process-wide, lock-guarded
name → instrument map with two instrument kinds:

* :class:`Counter` — monotonically increasing integer/float tally;
* :class:`Gauge` — last-write-wins scalar (residuals, utilisation).

Latency distributions live in :class:`repro.obs.hist.LatencyHistogram`.

:func:`fold_perf_counters` adapts the GPU simulator's
:class:`~repro.gpu.counters.PerfCounters` into the registry so simulated
hardware events (Table 5's raw quantities) sit alongside wall-time data,
and :func:`perf_counters_from_registry` reverses the fold bit-exactly —
the round-trip the telemetry integration tests assert.
"""

from __future__ import annotations

import threading
from dataclasses import fields
from typing import Any, Dict, List, Optional

from repro.gpu.counters import PerfCounters

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "counter",
    "fold_perf_counters",
    "gauge",
    "get_registry",
    "perf_counters_from_registry",
]


class Counter:
    """Monotonic tally.  ``inc`` rejects negative increments."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: "int | float" = 1) -> None:
        """Add ``amount`` (>= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> "int | float":
        """Current tally."""
        with self._lock:
            return self._value


class Gauge:
    """Last-write-wins scalar."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value: float = 0.0

    def set(self, value: "int | float") -> None:
        """Overwrite the gauge."""
        with self._lock:
            self._value = value

    def add(self, amount: "int | float") -> None:
        """Shift the gauge by ``amount`` (may be negative)."""
        with self._lock:
            self._value += amount

    @property
    def value(self) -> "int | float":
        """Current reading."""
        with self._lock:
            return self._value


class MetricsRegistry:
    """Get-or-create registry of named instruments.

    Re-requesting a name returns the existing instrument; requesting an
    existing name as a *different* kind raises ``TypeError`` — silent
    shadowing is how dashboards end up lying.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, Any] = {}

    def _get_or_create(self, name: str, kind: type):
        # Hit path without the lock: a dict read is atomic, and an
        # instrument is never replaced once registered (only clear()
        # drops them), so a hit is always a live instrument.
        existing = self._metrics.get(name)
        if existing is None:
            candidate = kind(name)
            with self._lock:  # two first creations race: one wins
                existing = self._metrics.setdefault(name, candidate)
        if not isinstance(existing, kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(existing).__name__}, requested {kind.__name__}"
            )
        return existing

    def counter(self, name: str) -> Counter:
        """Get or create the :class:`Counter` named ``name``."""
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """Get or create the :class:`Gauge` named ``name``."""
        return self._get_or_create(name, Gauge)

    def get(self, name: str) -> Optional[Any]:
        """The instrument registered under ``name``, or ``None``."""
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> List[str]:
        """Sorted names of all registered instruments."""
        with self._lock:
            return sorted(self._metrics)

    def clear(self) -> None:
        """Drop every registered instrument."""
        with self._lock:
            self._metrics.clear()

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready ``{name: summary}`` of every instrument's state."""
        out: Dict[str, Any] = {}
        with self._lock:
            items = list(self._metrics.items())
        for name, metric in sorted(items):
            kind = "counter" if isinstance(metric, Counter) else "gauge"
            out[name] = {"type": kind, "value": metric.value}
        return out


_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _registry


def counter(name: str) -> Counter:
    """Get or create ``name`` as a counter in the default registry."""
    return _registry.counter(name)


def gauge(name: str) -> Gauge:
    """Get or create ``name`` as a gauge in the default registry."""
    return _registry.gauge(name)


#: Registry prefix under which simulator counters are folded.
SIM_PREFIX = "sim"

#: Derived :class:`PerfCounters` properties folded as gauges (Table 5).
_DERIVED = (
    "bank_conflicts_per_request",
    "uncoalesced_fraction",
    "tensor_core_utilisation",
)


def fold_perf_counters(
    counters: PerfCounters,
    registry: Optional[MetricsRegistry] = None,
    prefix: str = SIM_PREFIX,
) -> None:
    """Accumulate a simulator :class:`PerfCounters` into the registry.

    Every raw field becomes the counter ``<prefix>.<field>`` (incremented,
    so repeated folds accumulate exactly like ``PerfCounters.merge``);
    the Table-5 derived ratios become gauges reflecting the latest fold.
    """
    reg = registry if registry is not None else _registry
    for f in fields(counters):
        reg.counter(f"{prefix}.{f.name}").inc(getattr(counters, f.name))
    for name in _DERIVED:
        reg.gauge(f"{prefix}.{name}").set(getattr(counters, name))


def perf_counters_from_registry(
    registry: Optional[MetricsRegistry] = None, prefix: str = SIM_PREFIX
) -> PerfCounters:
    """Reconstruct a :class:`PerfCounters` from previously folded counters.

    Unfolded fields read as 0; a single fold into a cleared registry
    round-trips bit-exactly (``reconstructed == original``).
    """
    reg = registry if registry is not None else _registry
    values = {}
    for f in fields(PerfCounters):
        metric = reg.get(f"{prefix}.{f.name}")
        values[f.name] = int(metric.value) if metric is not None else 0
    return PerfCounters(**values)
