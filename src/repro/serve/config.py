"""Serving-layer configuration: quotas, batch size, lanes, backpressure.

:class:`ServeConfig` is the single knob surface of
:class:`~repro.serve.service.StencilService`.  Every field has a default,
so configuration reads as keyword-only prose::

    ServeConfig(lanes=4, max_batch=32,
                quota=TenantQuota(rate=200.0, burst=50))

``TenantQuota`` describes one token bucket: ``rate`` tokens refill per
second up to ``burst``; each admitted request spends one token.  A
``rate`` of ``inf`` (the default) disables quota accounting entirely —
the service then never rejects on quota, only on queue depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from repro.errors import ServeError

__all__ = ["ServeConfig", "TenantQuota"]


@dataclass(frozen=True)
class TenantQuota:
    """Token-bucket quota for one tenant: ``rate``/s refill, ``burst`` cap."""

    rate: float = math.inf
    burst: float = 32.0

    def __post_init__(self) -> None:
        if not self.rate > 0.0:
            raise ServeError(f"quota rate must be positive, got {self.rate}")
        if not self.burst >= 1.0:
            raise ServeError(f"quota burst must be >= 1, got {self.burst}")

    @property
    def unlimited(self) -> bool:
        return math.isinf(self.rate)


@dataclass(frozen=True)
class ServeConfig:
    """Immutable service configuration (all fields keyword-friendly).

    Parameters
    ----------
    lanes:
        Executor lanes (single-thread executors).  Requests sharing a plan
        key route to the lane that already holds the warm
        :class:`~repro.runtime.plan.ExecutionPlan` (affinity routing).
    max_batch:
        Coalesced batch size at which a batch takes no more companions
        and is dispatched as soon as a lane is free.  Any batch goes to
        the first free lane, so no request waits while a lane is idle;
        requests admitted in the same event-loop tick share a batch, and
        while every lane is busy a batch keeps taking same-key companions.
    max_queue_depth:
        Bound on requests admitted but not yet completed; beyond it the
        service rejects with HTTP-429-style backpressure.
    quota:
        Default per-tenant token bucket, or a ``{tenant: TenantQuota}``
        mapping for heterogeneous tenants (missing tenants fall back to
        ``default_quota``).
    default_quota:
        Fallback bucket when ``quota`` is a mapping.
    backend:
        Runtime backend name/instance every lane executes on (``None`` =
        process default).

    The per-request SLO budget is not a field: it is the obs layer's
    ``REPRO_OBS_SLO_MS``.
    """

    lanes: int = 2
    max_batch: int = 32
    max_queue_depth: int = 256
    quota: Union[TenantQuota, Dict[str, TenantQuota]] = field(
        default_factory=TenantQuota
    )
    default_quota: TenantQuota = field(default_factory=TenantQuota)
    backend: Optional[object] = None

    def __post_init__(self) -> None:
        if self.lanes < 1:
            raise ServeError(f"lanes must be >= 1, got {self.lanes}")
        if self.max_batch < 1:
            raise ServeError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_queue_depth < 1:
            raise ServeError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )

    def quota_for(self, tenant: str) -> TenantQuota:
        """The token bucket configuration governing ``tenant``."""
        if isinstance(self.quota, TenantQuota):
            return self.quota
        return self.quota.get(tenant, self.default_quota)
