"""Bounded cache of :class:`ExecutionPlan`\\ s.

The paper amortises its host-side precomputation (LUTs, weight matrices)
across all time iterations (§3.4); :class:`PlanCache` extends that reuse
across *runs*: any :class:`~repro.core.api.ConvStencil` hitting the same
``(kernel, grid_shape, boundary, fusion_depth)`` key reuses the same plan.

The cache is a thread-safe LRU bounded by entry count.  It counts its
own hits, misses and evictions (:attr:`PlanCache.stats`); the obs
snapshot and the Prometheus ``repro_plan_cache_*`` families read those
counts, so there is one tally per event and no metrics write on the
lookup path.

Plan builds run **outside** the global cache lock, serialised per key: a
slow build for one ``(kernel, shape, boundary, depth)`` problem never
blocks lookups or builds for unrelated keys, while concurrent requests
for the *same* key wait on a per-key build lock and share one build
(double-checked against the cache once the lock is held).

Under ``REPRO_STATICCHECK=1`` every freshly built plan is verified
against the paper's static invariants (LUT bounds, dirty-zone coverage,
triangular weights — see :func:`repro.staticcheck.check_plan`) before it
is inserted; a violating plan raises instead of being cached.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Callable, Dict, Optional

from repro import obs
from repro.errors import StaticCheckError
from repro.runtime.plan import ExecutionPlan

__all__ = ["PlanCache", "get_plan_cache", "set_plan_cache"]


def _staticcheck_plan(plan: ExecutionPlan) -> None:
    """Verify a freshly built plan when ``REPRO_STATICCHECK=1``.

    Runs the :mod:`repro.staticcheck.plan_invariants` layer on every cache
    insert (imported lazily — the common path pays one env lookup) and
    refuses to cache a plan violating a paper invariant: a corrupted LUT
    or weight table must never reach an engine.
    """
    from repro.staticcheck.engine import staticcheck_enabled

    if not staticcheck_enabled():
        return
    from repro.staticcheck.plan_invariants import check_plan

    findings = check_plan(plan)
    obs.count("staticcheck.findings", len(findings))
    errors = [f for f in findings if f.severity == "error"]
    if errors:
        detail = "; ".join(f"{f.rule_id} {f.message}" for f in errors[:3])
        raise StaticCheckError(
            f"plan for kernel {plan.kernel.name!r} on {plan.grid_shape} "
            f"violates {len(errors)} invariant(s): {detail}"
        )

#: Default number of plans kept resident.  Plans are small (tables scale
#: with kernel volume and one row of the grid), so 64 distinct
#: (kernel, shape, boundary, depth) working sets fit comfortably.
DEFAULT_CAPACITY = 64


class PlanCache:
    """LRU map from plan keys to :class:`ExecutionPlan`.

    ``get_or_build(key, builder)`` is the only lookup path: it returns the
    cached plan or invokes ``builder()`` under the miss, inserting the
    result and evicting the least-recently-used entry past ``capacity``.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"plan cache capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._plans: "OrderedDict[tuple, ExecutionPlan]" = OrderedDict()
        self._building: Dict[tuple, threading.Lock] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def _record_hit(self, key: tuple) -> ExecutionPlan:
        """Touch ``key`` (caller holds ``self._lock``, entry exists)."""
        self._plans.move_to_end(key)
        self._hits += 1
        return self._plans[key]

    def get_or_build(
        self, key: tuple, builder: Callable[[], ExecutionPlan]
    ) -> ExecutionPlan:
        """Cached plan for ``key``, building (and inserting) it on a miss.

        The build runs outside the global lock under a per-key lock, so a
        slow ``builder`` only blocks callers asking for the *same* key;
        those waiters re-check the cache once the build lock is theirs and
        share the finished plan.  A raising builder still counts exactly
        one miss and leaves the key rebuildable.
        """
        with self._lock:
            if key in self._plans:
                return self._record_hit(key)
            build_lock = self._building.get(key)
            if build_lock is None:
                build_lock = self._building[key] = threading.Lock()
        with build_lock:
            with self._lock:
                if key in self._plans:
                    # Another thread finished this key while we waited.
                    return self._record_hit(key)
                self._misses += 1
            try:
                plan = builder()
                # Outside the global lock, like the build itself: the
                # invariant sweep may touch every precomputed table.
                _staticcheck_plan(plan)
                with self._lock:
                    self._plans[key] = plan
                    self._plans.move_to_end(key)
                    while len(self._plans) > self.capacity:
                        self._plans.popitem(last=False)
                        self._evictions += 1
            finally:
                with self._lock:
                    self._building.pop(key, None)
        return plan

    def clear(self) -> None:
        """Drop every cached plan and reset hit/miss/eviction statistics."""
        with self._lock:
            self._plans.clear()
            self._hits = self._misses = self._evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._plans

    @property
    def stats(self) -> Dict[str, float]:
        """Hit/miss/eviction counts plus the derived hit rate."""
        with self._lock:
            total = self._hits + self._misses
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "size": len(self._plans),
                "capacity": self.capacity,
                "hit_rate": (self._hits / total) if total else 0.0,
            }


_global_cache: Optional[PlanCache] = None
_global_lock = threading.Lock()


def get_plan_cache() -> PlanCache:
    """The process-wide plan cache (created on first use)."""
    global _global_cache
    with _global_lock:
        if _global_cache is None:
            _global_cache = PlanCache()
        return _global_cache


def set_plan_cache(cache: Optional[PlanCache]) -> PlanCache:
    """Install a new process-wide cache (``None`` → fresh default) and
    return it.  Tests use this to isolate hit-rate assertions."""
    global _global_cache
    with _global_lock:
        _global_cache = cache if cache is not None else PlanCache()
        return _global_cache
