"""Streaming latency histograms with bit-exact cross-process merges.

Live SLO monitoring needs latency *distributions*, not means: the p99 of
``run_batch`` under load is what a serving deployment gates on.  This
module records latencies into a **fixed logarithmic bucket layout**
shared by every process:

* bounds run from 1 µs to 10 s at 8 buckets per decade (57 finite
  bounds), plus one overflow bucket;
* every histogram in every process uses the *same* bounds, so a merge is
  an element-wise **integer** addition — associative and commutative,
  hence folding histograms in any order yields bit-identical bucket
  counts and therefore bit-identical quantiles.

Quantiles are a deterministic pure function of the bucket counts: the
reported pXX is the *upper bound* of the bucket containing the target
rank (conservative — never under-reports latency).  The floating-point
``sum`` field is carried for convenience (mean estimates) and is the one
field outside the bit-exact contract: float addition is not associative,
so only ``counts`` and quantiles are guaranteed merge-order-invariant.

Buckets can optionally carry **exemplars** — the ``(trace_id, tenant,
plan-label)`` identity of the worst (max-latency) observation that landed
in the bucket — so a p99 outlier in a dashboard links straight back to
the request that caused it.  Exemplars ride *beside* the counts: they
never perturb ``counts``/``count``/quantiles, and their own merge rule
(keep the larger value; break exact ties by lexicographically smaller
``trace_id``) is associative and commutative, so merge-order invariance
extends to the exemplar a bucket ends up holding.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "BOUNDS",
    "Exemplar",
    "LAYOUT",
    "LatencyHistogram",
    "merge_histograms",
]

#: Layout identifier embedded in serialised payloads; a merge across
#: differing layouts is refused rather than silently corrupted.
LAYOUT = "log8/1e-6..10"

#: Finite bucket upper bounds in seconds: 8 per decade, 1 µs → 10 s.
BOUNDS: Tuple[float, ...] = tuple(10.0 ** (-6.0 + i / 8.0) for i in range(57))

#: Total bucket count (finite bounds + one overflow bucket).
N_BUCKETS = len(BOUNDS) + 1


class Exemplar:
    """The identity of the worst observation a bucket has seen.

    Comparison (:meth:`beats`) is a total order independent of arrival
    order — larger ``value`` wins, exact ties fall to the
    lexicographically smaller ``trace_id`` — which is what keeps
    exemplar merges order-invariant alongside the integer counts.
    """

    __slots__ = ("value", "trace_id", "tenant", "label")

    def __init__(
        self, value: float, trace_id: str, tenant: str = "", label: str = ""
    ) -> None:
        self.value = float(value)
        self.trace_id = str(trace_id)
        self.tenant = str(tenant)
        self.label = str(label)

    def beats(self, other: "Exemplar") -> bool:
        """True if this exemplar should replace ``other`` in a bucket."""
        if self.value != other.value:
            return self.value > other.value
        return self.trace_id < other.trace_id

    def to_list(self) -> List[Any]:
        return [self.value, self.trace_id, self.tenant, self.label]

    @classmethod
    def from_list(cls, raw: Iterable[Any]) -> "Exemplar":
        items = list(raw)
        if not items:
            raise ValueError("empty exemplar payload")
        return cls(
            float(items[0]),
            str(items[1]) if len(items) > 1 else "",
            str(items[2]) if len(items) > 2 else "",
            str(items[3]) if len(items) > 3 else "",
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Exemplar):
            return NotImplemented
        return (
            self.value == other.value
            and self.trace_id == other.trace_id
            and self.tenant == other.tenant
            and self.label == other.label
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Exemplar({self.value:.6f}, trace_id={self.trace_id!r}, "
            f"tenant={self.tenant!r}, label={self.label!r})"
        )


class LatencyHistogram:
    """Fixed-layout latency histogram (seconds) with integer buckets.

    Not thread-safe by itself; the obs collector serialises access.
    """

    __slots__ = ("counts", "count", "sum", "exemplars")

    def __init__(self) -> None:
        self.counts: List[int] = [0] * N_BUCKETS
        self.count: int = 0
        self.sum: float = 0.0
        #: bucket index → worst observation seen there (sparse).
        self.exemplars: Dict[int, Exemplar] = {}

    # -- recording --------------------------------------------------------

    def observe(
        self,
        seconds: float,
        trace_id: str = "",
        tenant: str = "",
        label: str = "",
    ) -> None:
        """Record one latency sample (negative values clamp to zero).

        With a non-empty ``trace_id`` the sample also competes for its
        bucket's exemplar slot; counts are identical either way.
        """
        v = seconds if seconds > 0.0 else 0.0
        i = bisect_left(BOUNDS, v)
        self.counts[i] += 1
        self.count += 1
        self.sum += v
        if trace_id:
            candidate = Exemplar(v, trace_id, tenant, label)
            held = self.exemplars.get(i)
            if held is None or candidate.beats(held):
                self.exemplars[i] = candidate

    # -- merging ----------------------------------------------------------

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Fold ``other`` into this histogram in place (integer adds).

        Exemplars fold by the same keep-the-winner rule as
        :meth:`observe`, so the surviving exemplar per bucket does not
        depend on merge order.
        """
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.sum += other.sum
        for i, incoming in other.exemplars.items():
            held = self.exemplars.get(i)
            if held is None or incoming.beats(held):
                self.exemplars[i] = incoming
        return self

    # -- quantiles --------------------------------------------------------

    def quantile(self, q: float) -> float:
        """Upper-bound quantile estimate, deterministic in the counts.

        Returns 0.0 for an empty histogram and ``math.inf`` when the
        target rank falls in the overflow (> 10 s) bucket.
        """
        if self.count <= 0:
            return 0.0
        q = min(max(q, 0.0), 1.0)
        target = max(1, math.ceil(q * self.count))
        cumulative = 0
        for i, c in enumerate(self.counts):
            cumulative += c
            if cumulative >= target:
                return BOUNDS[i] if i < len(BOUNDS) else math.inf
        return math.inf

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    @property
    def mean(self) -> float:
        """Mean latency (float ``sum`` — not part of the bit-exact contract)."""
        return self.sum / self.count if self.count else 0.0

    # -- exemplars --------------------------------------------------------

    def bucket_exemplar(self, index: int) -> Optional[Exemplar]:
        """The exemplar held by bucket ``index`` (``None`` if unset)."""
        return self.exemplars.get(index)

    def quantile_exemplar(self, q: float) -> Optional[Exemplar]:
        """The exemplar of the bucket that :meth:`quantile` would report.

        ``None`` for an empty histogram or when that bucket recorded no
        exemplar-carrying observations.
        """
        if self.count <= 0:
            return None
        q = min(max(q, 0.0), 1.0)
        target = max(1, math.ceil(q * self.count))
        cumulative = 0
        for i, c in enumerate(self.counts):
            cumulative += c
            if cumulative >= target:
                return self.exemplars.get(i)
        return None

    def max_exemplar(self) -> Optional[Exemplar]:
        """The worst exemplar across all buckets (``None`` when none set)."""
        best: Optional[Exemplar] = None
        for ex in self.exemplars.values():
            if best is None or ex.beats(best):
                best = ex
        return best

    # -- serialisation ----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able payload (sparse bucket encoding, layout-tagged)."""
        payload: Dict[str, Any] = {
            "layout": LAYOUT,
            "count": self.count,
            "sum": self.sum,
            "buckets": {str(i): c for i, c in enumerate(self.counts) if c},
        }
        if self.exemplars:
            payload["exemplars"] = {
                str(i): ex.to_list() for i, ex in sorted(self.exemplars.items())
            }
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "LatencyHistogram":
        """Rebuild from :meth:`to_dict`; refuses foreign bucket layouts."""
        layout = payload.get("layout")
        if layout != LAYOUT:
            raise ValueError(
                f"histogram layout mismatch: got {layout!r}, expected {LAYOUT!r}"
            )
        hist = cls()
        for key, c in (payload.get("buckets") or {}).items():
            i = int(key)
            if not 0 <= i < N_BUCKETS:
                raise ValueError(f"histogram bucket index {i} out of range")
            hist.counts[i] = int(c)
        hist.count = int(payload.get("count", sum(hist.counts)))
        hist.sum = float(payload.get("sum", 0.0))
        for key, raw in (payload.get("exemplars") or {}).items():
            i = int(key)
            if not 0 <= i < N_BUCKETS:
                raise ValueError(f"histogram exemplar index {i} out of range")
            hist.exemplars[i] = Exemplar.from_list(raw)
        return hist

    def cumulative(self) -> List[Tuple[float, int]]:
        """Prometheus-style ``(le_bound, cumulative_count)`` pairs.

        The final pair uses ``math.inf`` as its bound (the ``+Inf`` bucket).
        """
        out: List[Tuple[float, int]] = []
        running = 0
        for i, c in enumerate(self.counts):
            running += c
            out.append((BOUNDS[i] if i < len(BOUNDS) else math.inf, running))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"LatencyHistogram(count={self.count}, p50={self.p50:.6f}, "
            f"p99={self.p99:.6f})"
        )


def merge_histograms(
    histograms: Iterable[Optional[LatencyHistogram]],
) -> LatencyHistogram:
    """Fold many histograms into a fresh one (``None`` entries skipped).

    Because bucket counts are integers over a shared fixed layout, the
    result's ``counts``/``count`` — and every quantile — are identical
    for any iteration order of ``histograms``.
    """
    out = LatencyHistogram()
    for h in histograms:
        if h is not None:
            out.merge(h)
    return out
