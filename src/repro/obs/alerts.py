"""Multi-window SLO burn-rate alerting over the obs breach counters.

A bare ``slo_breaches`` counter says *that* the objective is eroding, not
*how fast*.  The operator question is "at the current breach rate, when
do we exhaust the error budget?" — which the SRE-workbook multi-window
**burn rate** answers:

    burn = (breach fraction over a window) / (1 - objective)

A burn of 1.0 spends the budget exactly at the sustainable rate; 14.4
over 5 minutes spends a 30-day budget in ~2 days.  One window alone is
either twitchy (short) or slow to clear (long), so each alert pairs a
**fast** and a **slow** window:

=========  ==========================================================
firing     both windows exceed their thresholds — sustained burn, page
pending    only the fast window exceeds — a spike worth watching
ok         neither exceeds
=========  ==========================================================

Everything is deterministic under an injectable clock: :class:`BurnRateAlert`
never reads time itself unless constructed without one, and the engine's
transition listeners (the black box hooks in here, see
:func:`repro.flight.attach_alert_hook`) fire synchronously inside
:meth:`BurnRateAlert.evaluate`.  Totals are sampled cumulatively —
``observe(total, breached)`` with monotonic counters — so the window
fraction is an exact difference of two samples, not a decayed estimate.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.telemetry.log import get_logger

__all__ = [
    "STATE_FIRING",
    "STATE_OK",
    "STATE_PENDING",
    "AlertEngine",
    "AlertPolicy",
    "BurnRateAlert",
    "BurnWindow",
]

_log = get_logger("obs.alerts")

# Audited clock reference (see staticcheck RPR004): raw time.* only here.
_CLOCK: Callable[[], float] = time.monotonic

STATE_OK = "ok"
STATE_PENDING = "pending"
STATE_FIRING = "firing"

#: Numeric codes exported at ``/metrics`` (``repro_alert_state``).
STATE_CODES: Dict[str, int] = {STATE_OK: 0, STATE_PENDING: 1, STATE_FIRING: 2}

#: ``listener(alert, old_state, new_state, now)`` — called on transition.
TransitionListener = Callable[["BurnRateAlert", str, str, float], None]


class BurnWindow:
    """One look-back window: ``burn_rate >= threshold`` trips it."""

    __slots__ = ("name", "seconds", "threshold")

    def __init__(self, name: str, seconds: float, threshold: float) -> None:
        if seconds <= 0:
            raise ValueError(f"window seconds must be positive, got {seconds}")
        if threshold <= 0:
            raise ValueError(f"burn threshold must be positive, got {threshold}")
        self.name = name
        self.seconds = float(seconds)
        self.threshold = float(threshold)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "seconds": self.seconds,
            "threshold": self.threshold,
        }


class AlertPolicy:
    """An SLO objective plus its fast/slow burn windows.

    Defaults follow the classic page-worthy pairing: 99% objective,
    14.4× burn over 5 minutes (fast) and 6× over 1 hour (slow).
    """

    __slots__ = ("name", "objective", "fast", "slow")

    def __init__(
        self,
        name: str = "slo-burn",
        objective: float = 0.99,
        fast: Optional[BurnWindow] = None,
        slow: Optional[BurnWindow] = None,
    ) -> None:
        if not 0.0 < objective < 1.0:
            raise ValueError(f"objective must be in (0, 1), got {objective}")
        self.name = name
        self.objective = float(objective)
        self.fast = fast if fast is not None else BurnWindow("fast", 300.0, 14.4)
        self.slow = slow if slow is not None else BurnWindow("slow", 3600.0, 6.0)
        if self.fast.seconds >= self.slow.seconds:
            raise ValueError(
                "fast window must be shorter than slow window "
                f"({self.fast.seconds} >= {self.slow.seconds})"
            )

    @property
    def budget(self) -> float:
        """Allowed breach fraction (``1 - objective``)."""
        return 1.0 - self.objective

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "objective": self.objective,
            "fast": self.fast.to_dict(),
            "slow": self.slow.to_dict(),
        }


class BurnRateAlert:
    """State machine for one :class:`AlertPolicy` over cumulative totals.

    Not thread-safe by itself; :class:`AlertEngine` (or the obs layer's
    lock) serialises access.
    """

    def __init__(
        self,
        policy: Optional[AlertPolicy] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.policy = policy if policy is not None else AlertPolicy()
        self._clock = clock if clock is not None else _CLOCK
        #: ``(t, total, breached)`` cumulative samples, oldest first.
        self._samples: Deque[Tuple[float, int, int]] = deque()
        self.state = STATE_OK
        self.transitions = 0
        self.since: Optional[float] = None
        self._listeners: List[TransitionListener] = []

    # -- feeding ----------------------------------------------------------

    def add_listener(self, listener: TransitionListener) -> None:
        self._listeners.append(listener)

    def observe(
        self, total: int, breached: int, now: Optional[float] = None
    ) -> str:
        """Record one cumulative ``(total, breached)`` sample and evaluate.

        Counters must be monotonic (a reset — e.g. collector swap — is
        detected and flushes history rather than producing negative
        rates).  Returns the post-evaluation state.
        """
        t = self._clock() if now is None else now
        if self._samples and (
            total < self._samples[-1][1] or breached < self._samples[-1][2]
        ):
            _log.warning(
                "alert %s: counters went backwards (collector reset?); "
                "restarting windows",
                self.policy.name,
            )
            self._samples.clear()
        self._samples.append((t, int(total), int(breached)))
        self._prune(t)
        return self.evaluate(t)

    def _prune(self, now: float) -> None:
        """Drop samples older than the slow window — but always keep one
        sample at-or-before the horizon so the slow window has a baseline."""
        horizon = now - self.policy.slow.seconds
        while len(self._samples) >= 2 and self._samples[1][0] <= horizon:
            self._samples.popleft()

    # -- maths ------------------------------------------------------------

    def _baseline(self, now: float, window: BurnWindow) -> Tuple[float, int, int]:
        """Newest sample at-or-before ``now - window``; else the oldest."""
        horizon = now - window.seconds
        chosen = self._samples[0]
        for sample in self._samples:
            if sample[0] <= horizon:
                chosen = sample
            else:
                break
        return chosen

    def burn_rate(self, window: BurnWindow, now: Optional[float] = None) -> float:
        """Observed burn multiple over ``window`` (0.0 with no traffic)."""
        if not self._samples:
            return 0.0
        t = self._clock() if now is None else now
        base = self._baseline(t, window)
        latest = self._samples[-1]
        d_total = latest[1] - base[1]
        d_breached = latest[2] - base[2]
        if d_total <= 0:
            return 0.0
        return (d_breached / d_total) / self.policy.budget

    # -- state machine ----------------------------------------------------

    def evaluate(self, now: Optional[float] = None) -> str:
        """Re-derive the state from current burn rates; fire listeners."""
        t = self._clock() if now is None else now
        fast = self.burn_rate(self.policy.fast, t)
        slow = self.burn_rate(self.policy.slow, t)
        if fast >= self.policy.fast.threshold and slow >= self.policy.slow.threshold:
            new_state = STATE_FIRING
        elif fast >= self.policy.fast.threshold:
            new_state = STATE_PENDING
        else:
            new_state = STATE_OK
        if new_state != self.state:
            old = self.state
            self.state = new_state
            self.since = t
            self.transitions += 1
            _log.info(
                "alert %s: %s -> %s (fast=%.2f slow=%.2f)",
                self.policy.name, old, new_state, fast, slow,
            )
            for listener in list(self._listeners):
                try:
                    listener(self, old, new_state, t)
                except Exception:  # pragma: no cover - listener bug
                    _log.exception("alert listener failed; alerting continues")
        return self.state

    # -- reporting --------------------------------------------------------

    def snapshot(self, now: Optional[float] = None) -> Dict[str, Any]:
        """JSON-able view: state, per-window burns, transition count."""
        t = self._clock() if now is None else now
        latest = self._samples[-1] if self._samples else (t, 0, 0)
        return {
            "name": self.policy.name,
            "state": self.state,
            "state_code": STATE_CODES[self.state],
            "transitions": self.transitions,
            "objective": self.policy.objective,
            "windows": {
                w.name: {
                    "seconds": w.seconds,
                    "threshold": w.threshold,
                    "burn_rate": self.burn_rate(w, t),
                }
                for w in (self.policy.fast, self.policy.slow)
            },
            "total": latest[1],
            "breached": latest[2],
        }


class AlertEngine:
    """Ties alerts to a totals supplier (the obs collector by default).

    ``tick()`` pulls ``(total, breached)`` once and feeds every alert, so
    a single scrape or snapshot advances all of them coherently.
    """

    def __init__(
        self,
        supplier: Callable[[], Tuple[int, int]],
        policies: Optional[List[AlertPolicy]] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self._supplier = supplier
        clk = clock if clock is not None else _CLOCK
        self._clock = clk
        self.alerts: List[BurnRateAlert] = [
            BurnRateAlert(policy, clock=clk)
            for policy in (policies if policies is not None else [AlertPolicy()])
        ]

    def add_listener(self, listener: TransitionListener) -> None:
        for alert in self.alerts:
            alert.add_listener(listener)

    def tick(self, now: Optional[float] = None) -> Dict[str, str]:
        """Sample the supplier, feed all alerts, return name → state."""
        t = self._clock() if now is None else now
        total, breached = self._supplier()
        return {
            alert.policy.name: alert.observe(total, breached, now=t)
            for alert in self.alerts
        }

    def snapshot(self, now: Optional[float] = None) -> List[Dict[str, Any]]:
        t = self._clock() if now is None else now
        return [alert.snapshot(now=t) for alert in self.alerts]
