"""Low-overhead sampling profiler with ExecutionPlan-phase attribution.

A daemon thread periodically snapshots every interpreter thread via
``sys._current_frames()`` and aggregates the stacks two ways:

* **flame data** — counts per distinct stack, exportable as
  collapsed-stack text (``a;b;c 42``, the flamegraph.pl interchange
  format) or as a Chrome ``trace_event`` document on a synthetic
  timeline (1 sample = 1 sampling interval of width);
* **phase attribution** — each sample is classified, innermost frame
  first, into the ConvStencil pipeline stages the paper's Fig.-6
  breakdown argues from: ``stencil2row`` (layout transform),
  ``gemm`` (the stacked-matmul engines), ``direct`` (the shifted-add
  passes of :mod:`repro.core.direct`, the default strategy's compute),
  ``fixup`` (dirty-zone / padding steering), ``halo`` (pad, refresh and
  unpack), ``plan`` (plan build and cache), ``other`` (repro code
  outside those stages) and ``idle`` (no repro frame on the stack at
  all — pool plumbing, waiting).

Sampling costs one ``sys._current_frames()`` walk per interval (default
5 ms) regardless of workload size; when the profiler is not started the
cost is zero.
"""

from __future__ import annotations

import sys
import threading
from typing import Any, Dict, List, Optional, Tuple

from repro.telemetry.log import get_logger

__all__ = ["PHASES", "SamplingProfiler", "classify_stack"]

_log = get_logger("obs.profiler")

#: Phase labels in render order.
PHASES = ("stencil2row", "gemm", "direct", "fixup", "halo", "plan", "other", "idle")

#: Default wall-clock seconds between interpreter snapshots.
DEFAULT_INTERVAL = 0.005

#: Bound on distinct stacks kept; the long tail folds into one bucket.
MAX_DISTINCT_STACKS = 4096

_TRUNCATED_STACK = ("(truncated)",)

#: Module basenames whose frames mark the GEMM stage (stacked matmuls).
_GEMM_MODULES = {"engine1d", "engine2d", "engine3d", "im2row", "simulated"}

#: Module basenames for plan construction / caching.
_PLAN_MODULES = {"plan", "cache", "fusion", "blocking", "weights", "lookup"}

#: Innermost-frame modules that mean the thread is parked, not computing —
#: a dispatcher blocked in ``future.result()`` should read as idle even
#: though repro frames sit above the wait.
_WAIT_MODULES = {
    "threading",
    "queue",
    "selectors",
    "socket",
    "socketserver",
    "concurrent.futures._base",
    "concurrent.futures.thread",
    "concurrent.futures.process",
    "multiprocessing.connection",
    "multiprocessing.queues",
    "multiprocessing.pool",
}


def classify_frame(module: str, func: str) -> Optional[str]:
    """Phase of a single ``module``/``function`` frame, or ``None``."""
    base = module.rsplit(".", 1)[-1]
    if func.startswith("stencil2row") or base == "stencil2row":
        # _extend_columns (the dirty-zone extension) is classified below.
        if func == "_extend_columns":
            return "fixup"
        return "stencil2row"
    if func.startswith(("pad_halo", "refresh_halo", "unpad")):
        return "halo"
    if base == "padding" or "dirty" in func:
        return "fixup"
    if base == "direct":
        return "direct"
    if base in _GEMM_MODULES or base.startswith("compiled_engine"):
        # exec-compiled kernels live under repro.codegen.generated.*; the
        # whole straight-line body is the stacked-GEMM stage (its gather
        # helpers are named stencil2row_* and classified above).
        return "gemm"
    if base in _PLAN_MODULES or func.startswith("build_plan") or func.startswith("plan_"):
        return "plan"
    return None


def classify_stack(frames: "List[Tuple[str, str]]") -> str:
    """Phase of one sampled stack (``(module, func)`` pairs, root first).

    Walks innermost-first so a GEMM running inside a fused pass is
    attributed to ``gemm``, not to the enclosing orchestration frame.
    Stacks with no ``repro`` frame — or parked innermost in stdlib wait
    plumbing (``future.result()``, queue gets) — are ``idle``.
    """
    if frames and frames[-1][0] in _WAIT_MODULES:
        return "idle"
    for module, func in reversed(frames):
        phase = classify_frame(module, func)
        if phase is not None:
            return phase
    if any(module.startswith("repro") for module, _func in frames):
        return "other"
    return "idle"


class SamplingProfiler:
    """Background stack sampler; start/stop, thread-safe aggregation."""

    def __init__(
        self,
        interval: float = DEFAULT_INTERVAL,
        max_stack_depth: int = 64,
    ) -> None:
        self.interval = max(float(interval), 1e-4)
        self.max_stack_depth = max_stack_depth
        self._lock = threading.Lock()
        self._stacks: Dict[Tuple[str, ...], int] = {}
        self._phases: Dict[str, int] = {phase: 0 for phase in PHASES}
        self._samples = 0
        self._ticks = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle --------------------------------------------------------

    @property
    def running(self) -> bool:
        """Whether the sampler thread is alive *in this process* (a forked
        child inherits the object but not the thread)."""
        thread = self._thread
        return thread is not None and thread.is_alive()

    def start(self) -> "SamplingProfiler":
        """Start the daemon sampler thread (idempotent)."""
        if self.running:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-obs-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop sampling; aggregated data is kept."""
        self._stop.set()
        thread = self._thread
        if thread is not None and thread.is_alive():
            thread.join(timeout=max(1.0, 10 * self.interval))
        self._thread = None

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.sample_once()
            except RuntimeError as exc:  # interpreter shutting down
                _log.debug("profiler sample failed: %s", exc)
                return

    # -- sampling ---------------------------------------------------------

    def sample_once(self) -> int:
        """Take one snapshot of all threads; returns stacks recorded."""
        own = threading.get_ident()
        frames = sys._current_frames()
        recorded = 0
        collected: List[Tuple[Tuple[str, ...], str]] = []
        for tid, frame in frames.items():
            if tid == own:
                continue
            stack: List[Tuple[str, str]] = []
            depth = 0
            while frame is not None and depth < self.max_stack_depth:
                module = frame.f_globals.get("__name__", "?")
                stack.append((str(module), frame.f_code.co_name))
                frame = frame.f_back
                depth += 1
            stack.reverse()  # root first
            phase = classify_stack(stack)
            key: Tuple[str, ...] = ()
            if phase != "idle":
                key = tuple(f"{module}:{func}" for module, func in stack)
            collected.append((key, phase))
        with self._lock:
            self._ticks += 1
            for key, phase in collected:
                self._samples += 1
                self._phases[phase] = self._phases.get(phase, 0) + 1
                if not key:
                    continue
                if key not in self._stacks and len(self._stacks) >= MAX_DISTINCT_STACKS:
                    key = _TRUNCATED_STACK
                self._stacks[key] = self._stacks.get(key, 0) + 1
                recorded += 1
        return recorded

    # -- aggregation ------------------------------------------------------

    def clear(self) -> None:
        """Drop all aggregated samples (the sampler keeps running)."""
        with self._lock:
            self._stacks.clear()
            self._phases = {phase: 0 for phase in PHASES}
            self._samples = 0
            self._ticks = 0

    @property
    def samples(self) -> int:
        """Total thread-stack samples aggregated so far."""
        with self._lock:
            return self._samples

    def phase_counts(self) -> Dict[str, int]:
        """Sample counts per phase (stable key order, zeros included)."""
        with self._lock:
            counts = dict(self._phases)
        return {phase: counts.get(phase, 0) for phase in PHASES}

    def stacks(self) -> Dict[Tuple[str, ...], int]:
        """Snapshot copy of the distinct-stack counts."""
        with self._lock:
            return dict(self._stacks)

    # -- export -----------------------------------------------------------

    def collapsed(self) -> str:
        """Collapsed-stack text (``frame;frame;frame count`` per line).

        Feeds flamegraph.pl / speedscope directly.  Lines are ordered by
        descending count then lexicographically, so output is
        deterministic for a given aggregate.
        """
        stacks = self.stacks()
        lines = [
            f"{';'.join(key)} {count}"
            for key, count in sorted(stacks.items(), key=lambda kv: (-kv[1], kv[0]))
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def chrome_trace(self) -> Dict[str, Any]:
        """Chrome ``trace_event`` flame chart on a synthetic timeline.

        Each distinct stack occupies ``count × interval`` of synthetic
        time; frames nest as same-span "X" events, which Perfetto renders
        as a flame.  Timestamps are synthetic (sample-weighted), not wall
        clock.
        """
        events: List[Dict[str, Any]] = []
        cursor = 0.0
        for key, count in sorted(self.stacks().items(), key=lambda kv: (-kv[1], kv[0])):
            width_us = count * self.interval * 1e6
            for depth, frame_name in enumerate(key):
                events.append(
                    {
                        "name": frame_name,
                        "cat": "repro.obs",
                        "ph": "X",
                        "ts": cursor,
                        "dur": width_us,
                        "pid": 0,
                        "tid": depth,
                        "args": {"samples": count},
                    }
                )
            cursor += width_us
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"samples": self.samples, "interval_s": self.interval},
        }

    def export(self, path) -> None:
        """Write flame data by extension: ``.json`` → Chrome trace, else
        collapsed-stack text."""
        import json
        from pathlib import Path

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.suffix.lower() == ".json":
            path.write_text(json.dumps(self.chrome_trace(), indent=1, sort_keys=True))
        else:
            path.write_text(self.collapsed())
