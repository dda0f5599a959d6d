"""Span tracing for the ConvStencil reproduction.

A *span* is one named, timed region of execution — a fused pass, a
stencil2row gather, a solver iteration — with arbitrary key/value
attributes (kernel name, grid shape, fusion depth).  Spans nest: the
tracer tracks the active span per execution context (``contextvars``, so
threads and asyncio tasks each see their own stack) and records every
finished span, with its parent link, into a thread-safe in-memory buffer.

The buffer exports two formats:

* **JSONL** — one span object per line, trivially greppable/parsable;
* **Chrome ``trace_event``** — a ``{"traceEvents": [...]}`` document that
  ``chrome://tracing`` / Perfetto render as a flame chart.

Tracing is **off by default** and designed to cost near nothing while off:
:func:`span` performs one attribute lookup and allocates one tiny slotted
object whose ``__enter__`` immediately short-circuits.  Spans are
recorded from the ``trace`` observability level up (``REPRO_OBS=trace``
or ``obs.set_level("trace")``; see :mod:`repro.telemetry.level`).

Usage::

    from repro import obs, telemetry

    obs.set_level("trace")
    with telemetry.span("stencil2row", kernel="box-2d9p"):
        ...
    telemetry.get_tracer().export("trace.json")   # Chrome trace_event

    @telemetry.span("hot-function")               # decorator form
    def hot_function(...): ...
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import deque
from contextvars import ContextVar
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Deque, Dict, List, NamedTuple, Optional

from repro.errors import ReproError
from repro.telemetry.level import state as _level

__all__ = [
    "DEFAULT_MAX_SPANS",
    "Span",
    "SpanContext",
    "TraceContext",
    "Tracer",
    "current_trace",
    "enabled",
    "get_tracer",
    "new_trace_id",
    "record_span",
    "reset_trace",
    "set_trace",
    "span",
    "trace_scope",
    "write_spans_jsonl",
]

#: Environment override for the span ring-buffer capacity (``<= 0`` means
#: unbounded — the pre-ring behaviour).
MAX_SPANS_ENV = "REPRO_TELEMETRY_MAX_SPANS"

#: Default ring capacity: plenty for any bench/test run, bounded enough
#: that a long-lived live session (``repro report --live --interval``, the
#: obs exporter) cannot grow without limit.
DEFAULT_MAX_SPANS = 65536

def _env_max_spans() -> Optional[int]:
    """Ring capacity from ``REPRO_TELEMETRY_MAX_SPANS`` (``None`` = default).

    Malformed values warn-and-default rather than abort — the tracer may be
    constructed deep inside a run.
    """
    raw = os.environ.get(MAX_SPANS_ENV)
    if raw is None or not raw.strip():
        return None
    try:
        return int(raw)
    except ValueError:
        import warnings

        warnings.warn(
            f"{MAX_SPANS_ENV}={raw!r} is not an integer; "
            f"using the default capacity {DEFAULT_MAX_SPANS}",
            RuntimeWarning,
            stacklevel=2,
        )
        return None


@dataclass
class Span:
    """One finished (or in-flight) timed region.

    ``start``/``end`` are ``time.perf_counter()`` seconds; ``parent_id``
    links to the enclosing span recorded by the same tracer (``None`` for
    roots).
    """

    name: str
    start: float
    end: float = 0.0
    span_id: int = 0
    parent_id: Optional[int] = None
    thread_id: int = 0
    attributes: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Span wall time in seconds (0.0 while still open)."""
        return max(0.0, self.end - self.start)

    def set_attribute(self, key: str, value: Any) -> "Span":
        """Attach/overwrite one attribute; returns ``self`` for chaining."""
        self.attributes[key] = value
        return self

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (used by the JSONL exporter)."""
        from repro.utils.io import to_jsonable

        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "thread_id": self.thread_id,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "attributes": to_jsonable(self.attributes),
        }


class _NoopSpan:
    """Stand-in returned by ``span(...).__enter__`` while tracing is off.

    Supports the same surface a real :class:`Span` exposes to
    instrumentation code (``set_attribute``), so call sites never branch.
    """

    __slots__ = ()

    def set_attribute(self, key: str, value: Any) -> "_NoopSpan":
        return self

    @property
    def duration(self) -> float:
        return 0.0


_NOOP_SPAN = _NoopSpan()


class TraceContext(NamedTuple):
    """Request identity propagated with the execution context.

    ``trace_id`` names one end-to-end request journey; ``request_id`` is
    the caller-visible id riding it (the serve layer uses the request's
    own id).  Both are plain strings, so the context pickles unchanged.
    """

    trace_id: str
    request_id: str = ""


#: The ambient trace context.  ``contextvars`` gives every thread and
#: every asyncio task its own binding, and ``asyncio.create_task`` copies
#: the spawning task's context natively — executor submissions do *not*,
#: which is exactly what staticcheck RPR305 polices in the serve tree.
_TRACE: ContextVar[Optional[TraceContext]] = ContextVar(
    "repro_trace_context", default=None
)

#: Clock-free trace-id sequence (ids must not read wall time: RPR004).
_TRACE_IDS = itertools.count(1)


def new_trace_id() -> str:
    """A process-unique trace id (``t<pid-hex>-<seq>``), no clock reads."""
    return f"t{os.getpid():x}-{next(_TRACE_IDS):06d}"


def current_trace() -> Optional[TraceContext]:
    """The ambient :class:`TraceContext`, if one is bound."""
    return _TRACE.get()


def set_trace(trace_id: str, request_id: str = ""):
    """Bind a trace context; returns the token for :func:`reset_trace`."""
    return _TRACE.set(TraceContext(str(trace_id), str(request_id)))


def reset_trace(token) -> None:
    """Restore the binding that :func:`set_trace` replaced."""
    _TRACE.reset(token)


class trace_scope:
    """Context manager binding a trace context for the enclosed block.

    Accepts either ``(trace_id, request_id)`` strings or an existing
    :class:`TraceContext` as the first argument.  A falsy ``trace_id``
    makes the scope inert, so call sites can pass through unset context
    without branching.
    """

    __slots__ = ("_ctx", "_token")

    def __init__(self, trace_id, request_id: str = "") -> None:
        if isinstance(trace_id, TraceContext):
            self._ctx: Optional[TraceContext] = trace_id
        elif trace_id:
            self._ctx = TraceContext(str(trace_id), str(request_id))
        else:
            self._ctx = None
        self._token = None

    def __enter__(self) -> Optional[TraceContext]:
        if self._ctx is not None:
            self._token = _TRACE.set(self._ctx)
        return self._ctx

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._token is not None:
            _TRACE.reset(self._token)
            self._token = None
        return False


def _stamp_trace(attributes: Dict[str, Any]) -> None:
    """Copy the ambient trace identity into span attributes (setdefault)."""
    ctx = _TRACE.get()
    if ctx is None:
        return
    if "trace_id" not in attributes:
        attributes["trace_id"] = ctx.trace_id
    if ctx.request_id and "request_id" not in attributes:
        attributes["request_id"] = ctx.request_id


def _write_text(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise ReproError(f"cannot write trace file {path}: {exc}")


def write_spans_jsonl(path: "str | Path", spans: List[Span]) -> Path:
    """Write ``spans`` to ``path`` as span JSONL, one object per line."""
    path = Path(path)
    lines = [json.dumps(sp.to_dict(), sort_keys=True) for sp in spans]
    _write_text(path, "\n".join(lines) + ("\n" if lines else ""))
    return path


class Tracer:
    """Thread-safe ring buffer of finished spans plus the active-span stack.

    The buffer is bounded (``max_spans``, default
    :data:`DEFAULT_MAX_SPANS`, override via ``REPRO_TELEMETRY_MAX_SPANS``;
    ``<= 0`` means unbounded): once full, recording a new span evicts the
    oldest.  ``total_recorded`` counts every span ever buffered — it never
    decreases, so marks taken from it (:meth:`spans_since`) stay valid
    even after eviction.
    """

    def __init__(self, max_spans: Optional[int] = None) -> None:
        if max_spans is None:
            max_spans = _env_max_spans()
        if max_spans is None:
            max_spans = DEFAULT_MAX_SPANS
        self._lock = threading.Lock()
        self._max_spans = max_spans if max_spans > 0 else 0
        self._spans: Deque[Span] = deque()
        self._total = 0
        self._dropped = 0
        self._ids = itertools.count(1)
        self._current: ContextVar[Optional[Span]] = ContextVar(
            "repro_active_span", default=None
        )

    def _record_locked(self, sp: Span) -> None:
        """Append under ``self._lock``, evicting the oldest span when full."""
        if self._max_spans and len(self._spans) >= self._max_spans:
            self._spans.popleft()
            self._dropped += 1
        self._spans.append(sp)
        self._total += 1

    # -- recording --------------------------------------------------------

    def begin(self, name: str, attributes: Dict[str, Any]):
        """Open a span as a child of the context's active span.

        Spans opened while a :class:`TraceContext` is bound inherit its
        ``trace_id``/``request_id`` as attributes, so every span a request
        touches — across task hops and (explicitly re-entered) executor
        lanes — can be grouped back into one per-request trace.
        """
        _stamp_trace(attributes)
        parent = self._current.get()
        sp = Span(
            name=name,
            start=time.perf_counter(),  # staticcheck: disable=RPR004
            span_id=next(self._ids),
            parent_id=parent.span_id if parent is not None else None,
            thread_id=threading.get_ident(),
            attributes=attributes,
        )
        token = self._current.set(sp)
        return sp, token

    def finish(self, sp: Span, token) -> None:
        """Close ``sp``, pop it from the context, and buffer it."""
        sp.end = time.perf_counter()  # staticcheck: disable=RPR004
        self._current.reset(token)
        with self._lock:
            self._record_locked(sp)

    def current(self) -> Optional[Span]:
        """The context's innermost open span, if any."""
        return self._current.get()

    def record_span(
        self,
        name: str,
        start: float,
        end: float,
        attributes: Optional[Dict[str, Any]] = None,
    ) -> Span:
        """Buffer an externally timed span (no active-span stack changes).

        Used for *synthesised* spans whose start/end were measured by the
        caller's own clock — the serve layer's per-request stage spans
        (``admit``/``queue_wait``/…) are assembled this way because their
        boundaries live in different coroutine steps.  The span is parented
        under the context's active span and stamped with the ambient
        :class:`TraceContext` like any other.
        """
        attrs = dict(attributes or {})
        _stamp_trace(attrs)
        parent = self._current.get()
        sp = Span(
            name=name,
            start=float(start),
            end=float(end),
            span_id=next(self._ids),
            parent_id=parent.span_id if parent is not None else None,
            thread_id=threading.get_ident(),
            attributes=attrs,
        )
        with self._lock:
            self._record_locked(sp)
        return sp

    # -- inspection -------------------------------------------------------

    def spans(self) -> List[Span]:
        """Snapshot copy of all *buffered* spans (in completion order).

        With a bounded ring this is the most recent ``max_spans`` spans;
        earlier ones may have been evicted (see ``dropped``).
        """
        with self._lock:
            return list(self._spans)

    def spans_since(self, total_mark: int) -> List[Span]:
        """Spans recorded after ``total_mark`` (a ``total_recorded`` value).

        Eviction-safe: if more than a ring's worth of spans landed since
        the mark, returns what is still buffered (the newest ones).
        """
        with self._lock:
            fresh = self._total - int(total_mark)
            if fresh <= 0:
                return []
            if fresh >= len(self._spans):
                return list(self._spans)
            return list(self._spans)[-fresh:]

    @property
    def total_recorded(self) -> int:
        """Monotonic count of spans ever buffered (survives eviction/clear)."""
        with self._lock:
            return self._total

    @property
    def dropped(self) -> int:
        """Spans evicted from the ring because the buffer was full."""
        with self._lock:
            return self._dropped

    @property
    def max_spans(self) -> int:
        """Ring capacity (0 = unbounded)."""
        return self._max_spans

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def clear(self) -> None:
        """Drop all buffered spans (``total_recorded`` keeps counting up)."""
        with self._lock:
            self._spans.clear()

    # -- export -----------------------------------------------------------

    def export_jsonl(self, path: "str | Path") -> Path:
        """Write one JSON object per span to ``path`` (JSONL)."""
        return write_spans_jsonl(path, self.spans())

    def export_chrome_trace(self, path: "str | Path") -> Path:
        """Write a Chrome ``trace_event`` document (complete "X" events)."""
        from repro.utils.io import to_jsonable

        spans = self.spans()
        t0 = min((sp.start for sp in spans), default=0.0)
        events = [
            {
                "name": sp.name,
                "cat": "repro",
                "ph": "X",
                "ts": (sp.start - t0) * 1e6,
                "dur": sp.duration * 1e6,
                "pid": 0,
                "tid": sp.thread_id,
                "args": to_jsonable(sp.attributes),
            }
            for sp in spans
        ]
        payload = {"traceEvents": events, "displayTimeUnit": "ms"}
        path = Path(path)
        _write_text(path, json.dumps(payload, indent=1, sort_keys=True) + "\n")
        return path

    def export(self, path: "str | Path") -> Path:
        """Format-by-extension export: ``.jsonl`` → JSONL, else Chrome trace."""
        path = Path(path)
        if path.suffix.lower() == ".jsonl":
            return self.export_jsonl(path)
        return self.export_chrome_trace(path)


_tracer = Tracer()


def enabled() -> bool:
    """Whether span recording is on (observability level ``trace`` or up)."""
    return _level.tracing


def get_tracer() -> Tracer:
    """The process-wide tracer instance."""
    return _tracer


class SpanContext:
    """Context manager / decorator produced by :func:`span`.

    As a context manager it yields the live :class:`Span` (or a no-op
    stand-in while tracing is disabled).  As a decorator it wraps the
    function in a fresh span per call, checking enablement *at call time*
    so decorating at import keeps working after the level is raised.
    """

    __slots__ = ("name", "attributes", "_span", "_token")

    def __init__(self, name: str, attributes: Dict[str, Any]) -> None:
        self.name = name
        self.attributes = attributes
        self._span: Optional[Span] = None
        self._token = None

    def __enter__(self):
        if not _level.tracing:
            return _NOOP_SPAN
        self._span, self._token = _tracer.begin(self.name, self.attributes)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._span is not None:
            if exc_type is not None:
                self._span.attributes.setdefault("error", exc_type.__name__)
            _tracer.finish(self._span, self._token)
            self._span = None
            self._token = None
        return False

    def __call__(self, fn: Callable) -> Callable:
        name, attributes = self.name, self.attributes

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not _level.tracing:
                return fn(*args, **kwargs)
            with SpanContext(name, dict(attributes)):
                return fn(*args, **kwargs)

        return wrapper


def record_span(
    name: str, start: float, end: float, **attributes: Any
) -> Optional[Span]:
    """Buffer one externally timed span; ``None`` (near-free) while off."""
    if not _level.tracing:
        return None
    return _tracer.record_span(name, start, end, attributes)


def span(name: str, **attributes: Any) -> SpanContext:
    """Open a named span as a context manager or decorator.

    ``with span("pass", kernel="heat-2d") as sp: sp.set_attribute(...)``
    records one nested span; ``@span("solve")`` wraps a function.  While
    tracing is disabled the context manager is inert and near-free.
    """
    return SpanContext(name, attributes)
