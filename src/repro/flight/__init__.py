"""repro.flight — the serve path's black box, read off the tracer ring.

The serve layer amortises many small stencil requests into one GEMM
pass (PAPER.md §3.3, Eq. 13); this package answers the operator-side
question that amortisation raises: *which requests rode which coalesced
batch, and where did this p99 outlier spend its time?*  From the
``trace`` observability level up, every request admitted by
:class:`repro.serve.StencilService` leaves one ``serve.<stage>`` span per
pipeline stage (``admit → queue_wait → coalesce → execute → split``) in
the ordinary :mod:`repro.telemetry` ring, the ``execute`` span linking
every member of its coalesced batch.  There is no second record.

On an error or an SLO breach, :func:`dump` scans that ring and writes the
offending ``trace_id``'s spans plus those of its ring neighbours to
``$REPRO_FLIGHT_DIR`` as span JSONL, at most :data:`MAX_DUMPS` (8) files
per directory — a runaway failure must not fill the disk.  ``repro
report FILE --request-id ID`` replays a request's waterfall from any
span JSONL (:mod:`repro.flight.waterfall`); ``ID`` is a request id or
the ``trace_id`` an exemplar or the live view's ``slowest`` column
names.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import Dict, List, Optional

from repro.errors import ReproError
from repro.flight.waterfall import (
    load_requests,
    missing_stages,
    render_request_list,
    render_request_report,
    render_waterfall,
    spans_to_trace,
    traces_by_request,
)
from repro.telemetry.log import get_logger
from repro.telemetry.trace import Span, Tracer, get_tracer, write_spans_jsonl

__all__ = [
    "DIR_ENV",
    "MAX_DUMPS",
    "dump",
    "load_requests",
    "missing_stages",
    "neighborhood",
    "render_request_list",
    "render_request_report",
    "render_waterfall",
    "spans_to_trace",
    "traces_by_request",
]

_log = get_logger("flight")

#: Dump directory (no directory, no dumps) and per-directory dump budget.
DIR_ENV = "REPRO_FLIGHT_DIR"
MAX_DUMPS = 8

_lock = threading.Lock()
#: Dumps written per directory this process; also the file sequence.
_written: Dict[Path, int] = {}


def neighborhood(spans: List[Span], trace_id: str, neighbors: int = 8) -> List[Span]:
    """The spans of ``trace_id`` and of the ``neighbors`` traces either side
    of it in ring order (first appearance); the newest ``2*neighbors+1``
    traces when ``trace_id`` is already evicted."""
    order = list(
        dict.fromkeys(sp.attributes.get("trace_id") for sp in spans if sp.attributes.get("trace_id"))
    )
    if trace_id in order:
        at = order.index(trace_id)
        keep = set(order[max(0, at - neighbors) : at + neighbors + 1])
    else:
        keep = set(order[-(2 * neighbors + 1) :])
    return [sp for sp in spans if sp.attributes.get("trace_id") in keep]


def dump(
    reason: str,
    trace_id: str,
    *,
    tracer: Optional[Tracer] = None,
    dump_dir: "str | Path | None" = None,
) -> Optional[Path]:
    """Write :func:`neighborhood` of ``trace_id`` as span JSONL.

    ``tracer`` and ``dump_dir`` default to the process tracer and
    ``$REPRO_FLIGHT_DIR``.  Returns the file written, or ``None`` when no
    directory is set, the directory's :data:`MAX_DUMPS` budget is spent,
    or the write fails.
    """
    directory = dump_dir or os.environ.get(DIR_ENV)
    if not directory:
        return None
    directory = Path(directory)
    with _lock:
        seq = _written.get(directory, 0) + 1
        if seq > MAX_DUMPS:
            return None
        _written[directory] = seq
    ring = (tracer if tracer is not None else get_tracer()).spans()
    safe = "".join(ch if ch.isalnum() or ch in "-_" else "-" for ch in reason) or "dump"
    path = directory / f"flight-{seq:04d}-{safe}.jsonl"
    try:
        write_spans_jsonl(path, neighborhood(ring, trace_id))
    except ReproError as exc:
        _log.warning("flight: cannot write dump %s (%s)", path, exc)
        return None
    _log.info("flight: wrote black-box dump %s (%s)", path, reason)
    return path
