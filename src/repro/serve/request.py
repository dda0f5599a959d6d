"""Request/Response dataclasses and the coalescing key.

A :class:`Request` is one tenant's ask: advance one grid ``steps`` time
steps under one kernel.  Requests whose executions are *interchangeable
inside one batched pass* share a :func:`coalesce_key` — the plan key
(kernel, shape, boundary, fusion depth) extended by the per-run knobs
(``steps``, ``fill_value``) that a single ``execute_batch`` call fixes
for the whole stack.  Folding same-key requests into one pass is exactly
the paper's amortisation argument: many small problems become one large
GEMM that keeps the hardware busy.

A :class:`Response` carries the result (or the HTTP-429-style rejection),
plus the serving metadata the load generator and tests assert on: the
coalesced batch size, the lane that executed it, and the observed
latency.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.core.fusion import FusionPlan
from repro.errors import ServeError
from repro.stencils.grid import BoundaryCondition
from repro.stencils.kernel import StencilKernel

__all__ = ["STAGES", "Request", "Response", "coalesce_key"]

#: Response status vocabulary (stringly-typed on purpose: JSON-able).
STATUS_OK = "ok"
STATUS_REJECTED = "rejected"

#: The serve pipeline's stages, in order; each is a ``serve.<stage>``
#: span.  A request is *complete* when it ended ``ok`` with every one.
STAGES = ("admit", "queue_wait", "coalesce", "execute", "split")

#: Fallback request-id sequence (clock-free, pid-qualified like
#: :func:`repro.telemetry.new_trace_id`) for requests constructed without
#: an explicit id — stage spans and batch links need a non-empty identity.
_REQUEST_IDS = itertools.count(1)


@dataclass(frozen=True)
class Request:
    """One serving request.  Construct with keywords past ``tenant``.

    ``fusion`` follows the library vocabulary: a depth, ``"auto"``, or a
    resolved :class:`~repro.core.fusion.FusionPlan`.
    """

    tenant: str
    kernel: StencilKernel = None  # type: ignore[assignment]
    data: np.ndarray = None  # type: ignore[assignment]
    steps: int = 1
    boundary: BoundaryCondition = BoundaryCondition.CONSTANT
    fill_value: float = 0.0
    fusion: "int | str | FusionPlan" = 1
    request_id: str = ""

    def __post_init__(self) -> None:
        if self.kernel is None or self.data is None:
            raise ServeError(
                "Request requires kernel= and data= (keyword-only construction: "
                "Request(tenant, kernel=k, data=x, steps=4))"
            )
        if self.steps < 0:
            raise ServeError(f"steps must be non-negative, got {self.steps}")
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != self.kernel.ndim:
            raise ServeError(
                f"{self.kernel.ndim}-D kernel served a {data.ndim}-D grid"
            )
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "boundary", BoundaryCondition(self.boundary))
        object.__setattr__(self, "fill_value", float(self.fill_value))
        if not self.request_id:
            object.__setattr__(
                self, "request_id", f"q{os.getpid():x}-{next(_REQUEST_IDS):06d}"
            )

    @property
    def grid_shape(self) -> Tuple[int, ...]:
        return tuple(self.data.shape)


@dataclass(frozen=True)
class Response:
    """The service's answer to one :class:`Request`."""

    request_id: str
    tenant: str
    status: str = STATUS_OK
    data: Optional[np.ndarray] = None
    #: How many requests shared the batched pass that produced this result.
    batch_size: int = 0
    #: Executor lane index the batch ran on (-1 for rejections).
    lane: int = -1
    #: Whether the routed lane already held the warm plan key.
    affinity_hit: bool = False
    #: Submit-to-completion latency in seconds (0.0 for rejections).
    latency_s: float = 0.0
    #: Rejection vocabulary: ``"quota"`` or ``"queue"`` (else ``None``).
    reason: Optional[str] = None
    #: Seconds a rejected client should wait before resubmitting.
    retry_after: Optional[float] = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def rejected(self) -> bool:
        return self.status == STATUS_REJECTED


@dataclass(frozen=True)
class _CoalesceKey:
    """Hashable identity of one batchable request population."""

    kernel_id: int
    kernel_name: str = field(compare=False, default="")
    grid_shape: Tuple[int, ...] = ()
    boundary: BoundaryCondition = BoundaryCondition.CONSTANT
    fusion_depth: int = 1
    steps: int = 1
    fill_value: float = 0.0

    def __hash__(self) -> int:
        return hash(
            (
                self.kernel_id,
                self.grid_shape,
                self.boundary,
                self.fusion_depth,
                self.steps,
                self.fill_value,
            )
        )

    @property
    def plan_tuple(self) -> tuple:
        """The sub-key governing plan (and therefore lane) affinity."""
        return (self.kernel_id, self.grid_shape, self.boundary, self.fusion_depth)


def coalesce_key(
    request: Request, kernel: StencilKernel, fusion_depth: int
) -> _CoalesceKey:
    """The batching identity of ``request`` under the *interned* ``kernel``.

    Two requests with equal keys can be stacked into one
    :func:`~repro.runtime.execute.execute_batch` pass and split back with
    bit-identical per-grid results (the PR-3 stacked-GEMM guarantee).
    """
    return _CoalesceKey(
        kernel_id=id(kernel),
        kernel_name=kernel.name,
        grid_shape=request.grid_shape,
        boundary=request.boundary,
        fusion_depth=int(fusion_depth),
        steps=int(request.steps),
        fill_value=float(request.fill_value),
    )
