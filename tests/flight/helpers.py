"""Shared helpers for the flight tests: synthetic stage spans and a small
served burst."""

from __future__ import annotations

import asyncio

from repro import get_kernel
from repro.serve import Request, ServeConfig, StencilService
from repro.serve.request import STAGES


def record_request(tracer, rid, t0=0.0, tenant="t0", status="ok", **outcome):
    """Record the five stage spans of one request into ``tracer``; the
    ``split`` span carries the outcome."""
    stamp = {"request_id": rid, "trace_id": f"t-{rid}", "tenant": tenant}
    t = t0
    for name in STAGES:
        attrs = dict(stamp)
        if name == "execute":
            attrs.update(batch_id="b1", links=[rid])
        if name == "split":
            attrs.update(status=status, reason=outcome.get("reason", ""),
                         slo_breached=outcome.get("slo_breached", False))
        tracer.record_span(f"serve.{name}", t, t + 0.001, attrs)
        t += 0.001


def requests(rng, n, tenant="acme", prefix="fl"):
    kernel = get_kernel("heat-2d")
    return [
        Request(
            tenant,
            kernel=kernel,
            data=rng.random((12, 12)),
            steps=2,
            request_id=f"{prefix}{i:03d}",
        )
        for i in range(n)
    ]


def serve(batch, config=None, execute=None):
    """Submit ``batch`` in one tick; ``execute`` replaces the lane body."""

    async def scenario():
        async with StencilService(config or ServeConfig(lanes=1)) as service:
            if execute is not None:
                service._execute = execute
            return await asyncio.gather(
                *(service.submit(r) for r in batch), return_exceptions=True
            )

    return asyncio.run(scenario())
