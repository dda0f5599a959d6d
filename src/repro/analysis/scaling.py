"""Modelled multi-device scaling study for slab-decomposed ConvStencil.

The paper evaluates a single A100; scaling further means splitting the
grid into axis-0 slabs, one per device, that swap ghost rows every pass.
This study is analytic throughout.  It combines:

* the halo-exchange volume of one pass, computed from the fused kernel's
  radius and the slab face area (no distributed run is executed);
* the calibrated per-device ConvStencil throughput model for the compute
  phase at full problem scale;
* a two-parameter interconnect model (bandwidth + per-message latency)
  for the exchange phase,

yielding strong- and weak-scaling curves with parallel efficiency — the
standard way to present a distributed stencil (and where the ghost-zone
benefit of temporal fusion becomes a latency win).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.fusion import plan_fusion
from repro.errors import ModelError
from repro.gpu.specs import A100, DeviceSpec
from repro.model.baseline_models import system_throughput
from repro.stencils.catalog import get_kernel
from repro.utils.tables import format_table

__all__ = [
    "Interconnect",
    "NVLINK3",
    "PCIE4",
    "ScalingPoint",
    "scaling_table",
    "strong_scaling",
    "weak_scaling",
]


@dataclass(frozen=True)
class Interconnect:
    """Point-to-point link model between adjacent devices."""

    name: str
    bandwidth: float  # bytes/s per direction
    latency: float  # seconds per message


#: NVLink 3 (A100): 300 GB/s per direction between peers.
NVLINK3 = Interconnect(name="NVLink3", bandwidth=300e9, latency=5e-6)
#: PCIe 4.0 x16 fallback.
PCIE4 = Interconnect(name="PCIe4", bandwidth=32e9, latency=10e-6)


@dataclass(frozen=True)
class ScalingPoint:
    """Modelled multi-device performance at one rank count."""

    ranks: int
    global_shape: Tuple[int, ...]
    compute_time_per_pass: float
    exchange_time_per_pass: float
    gstencils_per_s: float
    parallel_efficiency: float

    @property
    def comm_fraction(self) -> float:
        total = self.compute_time_per_pass + self.exchange_time_per_pass
        return self.exchange_time_per_pass / total if total > 0 else 0.0


def _per_pass_times(
    kernel_name: str,
    global_shape: Tuple[int, ...],
    ranks: int,
    link: Interconnect,
    spec: DeviceSpec,
    fusion: str | int = "auto",
) -> Tuple[float, float, int]:
    """(compute, exchange, steps_per_pass) for one fused pass."""
    kernel = get_kernel(kernel_name)
    plan = plan_fusion(kernel, fusion)
    if global_shape[0] < ranks * plan.fused.radius:
        raise ModelError(
            f"{ranks} slabs of {global_shape[0]} rows cannot host a "
            f"{plan.fused.radius}-deep halo"
        )
    local_shape = (global_shape[0] // ranks,) + tuple(global_shape[1:])
    est = system_throughput("convstencil", kernel_name, local_shape, spec)
    assert est is not None
    compute = est.time_per_pass
    # each interior face moves halo·(transverse extent) doubles both ways;
    # neighbour exchanges proceed concurrently, so one pass pays one
    # face-volume transfer plus two message latencies per rank
    halo = plan.fused.radius
    face = 8.0 * halo * int(np.prod(global_shape[1:], dtype=np.int64))
    exchange = 0.0
    if ranks > 1:
        exchange = 2.0 * (face / link.bandwidth + link.latency)
    return compute, exchange, est.steps_per_pass


def strong_scaling(
    kernel_name: str = "heat-2d",
    global_shape: Tuple[int, ...] = (10240, 10240),
    rank_counts: Sequence[int] = (1, 2, 4, 8),
    link: Interconnect = NVLINK3,
    spec: DeviceSpec = A100,
) -> List[ScalingPoint]:
    """Fixed problem, growing device count."""
    points = []
    base = None
    for ranks in rank_counts:
        compute, exchange, steps = _per_pass_times(
            kernel_name, global_shape, ranks, link, spec
        )
        time = compute + exchange
        gst = steps * int(np.prod(global_shape)) / time / 1e9
        if base is None:
            base = gst
        points.append(
            ScalingPoint(
                ranks=ranks,
                global_shape=tuple(global_shape),
                compute_time_per_pass=compute,
                exchange_time_per_pass=exchange,
                gstencils_per_s=gst,
                parallel_efficiency=gst / (base * ranks),
            )
        )
    return points


def weak_scaling(
    kernel_name: str = "heat-2d",
    per_rank_rows: int = 2560,
    cols: int = 10240,
    rank_counts: Sequence[int] = (1, 2, 4, 8),
    link: Interconnect = NVLINK3,
    spec: DeviceSpec = A100,
) -> List[ScalingPoint]:
    """Fixed per-device slab, growing problem with the device count."""
    points = []
    base = None
    for ranks in rank_counts:
        shape = (per_rank_rows * ranks, cols)
        compute, exchange, steps = _per_pass_times(kernel_name, shape, ranks, link, spec)
        time = compute + exchange
        gst = steps * int(np.prod(shape)) / time / 1e9
        if base is None:
            base = gst
        points.append(
            ScalingPoint(
                ranks=ranks,
                global_shape=shape,
                compute_time_per_pass=compute,
                exchange_time_per_pass=exchange,
                gstencils_per_s=gst,
                parallel_efficiency=gst / (base * ranks),
            )
        )
    return points


def scaling_table(
    kernel_name: str = "heat-2d", link: Interconnect = NVLINK3
) -> str:
    """Render strong and weak scaling side by side."""
    rows = []
    for label, pts in (
        ("strong", strong_scaling(kernel_name, link=link)),
        ("weak", weak_scaling(kernel_name, link=link)),
    ):
        for p in pts:
            rows.append(
                (
                    label,
                    p.ranks,
                    "x".join(str(s) for s in p.global_shape),
                    round(p.gstencils_per_s, 1),
                    f"{100 * p.parallel_efficiency:.0f}%",
                    f"{100 * p.comm_fraction:.1f}%",
                )
            )
    return format_table(
        ["mode", "ranks", "global grid", "GStencils/s", "efficiency", "comm share"],
        rows,
        title=f"Distributed scaling — {kernel_name} over {link.name}",
    )
