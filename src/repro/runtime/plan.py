"""Execution plans: everything shape-invariant, precomputed once (§3.4).

The paper's host side precomputes lookup tables and weight matrices once
and reuses them across every time iteration (§3.4, Table 5).  An
:class:`ExecutionPlan` is that idea applied to the whole runtime: for a
``(kernel, grid_shape, boundary, fusion_depth)`` key it captures

* the fused/base **pass kernels** and their halo geometry,
* the stencil2row **gather-offset LUTs** per pass,
* the triangular **weight matrices** (1-D pairs, 2-D blocks, 3-D
  per-plane blocks + plane decomposition),
* an execution **strategy** per pass: ``"gemm"`` (dual tessellation,
  handed to the backend) or ``"direct"`` (shifted adds, run by the pass
  sequencer), chosen by a measured crossover (:func:`choose_strategy`).

Plans are immutable and reusable: engines receive the precomputed tables
explicitly, so a 50-step run builds every table exactly once (via the
:class:`~repro.runtime.cache.PlanCache`) instead of once per pass.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.core.direct import direct_valid
from repro.core.engine3d import plane_decomposition
from repro.core.fusion import FusionPlan, plan_fusion
from repro.core.stencil2row import stencil2row_offsets, stencil2row_shape
from repro.core.weights import weight_blocks_2d, weight_matrices_1d
from repro.errors import KernelError
from repro.stencils.grid import BoundaryCondition
from repro.stencils.kernel import StencilKernel

__all__ = [
    "STRATEGIES",
    "ExecutionPlan",
    "PassPlan",
    "build_plan",
    "choose_strategy",
    "plan_key",
]


def plan_key(
    kernel: StencilKernel,
    grid_shape: Tuple[int, ...],
    boundary: BoundaryCondition,
    fusion_depth: int,
) -> tuple:
    """Cache key of a plan.

    Kernels hash by identity (they are immutable and interned per
    :class:`~repro.core.api.ConvStencil` instance), so the key is cheap and
    collision-free.
    """
    return (kernel, tuple(grid_shape), BoundaryCondition(boundary), int(fusion_depth))


@dataclass(frozen=True)
class PassPlan:
    """Precomputed state for one dual-tessellation pass of one kernel.

    Everything here depends only on the kernel and the grid shape — never
    on the grid values — so it is computed once per plan and shared by all
    backends and every time step.
    """

    kernel: StencilKernel
    grid_shape: Tuple[int, ...]
    #: Halo width the pass reads (``kernel.radius``).
    halo: int
    #: Shape of the halo-padded input the engines consume.
    padded_shape: Tuple[int, ...]
    #: Stencil2row gather LUT (1-D/2-D: for the pass kernel; 3-D: for the
    #: 2-D planes).  ``None`` only when the pass needs no gather (pure-axpy
    #: 3-D planes).
    offsets: Optional[np.ndarray] = None
    #: Triangular weight matrices: 1-D ``(WA, WB)``; 2-D ``(WA3, WB3)``.
    weights: Optional[tuple] = None
    #: 3-D only: precomputed plane decomposition of the pass kernel.
    planes: Optional[tuple] = None
    #: 3-D only: ``dz`` → 2-D weight blocks for the dense planes.
    weights_by_plane: Optional[Dict[int, tuple]] = None
    #: How the pass runs: ``"gemm"`` hands it to the backend's
    #: dual-tessellation engine; ``"direct"`` runs the shifted-add kernel
    #: in the pass sequencer.  Both keep the tables above, so a ``direct``
    #: pass can still be handed to a backend explicitly.
    strategy: str = "gemm"

    @property
    def ndim(self) -> int:
        return self.kernel.ndim


#: The execution strategies a pass can carry.
STRATEGIES = ("gemm", "direct")

_strategy_lock = threading.Lock()
_strategy_memo: "OrderedDict[tuple, str]" = OrderedDict()

#: Memo capacity: one entry per (kernel content, size class) ever planned.
_STRATEGY_CAPACITY = 1024

#: Timed runs of each strategy per calibration (the best one counts).
_CALIBRATION_REPEATS = 3

#: Largest grid (in points) a calibration times.  A bigger grid is timed
#: on its first rows only: the size class already stands for a range of
#: grids, and a one-shot run on a large grid must not pay several full
#: passes (and a full-size GEMM window) just to pick its strategy.
_CALIBRATION_POINTS = 1 << 20


def _strategy_key(pp: PassPlan) -> tuple:
    """(kernel weight content, size class) a calibration stands for.

    Content — the weight array's shape (so its ndim) and bytes — not
    identity: ``fusion="auto"`` composes a fresh fused kernel object per
    :class:`~repro.core.api.ConvStencil`, and an identity key would
    re-measure it on every construction.  The size class is the
    ``bit_length`` of the grid's point count, so grids within a factor of
    two share one measurement.
    """
    w = pp.kernel.weights
    points = int(np.prod(pp.grid_shape, dtype=np.int64))
    return (w.shape, w.tobytes(), points.bit_length())


def _calibration_pass(pp: PassPlan) -> PassPlan:
    """``pp``, or — past :data:`_CALIBRATION_POINTS` — the same kernel's
    pass over the grid's first rows (at least one), full width."""
    row = int(np.prod(pp.grid_shape[1:], dtype=np.int64))
    rows = max(1, _CALIBRATION_POINTS // row)
    if rows >= pp.grid_shape[0]:
        return pp
    return _build_pass(pp.kernel, (rows,) + pp.grid_shape[1:], "gemm")


def _calibrate(pp: PassPlan) -> str:
    """Time one pass of each strategy on a seeded array of the pass's
    padded shape (best of :data:`_CALIBRATION_REPEATS`, interleaved;
    grids past :data:`_CALIBRATION_POINTS` are timed on their first rows).

    The GEMM side is always the ``serial`` engine, whatever backend later
    runs the plan, so the choice is a property of the plan alone.  A tie
    goes to ``direct``: it is the simpler path and gives the same bits as
    the reference stencil.
    """
    from repro.runtime.backends import SerialBackend

    pp = _calibration_pass(pp)
    padded = np.random.default_rng(0).random(pp.padded_shape)
    runs = {
        "gemm": lambda: SerialBackend().apply_pass(pp, padded),
        "direct": lambda: direct_valid(padded, pp.kernel),
    }
    best = dict.fromkeys(runs, float("inf"))
    with telemetry.span(
        "runtime.plan.calibrate", kernel=pp.kernel.name, shape=pp.padded_shape
    ) as sp:
        # The clock reads are the measurement: they pick the strategy, and
        # the memo then holds the choice fixed for the process.
        for _ in range(_CALIBRATION_REPEATS):
            for name, run in runs.items():
                t0 = time.perf_counter()  # staticcheck: disable=RPR004
                run()
                elapsed = time.perf_counter() - t0  # staticcheck: disable=RPR004
                best[name] = min(best[name], elapsed)
        strategy = "gemm" if best["gemm"] < best["direct"] else "direct"
        sp.set_attribute("strategy", strategy)
        sp.set_attribute("gemm_ms", best["gemm"] * 1e3)
        sp.set_attribute("direct_ms", best["direct"] * 1e3)
    return strategy


def choose_strategy(pp: PassPlan) -> str:
    """The measured strategy for ``pp``, memoised per process.

    Keyed by :func:`_strategy_key`; the memo is bounded, LRU and
    lock-guarded, and unlike the plan cache it survives
    ``PlanCache.clear()``, so a (kernel, size class) keeps its
    strategy for the life of the process once measured.  Concurrent first
    calls may both measure; the first result stored wins for everyone.
    A grid with no points has no pass to time; it stays ``gemm``, so its
    (zero-step) runs work and any pass raises in the engine as before.
    """
    if not all(pp.grid_shape):
        return "gemm"
    key = _strategy_key(pp)
    with _strategy_lock:
        cached = _strategy_memo.get(key)
        if cached is not None:
            _strategy_memo.move_to_end(key)
            return cached
    measured = _calibrate(pp)
    with _strategy_lock:
        won = _strategy_memo.setdefault(key, measured)
        _strategy_memo.move_to_end(key)
        while len(_strategy_memo) > _STRATEGY_CAPACITY:
            _strategy_memo.popitem(last=False)
    return won


def _build_pass(
    kernel: StencilKernel,
    grid_shape: Tuple[int, ...],
    strategy: Optional[str] = None,
) -> PassPlan:
    halo = kernel.radius
    padded_shape = tuple(s + 2 * halo for s in grid_shape)
    k = kernel.edge
    offsets = weights = planes = weights_by_plane = None
    if kernel.ndim == 1:
        rows, _ = stencil2row_shape(padded_shape, k)
        offsets = stencil2row_offsets(rows, k)
        weights = weight_matrices_1d(kernel)
    elif kernel.ndim == 2:
        rows, _ = stencil2row_shape(padded_shape, k)
        offsets = stencil2row_offsets(rows, k)
        weights = weight_blocks_2d(kernel)
    else:
        planes = tuple(plane_decomposition(kernel))
        rows, _ = stencil2row_shape(padded_shape[1:], k)
        offsets = stencil2row_offsets(rows, k)
        weights_by_plane = {
            dz: weight_blocks_2d(payload)
            for dz, kind, payload in planes
            if kind == "conv2d"
        }
    pp = PassPlan(
        kernel=kernel,
        grid_shape=tuple(grid_shape),
        halo=halo,
        padded_shape=padded_shape,
        offsets=offsets,
        weights=weights,
        planes=planes,
        weights_by_plane=weights_by_plane,
    )
    # Measured on the finished pass: the GEMM side needs its tables.
    return dataclasses.replace(pp, strategy=strategy or choose_strategy(pp))


@dataclass(frozen=True)
class ExecutionPlan:
    """All shape-invariant state for running one stencil on one grid shape.

    A plan covers both pass kernels a fused run needs: the ``fused`` pass
    (advancing ``depth`` steps at once) and the ``base`` pass (the unfused
    remainder).  ``passes_for(steps)`` yields the exact pass sequence that
    honours a requested step count.
    """

    key: tuple
    kernel: StencilKernel
    grid_shape: Tuple[int, ...]
    boundary: BoundaryCondition
    fusion: FusionPlan
    fused_pass: PassPlan
    base_pass: PassPlan

    @property
    def fusion_depth(self) -> int:
        return self.fusion.depth

    def passes_for(self, steps: int) -> Iterator[PassPlan]:
        """The pass sequence advancing exactly ``steps`` time steps."""
        if steps < 0:
            raise ValueError(f"steps must be non-negative, got {steps}")
        fused_passes, remainder = divmod(steps, self.fusion.depth)
        for _ in range(fused_passes):
            yield self.fused_pass
        for _ in range(remainder):
            yield self.base_pass

    @property
    def nbytes(self) -> int:
        """Approximate footprint of the precomputed tables (cache telemetry)."""
        total = 0
        passes = (
            (self.fused_pass,)
            if self.base_pass is self.fused_pass
            else (self.fused_pass, self.base_pass)
        )
        for pp in passes:
            for arr in (pp.offsets, *(pp.weights or ())):
                if isinstance(arr, np.ndarray):
                    total += arr.nbytes
            for pair in (pp.weights_by_plane or {}).values():
                total += sum(w.nbytes for w in pair)
        return total


def build_plan(
    kernel: StencilKernel,
    grid_shape: Tuple[int, ...],
    boundary: BoundaryCondition = BoundaryCondition.CONSTANT,
    fusion: "int | str | FusionPlan" = 1,
    *,
    strategy: Optional[str] = None,
) -> ExecutionPlan:
    """Construct an :class:`ExecutionPlan` (uncached — see ``plan_for``).

    ``fusion`` accepts a depth, ``"auto"``, or an already-resolved
    :class:`~repro.core.fusion.FusionPlan`.  Each pass's strategy is
    measured (:func:`choose_strategy`) unless ``strategy`` pins both
    passes — an internal hook for the verify harness and the static
    provers, which must cover each strategy.
    """
    grid_shape = tuple(int(s) for s in grid_shape)
    if kernel.ndim != len(grid_shape):
        raise KernelError(
            f"{kernel.ndim}-D kernel planned against {len(grid_shape)}-D shape"
        )
    if strategy is not None and strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    fplan = fusion if isinstance(fusion, FusionPlan) else plan_fusion(kernel, fusion)
    boundary = BoundaryCondition(boundary)
    fused_pass = _build_pass(fplan.fused, grid_shape, strategy)
    base_pass = (
        fused_pass
        if fplan.depth == 1
        else _build_pass(fplan.base, grid_shape, strategy)
    )
    return ExecutionPlan(
        key=plan_key(kernel, grid_shape, boundary, fplan.depth),
        kernel=kernel,
        grid_shape=grid_shape,
        boundary=boundary,
        fusion=fplan,
        fused_pass=fused_pass,
        base_pass=base_pass,
    )
