"""Simulated ConvStencil execution on the GPU substrate.

This module runs the *actual* ConvStencil kernel structure — global loads,
stencil2row scatter into pitched shared memory, WMMA fragment loads, m8n8k4
MMA chains, and result write-back — through :class:`~repro.gpu.simulator.
DeviceSim`, producing both the numerical result (verified against the
reference in tests) and exact hardware-event counts.

The :class:`ExecutionConfig` switches reproduce the paper's Figure-6
optimisation ladder:

=========  =============================================================
variant     configuration
=========  =============================================================
I           explicit stencil2row in global memory + CUDA cores
II          implicit stencil2row (shared memory) + CUDA cores
III         implicit stencil2row + Tensor Cores
IV          III + bank-conflict padding
V           IV + dirty-bits padding (no conditional branches) = ConvStencil
=========  =============================================================

The lookup table (§3.4) is independent: ``lookup_table=False`` charges the
per-element integer div/mod cost the table would have removed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.chunks import weight_fragments
from repro.core.lookup import ColumnLookup, build_column_lookup
from repro.core.padding import PaddingPlan, plan_padding
from repro.core.weights import weight_matrices_1d, weight_matrices_2d
from repro.errors import TessellationError
from repro.gpu.counters import PerfCounters
from repro.gpu.simulator import DeviceSim
from repro.stencils.kernel import StencilKernel
from repro.utils.arrays import ceil_div

__all__ = [
    "ExecutionConfig",
    "SimulatedRun",
    "run_simulated",
    "run_simulated_1d",
    "run_simulated_2d",
    "run_simulated_3d",
]


@dataclass(frozen=True)
class ExecutionConfig:
    """Feature switches selecting a Figure-6 pipeline variant.

    ``skip_zero_chunks`` is an extension beyond the paper: star kernels
    leave many weight-matrix rows zero, so whole 4-row fragment chunks can
    vanish — skipping their MMA *and* the matching tile load.  Off by
    default (the paper's kernels are dense after fusion); the ablation
    bench quantifies what it buys.
    """

    use_tensor_cores: bool = True
    implicit_transform: bool = True
    padding: bool = True
    dirty_bits: bool = True
    lookup_table: bool = True
    skip_zero_chunks: bool = False

    @staticmethod
    def variant(v: str) -> "ExecutionConfig":
        """Named Figure-6 variants ``"I"`` … ``"V"`` (``"V"`` = full ConvStencil)."""
        table = {
            "I": ExecutionConfig(
                use_tensor_cores=False,
                implicit_transform=False,
                padding=False,
                dirty_bits=False,
            ),
            "II": ExecutionConfig(
                use_tensor_cores=False, padding=False, dirty_bits=False
            ),
            "III": ExecutionConfig(padding=False, dirty_bits=False),
            "IV": ExecutionConfig(dirty_bits=False),
            "V": ExecutionConfig(),
        }
        try:
            return table[v.upper()]
        except KeyError:
            raise TessellationError(f"unknown variant {v!r}; expected I..V")


@dataclass
class SimulatedRun:
    """Result of one simulated pass: output values + hardware counters."""

    output: np.ndarray
    counters: PerfCounters
    config: ExecutionConfig
    shared_bytes: int


# ---------------------------------------------------------------------------
# layout transformation (global -> shared) shared by the 1-D and 2-D paths
# ---------------------------------------------------------------------------


def _transform_row(
    smem,
    lookup: ColumnLookup,
    values: np.ndarray,
    x: int,
    per_x_stride: int,
    plan: PaddingPlan,
    which: str,
    sim: DeviceSim,
    config: ExecutionConfig,
) -> None:
    """Scatter one input row into stencil2row matrix A or B in shared memory."""
    if which == "a":
        rows, offs, valid = lookup.a_row, lookup.a_off, lookup.a_valid
    else:
        rows, offs, valid = lookup.b_row, lookup.b_off, lookup.b_valid
    cols = per_x_stride * x + offs
    if config.dirty_bits:
        # predicated select into the padding zone: straight-line code
        cols = np.where(valid, cols, plan.dirty_col)
        smem.store_elements(rows, cols, values)
    else:
        # conditional per element (one branch per element per matrix)
        sim.count_branch(values.size)
        smem.store_elements(rows[valid], cols[valid], values[valid])


def _fold_counters(owns_sim: bool, sim: DeviceSim) -> None:
    """Fold a run's counters into the obs collector (``sim.*``).

    Only the call that *created* the simulator folds, so nested simulated
    passes sharing a ``DeviceSim`` (3-D planes) are counted exactly once.
    """
    if owns_sim and obs.enabled():
        obs.fold_perf_counters(sim.counters)


def _charge_divmod(sim: DeviceSim, config: ExecutionConfig, elements: int) -> None:
    """Charge per-element div/mod when the lookup table is disabled."""
    if not config.lookup_table:
        # one division + one modulus per matrix per element (Eq. 5/6)
        sim.count_divmod(4 * elements)


def _charge_explicit_roundtrip(sim: DeviceSim, live_elements: int) -> None:
    """Variant I: the stencil2row matrices round-trip through global memory."""
    sim.global_memory.write_linear(0, live_elements)
    sim.global_memory.read_linear(0, live_elements)


def _live_fragments(frags: list, config: ExecutionConfig) -> list:
    """Optionally drop all-zero weight chunks (star-kernel sparsity)."""
    if not config.skip_zero_chunks:
        return frags
    return [(start, frag) for start, frag in frags if frag.any()]


# ---------------------------------------------------------------------------
# 1-D
# ---------------------------------------------------------------------------


def run_simulated_1d(
    padded: np.ndarray,
    kernel: StencilKernel,
    config: ExecutionConfig = ExecutionConfig(),
    sim: DeviceSim | None = None,
) -> SimulatedRun:
    """Simulate a 1-D ConvStencil pass over a halo-padded input."""
    if kernel.ndim != 1:
        raise TessellationError("run_simulated_1d requires a 1-D kernel")
    padded = np.asarray(padded, dtype=np.float64)
    if padded.ndim != 1:
        raise TessellationError(f"expected 1-D data, got {padded.ndim}-D")
    owns_sim = sim is None
    sim = sim or DeviceSim()
    k, g = kernel.edge, kernel.edge + 1
    n = padded.shape[0]
    if n < k:
        raise TessellationError(f"input length {n} < kernel edge {k}")
    y_valid = n - k + 1
    r_full = ceil_div(n, g)
    bands = ceil_div(r_full, 8)
    # only kernels narrower than one fragment chunk need overshoot space;
    # wider kernels overlap their final chunk (see chunk_plan)
    overshoot = 4 - k if k < 4 else 0
    plan = plan_padding(k + overshoot, config.padding, config.dirty_bits)
    smem_a = sim.shared_array(bands * 8, cols=k, pitch=plan.pitch)
    smem_b = sim.shared_array(bands * 8, cols=k, pitch=plan.pitch)

    # -- layout transformation ------------------------------------------
    sim.global_memory.read_linear(0, n)
    _charge_divmod(sim, config, n)
    lookup = build_column_lookup(n, k)
    _transform_row(smem_a, lookup, padded, 0, k, plan, "a", sim, config)
    _transform_row(smem_b, lookup, padded, 0, k, plan, "b", sim, config)
    if not config.implicit_transform:
        _charge_explicit_roundtrip(
            sim, int(lookup.a_valid.sum() + lookup.b_valid.sum())
        )

    # -- compute ----------------------------------------------------------
    out = np.full(bands * 8 * g, np.nan)
    if config.use_tensor_cores:
        wa, wb = weight_matrices_1d(kernel)
        frags_a = _live_fragments(weight_fragments(wa), config)
        frags_b = _live_fragments(weight_fragments(wb), config)
        for b in range(bands):
            acc = None
            for start, wfrag in frags_a:
                frag = smem_a.load_fragment_a(b * 8, start)
                acc = sim.tensor_core.mma_f64(frag, wfrag, acc)
            for start, wfrag in frags_b:
                frag = smem_b.load_fragment_a(b * 8, start)
                acc = sim.tensor_core.mma_f64(frag, wfrag, acc)
            if acc is None:  # degenerate all-zero kernel with chunk skipping
                acc = np.zeros((8, 8))
            for rr in range(8):
                r = b * 8 + rr
                out[r * g : (r + 1) * g] = acc[rr, :g]
    else:
        # CUDA-core path: same shared layout, scalar FMA arithmetic.
        vit = smem_a.data[:, :k] @ weight_matrices_1d(kernel)[0]
        vit += smem_b.data[:, :k] @ weight_matrices_1d(kernel)[1]
        # the two triangular halves contribute k MACs total per output;
        # scalar loads cannot share fragments, so each MAC reads its own
        # operand from shared memory
        outputs = bands * 8 * g
        sim.count_fma(outputs * k)
        sim.counters.shared_read_bytes += outputs * k * 8
        sim.counters.shared_load_requests += ceil_div(outputs * k, 32)
        out[:] = vit.reshape(-1)

    result = out[:y_valid].copy()
    write_addrs = np.arange(y_valid, dtype=np.int64) * 8
    sim.global_memory.write(write_addrs)
    _fold_counters(owns_sim, sim)
    return SimulatedRun(
        output=result,
        counters=sim.counters,
        config=config,
        shared_bytes=smem_a.nbytes + smem_b.nbytes,
    )


# ---------------------------------------------------------------------------
# 2-D
# ---------------------------------------------------------------------------


def run_simulated_2d(
    padded: np.ndarray,
    kernel: StencilKernel,
    config: ExecutionConfig = ExecutionConfig(),
    sim: DeviceSim | None = None,
) -> SimulatedRun:
    """Simulate a 2-D ConvStencil pass (dual tessellation) over padded input."""
    if kernel.ndim != 2:
        raise TessellationError("run_simulated_2d requires a 2-D kernel")
    padded = np.asarray(padded, dtype=np.float64)
    if padded.ndim != 2:
        raise TessellationError(f"expected 2-D data, got {padded.ndim}-D")
    owns_sim = sim is None
    sim = sim or DeviceSim()
    k, g = kernel.edge, kernel.edge + 1
    m, n = padded.shape
    if m < k or n < k:
        raise TessellationError(f"kernel edge {k} does not fit input {padded.shape}")
    x_valid, y_valid = m - k + 1, n - k + 1
    r_full = ceil_div(n, g)
    bands = ceil_div(r_full, 8)
    k2 = k * k
    live_cols = k * m

    # the final partial fragment chunk overlaps instead of overshooting
    # (see chunk_plan), so the pitch is planned on the live width alone —
    # which is how the paper's 266-column example pads to exactly 268
    plan = plan_padding(live_cols, config.padding, config.dirty_bits)
    smem_a = sim.shared_array(bands * 8, cols=live_cols, pitch=plan.pitch)
    smem_b = sim.shared_array(bands * 8, cols=live_cols, pitch=plan.pitch)

    # -- layout transformation ------------------------------------------
    # each block row streams its (halo-widened) input row separately, so
    # row starts are generally not 128-byte aligned — the residual
    # uncoalesced fraction the paper reports as 3.42 %
    _charge_divmod(sim, config, m * n)
    lookup = build_column_lookup(n, k)
    for x in range(m):
        row = padded[x]
        sim.global_memory.read_linear(x * n * 8, n)
        _transform_row(smem_a, lookup, row, x, k, plan, "a", sim, config)
        _transform_row(smem_b, lookup, row, x, k, plan, "b", sim, config)
    if not config.implicit_transform:
        _charge_explicit_roundtrip(
            sim, int(lookup.a_valid.sum() + lookup.b_valid.sum()) * m
        )

    # -- compute ----------------------------------------------------------
    out = np.zeros((x_valid, bands * 8 * g))
    if config.use_tensor_cores:
        wa, wb = weight_matrices_2d(kernel)
        frags_a = _live_fragments(weight_fragments(wa), config)
        frags_b = _live_fragments(weight_fragments(wb), config)
        for b in range(bands):
            for t in range(x_valid):
                acc = None
                for start, wfrag in frags_a:
                    frag = smem_a.load_fragment_a(b * 8, t * k + start)
                    acc = sim.tensor_core.mma_f64(frag, wfrag, acc)
                for start, wfrag in frags_b:
                    frag = smem_b.load_fragment_a(b * 8, t * k + start)
                    acc = sim.tensor_core.mma_f64(frag, wfrag, acc)
                if acc is None:  # degenerate all-zero kernel with chunk skipping
                    acc = np.zeros((8, 8))
                for rr in range(8):
                    r = b * 8 + rr
                    out[t, r * g : (r + 1) * g] = acc[rr, :g]
    else:
        wa3 = weight_matrices_2d(kernel)[0].reshape(k, k, g)
        wb3 = weight_matrices_2d(kernel)[1].reshape(k, k, g)
        a_data = smem_a.data[:, :live_cols].reshape(bands * 8, m, k).transpose(1, 0, 2)
        b_data = smem_b.data[:, :live_cols].reshape(bands * 8, m, k).transpose(1, 0, 2)
        from repro.utils.arrays import sliding_windows

        sa = sliding_windows(np.ascontiguousarray(a_data), k, axis=0)
        sb = sliding_windows(np.ascontiguousarray(b_data), k, axis=0)
        # staticcheck: gemm-shape-pinned — stacked (R, k²) @ (k², k+1)
        # GEMMs whose operand shapes depend only on the kernel edge, so
        # the contraction order (and the FP64 bits) cannot vary with the
        # grid extent.  An einsum with optimize= here chose size-dependent
        # paths — the PR 3 bug class.
        sa_flat = np.ascontiguousarray(sa.transpose(0, 2, 1, 3)).reshape(
            x_valid, bands * 8, k2
        )
        sb_flat = np.ascontiguousarray(sb.transpose(0, 2, 1, 3)).reshape(
            x_valid, bands * 8, k2
        )
        out = sa_flat @ wa3.reshape(k2, g)
        out += sb_flat @ wb3.reshape(k2, g)
        out = out.reshape(x_valid, bands * 8 * g)
        # the two triangular halves contribute k^2 MACs total per output;
        # scalar loads cannot share fragments, so each MAC reads its own
        # operand from shared memory
        outputs = x_valid * bands * 8 * g
        sim.count_fma(outputs * k2)
        sim.counters.shared_read_bytes += outputs * k2 * 8
        sim.counters.shared_load_requests += ceil_div(outputs * k2, 32)

    result = out[:, :y_valid].copy()
    # write-back: row-major addresses of the valid outputs
    for t in range(x_valid):
        sim.global_memory.write_linear(t * y_valid * 8, y_valid)
    _fold_counters(owns_sim, sim)
    return SimulatedRun(
        output=result,
        counters=sim.counters,
        config=config,
        shared_bytes=smem_a.nbytes + smem_b.nbytes,
    )


# ---------------------------------------------------------------------------
# 3-D (plane decomposition, §4.2)
# ---------------------------------------------------------------------------


def run_simulated_3d(
    padded: np.ndarray,
    kernel: StencilKernel,
    config: ExecutionConfig = ExecutionConfig(),
    sim: DeviceSim | None = None,
) -> SimulatedRun:
    """Simulate a 3-D pass: dense kernel planes on Tensor Cores, single-point
    planes as CUDA-core AXPYs, counters aggregated across all plane kernels."""
    from repro.core.engine3d import plane_decomposition

    if kernel.ndim != 3:
        raise TessellationError("run_simulated_3d requires a 3-D kernel")
    padded = np.asarray(padded, dtype=np.float64)
    if padded.ndim != 3:
        raise TessellationError(f"expected 3-D data, got {padded.ndim}-D")
    owns_sim = sim is None
    sim = sim or DeviceSim()
    k = kernel.edge
    if any(s < k for s in padded.shape):
        raise TessellationError(f"kernel edge {k} does not fit input {padded.shape}")
    pz, px, py = (s - k + 1 for s in padded.shape)
    out = np.zeros((pz, px, py))
    shared_bytes = 0
    for dz, kind, payload in plane_decomposition(kernel):
        if kind == "skip":
            continue
        planes = padded[dz : dz + pz]
        if kind == "axpy":
            dx, dy, w = payload
            out += w * planes[:, dx : dx + px, dy : dy + py]
            sim.count_fma(pz * px * py)
            sim.global_memory.read_linear(0, pz * px * py)
        else:
            for p in range(pz):
                run = run_simulated_2d(planes[p], payload, config, sim)
                out[p] += run.output
                shared_bytes = max(shared_bytes, run.shared_bytes)
    _fold_counters(owns_sim, sim)
    return SimulatedRun(
        output=out, counters=sim.counters, config=config, shared_bytes=shared_bytes
    )


def run_simulated(
    padded: np.ndarray,
    kernel: StencilKernel,
    config: ExecutionConfig = ExecutionConfig(),
    sim: DeviceSim | None = None,
) -> SimulatedRun:
    """Dimension-dispatching simulated pass (1-D/2-D/3-D)."""
    return {1: run_simulated_1d, 2: run_simulated_2d, 3: run_simulated_3d}[
        kernel.ndim
    ](padded, kernel, config, sim)
