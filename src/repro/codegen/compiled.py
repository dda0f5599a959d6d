"""Plan-driven Python specialization: the ``compiled`` backend's generator.

:class:`~repro.runtime.plan.ExecutionPlan` already *is* an IR — it pins
every shape-derived fact of a pass (gather LUTs, triangular weights, halo
geometry, fusion depth).  This module lowers one
:class:`~repro.runtime.plan.PassPlan` into a **shape-pinned Python
kernel**: straight-line stacked-GEMM NumPy source with every branch —
boundary, fusion depth, remainder chunks, tile geometry, 3-D plane
decomposition — resolved at generation time, ``exec``-compiled once and
cached per plan key.

Bit identity with ``serial``/``reference`` is the hard constraint, so the
generated code performs the *same floating-point operations in the same
order* as :mod:`repro.core.engine1d`/``engine2d``/``engine3d``: identical
zero-extended inputs (gathered zeros participate in the GEMM sums — the
sign-of-zero hazard forbids skipping them), identical C-contiguous
``(c, R, k²)`` left operands, the same two-GEMM ``@`` then ``+=`` chain,
and the same output-buffer write pattern.  The one structural change is
the **strided-view gather elision**: the stencil2row offset LUT is
``offsets[r, i] = r·(k+1) + i`` — contiguous runs — so the engine's
fancy-index gather (``ext[:, offsets]``, a copy) followed by the
sliding-window view collapses into a single ``as_strided`` view over
``ext`` whose strides are generation-time literals.  The per-chunk
``ascontiguousarray(transpose)`` copy that feeds BLAS reads the *same
values* into the *same layout*, so the GEMM operands are byte-identical
to the engine's while the two gather copies per pass disappear.

An optional Numba ``njit`` fast path replaces that per-chunk strided copy
with a fused gather loop driven by generation-time row/column LUTs
(``flat_a[i, r, j] = ext[t0 + i + j // k, offsets[r, j % k]]`` — pure
element copies, so bits cannot change); the GEMMs always stay in BLAS.
Numba is resolved lazily: absent, disabled via
``REPRO_COMPILED_NUMBA=0``, or failing its bit-identity self-check, the
strided-view NumPy path is used — silently correct either way.

Generated sources satisfy the staticcheck AST rules (they carry the
``gemm-shape-pinned`` markers RPR002 wants) and are linted through
:func:`repro.staticcheck.lint_sources` at build time when
``REPRO_STATICCHECK`` is enabled — the same opt-in gate the plan
invariants use.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import obs, telemetry
from repro.codegen.specs import GemmSpec, gemm_spec_from_pass
from repro.core.engine2d import _CHUNK
from repro.errors import StaticCheckError, TessellationError
from repro.telemetry.log import get_logger

__all__ = [
    "NUMBA_ENV",
    "CompiledPass",
    "GeneratedPass",
    "clear_compiled_cache",
    "compiled_entry",
    "compiled_source",
    "generate_pass",
    "get_compiled_pass",
    "numba_status",
    "stencil2row_gather",
    "stencil2row_gather_batched",
]

_log = get_logger("codegen.compiled")

#: Environment variable gating the optional Numba gather path
#: (``0``/``false``/``off`` disables it; default is to use Numba iff
#: importable and bit-identical on the self-check probe).
NUMBA_ENV = "REPRO_COMPILED_NUMBA"

#: Chunk bodies are fully unrolled up to this many; beyond it the
#: generator emits one pinned-bounds loop instead (the source would
#: otherwise grow linearly with the grid height).
_MAX_UNROLL = 64

#: Compiled-kernel LRU capacity (kernels × shapes × batched variants).
_CACHE_CAPACITY = 128


def stencil2row_gather(ext: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Fused stencil2row + window gather: ``out[i, r, j] = ext[rows[i, j], cols[r, j]]``.

    One broadcast fancy-index replaces the engine's gather →
    sliding-window → transpose-copy pipeline; the result is the identical
    C-contiguous ``(c, R, k²)`` array (pure element copies, bit-exact).
    """
    return ext[rows[:, None, :], cols[None, :, :]]


def stencil2row_gather_batched(
    ext: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Batch-axis variant of :func:`stencil2row_gather`:
    ``out[b, i, r, j] = ext[b, rows[i, j], cols[r, j]]``."""
    return ext[:, rows[:, None, :], cols[None, :, :]]


# ---------------------------------------------------------------------------
# optional Numba gather path (bit-identical element copies, self-checked)
# ---------------------------------------------------------------------------

_numba_lock = threading.Lock()
_numba_state: Dict[str, object] = {"status": None, "g2": None, "g3": None}


def _build_numba_gathers():
    """Compile the njit gather pair; raises if Numba is absent/broken."""
    import numba  # deferred: the container may not ship it

    @numba.njit(cache=False, fastmath=False)
    def gather2(ext, rows, cols):  # pragma: no cover - numba-compiled
        c, k2 = rows.shape
        r_groups = cols.shape[0]
        out = np.empty((c, r_groups, k2), dtype=np.float64)
        for i in range(c):
            for r in range(r_groups):
                for j in range(k2):
                    out[i, r, j] = ext[rows[i, j], cols[r, j]]
        return out

    @numba.njit(cache=False, fastmath=False)
    def gather3(ext, rows, cols):  # pragma: no cover - numba-compiled
        batch = ext.shape[0]
        c, k2 = rows.shape
        r_groups = cols.shape[0]
        out = np.empty((batch, c, r_groups, k2), dtype=np.float64)
        for b in range(batch):
            for i in range(c):
                for r in range(r_groups):
                    for j in range(k2):
                        out[b, i, r, j] = ext[b, rows[i, j], cols[r, j]]
        return out

    return gather2, gather3


def _selfcheck_numba(g2, g3) -> bool:
    """Seedless deterministic probe: njit gathers must match plain bits."""
    ext2 = (np.arange(7 * 13, dtype=np.float64).reshape(7, 13) - 31.0) / 17.0
    rows = (np.arange(3)[:, None] + np.arange(4)[None, :] // 2).astype(np.int64)
    cols = (np.arange(2)[:, None] * 3 + np.arange(4)[None, :] % 3).astype(np.int64)
    if not np.array_equal(g2(ext2, rows, cols), stencil2row_gather(ext2, rows, cols)):
        return False
    ext3 = np.stack([ext2, ext2[::-1].copy()])
    return np.array_equal(
        g3(ext3, rows, cols), stencil2row_gather_batched(ext3, rows, cols)
    )


def _resolve_gathers() -> Tuple[Callable, Callable, str]:
    """The gather pair generated kernels should call, resolved once.

    Returns ``(gather2, gather3, status)`` where ``status`` is one of
    ``"plain"`` (Numba disabled), ``"absent"`` (not importable),
    ``"fallback"`` (import/compile/self-check failure), ``"njit"``.
    """
    with _numba_lock:
        if _numba_state["status"] is not None:
            pass
        elif os.environ.get(NUMBA_ENV, "").strip().lower() in ("0", "false", "off"):
            _numba_state["status"] = "plain"
        else:
            try:
                g2, g3 = _build_numba_gathers()
                ok = _selfcheck_numba(g2, g3)
            except ImportError:
                _numba_state["status"] = "absent"
            except Exception as exc:  # numba compile errors are myriad
                _numba_state["status"] = "fallback"
                _log.warning(
                    "numba gather path failed to build (%s); "
                    "falling back to the plain NumPy gather", exc,
                )
            else:
                if ok:
                    _numba_state.update(status="njit", g2=g2, g3=g3)
                else:
                    _numba_state["status"] = "fallback"
                    _log.warning(
                        "numba gather self-check diverged from the plain "
                        "gather; falling back (bits win over speed)"
                    )
        status = str(_numba_state["status"])
        if status == "njit":
            return _numba_state["g2"], _numba_state["g3"], status
        return stencil2row_gather, stencil2row_gather_batched, status


def numba_status() -> str:
    """Resolved Numba state: ``njit``, ``plain``, ``absent``, or ``fallback``."""
    return _resolve_gathers()[2]


# ---------------------------------------------------------------------------
# source generation (one PassPlan -> shape-pinned module text + constants)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratedPass:
    """One generated (not yet compiled) pass kernel — the prover's input.

    Carries everything :func:`repro.staticcheck.symexec.check_generated`
    needs to prove the kernel safe against its plan: the source, the
    constant namespace (weights and gather LUTs), which flavour was
    emitted, and an ``origin`` string naming what produced the source so
    findings in detached generated code stay actionable.
    """

    #: Generated module name (stem contains ``engine`` so RPR002 applies).
    name: str
    #: Generated Python source (what ``lint_sources`` and symexec see).
    source: str
    #: Generation-time constants the source closes over (weights, LUTs).
    constants: Dict[str, object]
    #: Body flavour: ``"strided"`` (as_strided views) or ``"lut"`` (njit
    #: fused gather driven by row/col LUT constants).
    flavor: str
    #: Whether the kernel takes a leading batch axis.
    batched: bool
    #: The GEMM geometry the source was specialized against.
    gemm: GemmSpec
    #: Provenance carried into findings: kernel, grid, flavour, digest.
    origin: str


@dataclass(frozen=True)
class CompiledPass:
    """One generated, compiled pass kernel (exposed for tests/CLI)."""

    #: Generated module name (stem contains ``engine`` so RPR002 applies).
    name: str
    #: Generated Python source (what ``lint_sources`` sees).
    source: str
    #: The exec-compiled entry point.
    fn: Callable[[np.ndarray], np.ndarray]
    #: Gather implementation backing the kernel (``njit`` or plain).
    gather: str
    #: The GEMM geometry the source was specialized against.
    gemm: GemmSpec
    #: Generation-time constants the kernel was exec'd against.
    constants: Dict[str, object]


def _digest(pp, batched: bool, use_lut: bool) -> str:
    h = hashlib.sha1()
    h.update(
        repr(
            (
                pp.kernel.name,
                pp.kernel.edge,
                pp.grid_shape,
                pp.padded_shape,
                batched,
                "lut" if use_lut else "strided",
            )
        ).encode()
    )
    for w in pp.weights or ():
        h.update(np.ascontiguousarray(w).tobytes())
    for dz in sorted(pp.weights_by_plane or {}):
        for w in pp.weights_by_plane[dz]:
            h.update(np.ascontiguousarray(w).tobytes())
    return h.hexdigest()[:8]


def _chunk_ranges(x_valid: int) -> List[Tuple[int, int]]:
    """The engine's shift-axis chunking, resolved at generation time."""
    return [
        (t0, min(t0 + _CHUNK, x_valid)) for t0 in range(0, x_valid, _CHUNK)
    ]


def _flat_weights(weights: tuple, k: int, g: int) -> Tuple[np.ndarray, np.ndarray]:
    """The engines' per-call ``(k², g)`` weight flattening, done once."""
    wa = np.ascontiguousarray(np.asarray(weights[0], dtype=np.float64)).reshape(
        k * k, g
    )
    wb = np.ascontiguousarray(np.asarray(weights[1], dtype=np.float64)).reshape(
        k * k, g
    )
    wa.setflags(write=False)
    wb.setflags(write=False)
    return wa, wb


def _row_lut(x_valid: int, k: int) -> np.ndarray:
    """Row LUT ``rows[i, j] = i + j // k`` of shape ``(x_valid, k²)``."""
    rows = np.arange(x_valid, dtype=np.int64)[:, None] + (
        np.arange(k * k, dtype=np.int64)[None, :] // k
    )
    rows.setflags(write=False)
    return rows


def _col_luts(offsets: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Column LUTs ``cols[r, j] = offsets[r, j % k]`` for A, ``+ edge`` for B."""
    j = np.arange(k * k, dtype=np.int64) % k
    cols_a = np.ascontiguousarray(np.asarray(offsets, dtype=np.int64)[:, j])
    cols_b = cols_a + k
    cols_a.setflags(write=False)
    cols_b.setflags(write=False)
    return cols_a, cols_b


def _emit_strided_views(
    lines: List[str],
    indent: str,
    *,
    batched: bool,
    ext: str,
    k: int,
    r_groups: int,
    x_valid: int,
    row_stride: int,
    batch_stride: int = 0,
    batch_expr: str = "",
) -> None:
    """Emit the ``sa``/``sb`` window views over ``ext`` (strides pinned).

    ``sa[..., t, x', r, i] = ext[..., t + x', r*(k+1) + i]`` — the exact
    values of the engine's ``gather -> sliding_windows`` pipeline, but as
    one zero-copy view (the gather offsets are contiguous runs, so the
    copy the engine makes is pure layout, not selection).
    """
    g8 = 8 * (k + 1)
    if batched:
        shape = f"({batch_expr}, {x_valid}, {k}, {r_groups}, {k})"
        strides = f"({batch_stride}, {row_stride}, {row_stride}, {g8}, 8)"
        b_base = f"{ext}[:, :, {k}:]"
    else:
        shape = f"({x_valid}, {k}, {r_groups}, {k})"
        strides = f"({row_stride}, {row_stride}, {g8}, 8)"
        b_base = f"{ext}[:, {k}:]"
    lines.append(f"{indent}sa = as_strided({ext}, {shape}, {strides})")
    lines.append(f"{indent}sb = as_strided({b_base}, {shape}, {strides})")


def _emit_chunks_2d(
    lines: List[str],
    ranges: List[Tuple[int, int]],
    indent: str,
    *,
    batched: bool,
    use_lut: bool,
    out_name: str,
    wa: str,
    wb: str,
    r_groups: int,
    k: int,
    rg: int,
    batch_expr: str = "",
) -> None:
    """Append the straight-line (or pinned-loop) chunk bodies.

    Strided mode (``use_lut=False``) copies each chunk out of the ``sa``/
    ``sb`` window views with the engine's exact ``transpose`` + contiguous
    copy; LUT mode routes the copy through the njit fused gather instead.
    Both produce byte-identical ``(c, R, k²)`` GEMM operands.
    """
    k2 = k * k
    lhs = f"{out_name}[:, {{t0}}:{{t1}}]" if batched else f"{out_name}[{{t0}}:{{t1}}]"
    shape = (f"{batch_expr}, {{c}}, {rg}") if batched else (f"{{c}}, {rg}")
    if use_lut:
        gather = "stencil2row_gather_batched" if batched else "stencil2row_gather"
        flat_a = f"{gather}(ext, _ROWS[{{t0}}:{{t1}}], _COLS_A)"
        flat_b = f"{gather}(ext, _ROWS[{{t0}}:{{t1}}], _COLS_B)"
    elif batched:
        win = "sa[:, {t0}:{t1}].transpose(0, 1, 3, 2, 4)"
        flat_shape = f"{batch_expr}, {{c}}, {r_groups}, {k2}"
        flat_a = f"np.ascontiguousarray({win}).reshape({flat_shape})"
        flat_b = flat_a.replace("sa[", "sb[")
    else:
        win = "sa[{t0}:{t1}].transpose(0, 2, 1, 3)"
        flat_shape = f"{{c}}, {r_groups}, {k2}"
        flat_a = f"np.ascontiguousarray({win}).reshape({flat_shape})"
        flat_b = flat_a.replace("sa[", "sb[")
    if len(ranges) <= _MAX_UNROLL:
        for t0, t1 in ranges:
            c = t1 - t0
            lines.append(f"{indent}# shift rows [{t0}, {t1})")
            lines.append(
                f"{indent}flat_a = {flat_a.format(t0=t0, t1=t1, c=c)}"
            )
            lines.append(
                f"{indent}flat_b = {flat_b.format(t0=t0, t1=t1, c=c)}"
            )
            lines.append(f"{indent}block = flat_a @ {wa}")
            lines.append(f"{indent}block += flat_b @ {wb}")
            lines.append(
                f"{indent}{lhs.format(t0=t0, t1=t1)} = "
                f"block.reshape({shape.format(c=c)})"
            )
    else:
        # too many chunks to unroll: one loop, every other shape pinned
        x_valid = ranges[-1][1]
        dyn = {"t0": "t0", "t1": "t1", "c": "t1 - t0"}
        lines.append(f"{indent}for t0 in range(0, {x_valid}, {_CHUNK}):")
        lines.append(f"{indent}    t1 = t0 + {_CHUNK}")
        lines.append(f"{indent}    if t1 > {x_valid}:")
        lines.append(f"{indent}        t1 = {x_valid}")
        lines.append(f"{indent}    flat_a = {flat_a.format(**dyn)}")
        lines.append(f"{indent}    flat_b = {flat_b.format(**dyn)}")
        lines.append(f"{indent}    block = flat_a @ {wa}")
        lines.append(f"{indent}    block += flat_b @ {wb}")
        lines.append(
            f"{indent}    {lhs.format(t0='t0', t1='t1')} = "
            f"block.reshape({shape.format(c='t1 - t0')})"
        )


def _header(pp, batched: bool, what: str, strided: bool = True) -> List[str]:
    lines = [
        f'"""{what} — shape-pinned ConvStencil pass (generated, do not edit).',
        "",
        f"kernel {pp.kernel.name} (edge {pp.kernel.edge}), grid {pp.grid_shape},",
        f"padded input {pp.padded_shape}{', leading batch axis' if batched else ''}.",
        "Generated by repro.codegen.compiled from an ExecutionPlan pass; every",
        "branch (boundary, fusion, remainder chunks, tile geometry) was resolved",
        "at generation time.  Mirrors the repro.core engines operation-for-",
        'operation, so the result is bit-identical to backend="serial".',
        '"""',
        "",
        "import numpy as np",
    ]
    if strided:
        lines.append("from numpy.lib.stride_tricks import as_strided")
    lines += [
        "",
        "from repro.errors import TessellationError",
        "",
    ]
    return lines


def _source_1d(pp) -> Tuple[List[str], Dict[str, object]]:
    k = pp.kernel.edge
    g = k + 1
    (n,) = pp.padded_shape
    rows = pp.offsets.shape[0]
    needed = (rows - 1) * g + 2 * k
    n_valid = n - k + 1
    ns = {
        "_WA": pp.weights[0],
        "_WB": pp.weights[1],
    }
    lines = _header(pp, False, "1-D dual tessellation")
    lines += [
        "def compiled_pass(padded):",
        f'    """Pinned 1-D pass: padded ({n},) -> valid ({n_valid},)."""',
        "    padded = np.asarray(padded, dtype=np.float64)",
        f"    if padded.shape != ({n},):",
        "        raise TessellationError(",
        f'            "compiled kernel pinned to padded shape ({n},); "',
        '            "got %r" % (padded.shape,)',
        "        )",
    ]
    if needed > n:
        lines.append(
            f"    ext = np.pad(padded, (0, {needed - n}), mode=\"constant\")"
        )
    else:
        lines += [
            "    if not padded.flags.c_contiguous:",
            "        padded = np.ascontiguousarray(padded)",
            "    ext = padded",
        ]
    lines += [
        f"    # staticcheck: gemm-shape-pinned — ({rows}, {k}) @ ({k}, {g}),",
        "    # both operand shapes fixed at generation time.  The stencil2row",
        f"    # offsets are contiguous runs (r*{g} + i), so the engine's gather",
        "    # copies become zero-copy strided views of ext (same values).",
        f"    a = as_strided(ext, ({rows}, {k}), ({8 * g}, 8))",
        f"    b = as_strided(ext[{k}:], ({rows}, {k}), ({8 * g}, 8))",
        "    vit = a @ _WA",
        "    vit += b @ _WB",
        f"    return vit.reshape(-1)[:{n_valid}]",
        "",
    ]
    return lines, ns


def _source_2d(pp, batched: bool, use_lut: bool) -> Tuple[List[str], Dict[str, object]]:
    k = pp.kernel.edge
    g = k + 1
    m, n = pp.padded_shape
    r_groups = pp.offsets.shape[0]
    needed = (r_groups - 1) * g + 2 * k
    n_ext = max(n, needed)
    x_valid, y_valid = m - k + 1, n - k + 1
    rg = r_groups * g
    wa_flat, wb_flat = _flat_weights(pp.weights, k, g)
    ns: Dict[str, object] = {
        "_WA_FLAT": wa_flat,
        "_WB_FLAT": wb_flat,
    }
    if use_lut:
        cols_a, cols_b = _col_luts(pp.offsets, k)
        ns["_ROWS"] = _row_lut(x_valid, k)
        ns["_COLS_A"] = cols_a
        ns["_COLS_B"] = cols_b
    ranges = _chunk_ranges(x_valid)
    what = "2-D dual tessellation" + (" (batched)" if batched else "")
    lines = _header(pp, batched, what, strided=not use_lut)
    if batched:
        lines += [
            "def compiled_pass(stack):",
            f'    """Pinned batched 2-D pass: (batch, {m}, {n}) -> '
            f'(batch, {x_valid}, {y_valid})."""',
            "    stack = np.asarray(stack, dtype=np.float64)",
            f"    if stack.ndim != 3 or stack.shape[1:] != ({m}, {n}):",
            "        raise TessellationError(",
            f'            "compiled kernel pinned to (batch, {m}, {n}); "',
            '            "got %r" % (stack.shape,)',
            "        )",
            "    batch = stack.shape[0]",
        ]
        if needed > n:
            lines.append(
                f"    ext = np.pad(stack, ((0, 0), (0, 0), (0, {needed - n})), "
                'mode="constant")'
            )
        elif use_lut:
            lines.append("    ext = stack")
        else:
            lines += [
                "    if not stack.flags.c_contiguous:",
                "        stack = np.ascontiguousarray(stack)",
                "    ext = stack",
            ]
        lines.append(
            f"    out = np.empty((batch, {x_valid}, {rg}), dtype=np.float64)"
        )
    else:
        lines += [
            "def compiled_pass(padded):",
            f'    """Pinned 2-D pass: ({m}, {n}) -> ({x_valid}, {y_valid})."""',
            "    padded = np.asarray(padded, dtype=np.float64)",
            f"    if padded.shape != ({m}, {n}):",
            "        raise TessellationError(",
            f'            "compiled kernel pinned to padded shape ({m}, {n}); "',
            '            "got %r" % (padded.shape,)',
            "        )",
        ]
        if needed > n:
            lines.append(
                f"    ext = np.pad(padded, ((0, 0), (0, {needed - n})), "
                'mode="constant")'
            )
        elif use_lut:
            lines.append("    ext = padded")
        else:
            lines += [
                "    if not padded.flags.c_contiguous:",
                "        padded = np.ascontiguousarray(padded)",
                "    ext = padded",
            ]
        lines.append(f"    out = np.empty(({x_valid}, {rg}), dtype=np.float64)")
    if not use_lut:
        _emit_strided_views(
            lines,
            "    ",
            batched=batched,
            ext="ext",
            k=k,
            r_groups=r_groups,
            x_valid=x_valid,
            row_stride=8 * n_ext,
            batch_stride=8 * m * n_ext,
            batch_expr="batch",
        )
    lines += [
        "    # staticcheck: gemm-shape-pinned — every GEMM below is a stacked",
        f"    # ({r_groups}, {k * k}) @ ({k * k}, {g}) contraction; both shapes",
        "    # were fixed at generation time (Eq. 13 geometry).",
    ]
    _emit_chunks_2d(
        lines,
        ranges,
        "    ",
        batched=batched,
        use_lut=use_lut,
        out_name="out",
        wa="_WA_FLAT",
        wb="_WB_FLAT",
        r_groups=r_groups,
        k=k,
        rg=rg,
        batch_expr="batch",
    )
    if batched:
        lines.append(f"    return out[:, :, :{y_valid}]")
    else:
        lines.append(f"    return out[:, :{y_valid}]")
    lines.append("")
    return lines, ns


def _source_3d(pp, use_lut: bool) -> Tuple[List[str], Dict[str, object]]:
    k = pp.kernel.edge
    g = k + 1
    pz_pad, px_pad, py_pad = pp.padded_shape
    pz, px, py = pz_pad - k + 1, px_pad - k + 1, py_pad - k + 1
    r_groups = pp.offsets.shape[0]
    needed = (r_groups - 1) * g + 2 * k
    n_ext = max(py_pad, needed)
    x_valid, y_valid = px_pad - k + 1, py_pad - k + 1
    rg = r_groups * g
    ns: Dict[str, object] = {}
    if use_lut:
        cols_a, cols_b = _col_luts(pp.offsets, k)
        ns["_ROWS"] = _row_lut(x_valid, k)
        ns["_COLS_A"] = cols_a
        ns["_COLS_B"] = cols_b
    ranges = _chunk_ranges(x_valid)
    lines = _header(pp, False, "3-D plane decomposition (§4.2)", strided=not use_lut)
    lines += [
        "def compiled_pass(padded):",
        f'    """Pinned 3-D pass: {pp.padded_shape} -> ({pz}, {px}, {py})."""',
        "    padded = np.asarray(padded, dtype=np.float64)",
        f"    if padded.shape != ({pz_pad}, {px_pad}, {py_pad}):",
        "        raise TessellationError(",
        f'            "compiled kernel pinned to padded shape '
        f'({pz_pad}, {px_pad}, {py_pad}); "',
        '            "got %r" % (padded.shape,)',
        "        )",
    ]
    if not use_lut:
        lines += [
            "    if not padded.flags.c_contiguous:",
            "        padded = np.ascontiguousarray(padded)",
        ]
    lines += [
        f"    out = np.zeros(({pz}, {px}, {py}), dtype=np.float64)",
        "    # staticcheck: gemm-shape-pinned — the dense planes below run",
        f"    # stacked ({r_groups}, {k * k}) @ ({k * k}, {g}) GEMMs with",
        "    # generation-time-pinned shapes; plane order is the plan's.",
    ]
    for dz, kind, payload in pp.planes:
        if kind == "skip":
            continue
        if kind == "axpy":
            dx, dy, w = payload
            lines.append(f"    # plane dz={dz}: single-point AXPY")
            lines.append(
                f"    out += {w!r} * padded[{dz}:{dz + pz}, {dx}:{dx + px}, "
                f"{dy}:{dy + py}]"
            )
            continue
        wa_flat, wb_flat = _flat_weights(pp.weights_by_plane[dz], k, g)
        ns[f"_WA_FLAT_{dz}"] = wa_flat
        ns[f"_WB_FLAT_{dz}"] = wb_flat
        lines.append(f"    # plane dz={dz}: dense conv2d ({payload.name})")
        lines.append(f"    stack = padded[{dz}:{dz + pz}]")
        if needed > py_pad:
            lines.append(
                f"    ext = np.pad(stack, ((0, 0), (0, 0), "
                f'(0, {needed - py_pad})), mode="constant")'
            )
        else:
            lines.append("    ext = stack")
        if not use_lut:
            _emit_strided_views(
                lines,
                "    ",
                batched=True,
                ext="ext",
                k=k,
                r_groups=r_groups,
                x_valid=x_valid,
                row_stride=8 * n_ext,
                batch_stride=8 * px_pad * n_ext,
                batch_expr=str(pz),
            )
        lines.append(f"    acc = np.empty(({pz}, {x_valid}, {rg}), dtype=np.float64)")
        _emit_chunks_2d(
            lines,
            ranges,
            "    ",
            batched=True,
            use_lut=use_lut,
            out_name="acc",
            wa=f"_WA_FLAT_{dz}",
            wb=f"_WB_FLAT_{dz}",
            r_groups=r_groups,
            k=k,
            rg=rg,
            batch_expr=str(pz),
        )
        lines.append(f"    out += acc[:, :, :{y_valid}]")
    lines.append("    return out")
    lines.append("")
    return lines, ns


def _generate(
    pp, batched: bool, use_lut: bool = False
) -> Tuple[str, str, Dict[str, object]]:
    """Lower one pass plan to ``(module_name, source, constant_namespace)``.

    ``use_lut`` selects the njit fused-gather body (only emitted when the
    Numba gathers resolved and self-checked); the default strided-view
    body is pure NumPy and standalone.
    """
    if batched and pp.ndim != 2:
        raise TessellationError(
            f"batched compilation supports 2-D passes, got {pp.ndim}-D"
        )
    if pp.ndim == 1:
        lines, ns = _source_1d(pp)
    elif pp.ndim == 2:
        lines, ns = _source_2d(pp, batched, use_lut)
    else:
        lines, ns = _source_3d(pp, use_lut)
    suffix = "_batched" if batched else ""
    name = f"compiled_engine_{pp.ndim}d{suffix}_{_digest(pp, batched, use_lut)}"
    return name, "\n".join(lines), ns


def generate_pass(
    pp, batched: bool = False, flavor: Optional[str] = None
) -> GeneratedPass:
    """Lower one pass plan to a :class:`GeneratedPass` without executing it.

    ``flavor`` selects the body explicitly (``"strided"`` or ``"lut"``);
    the default resolves from the Numba state like :func:`compiled_entry`
    does.  LUT sources can be *generated* (and therefore proven by the
    staticcheck layer-4 prover) even where Numba is absent and they could
    never run — the catalog sweep relies on exactly that.
    """
    if flavor is None:
        flavor = "lut" if _resolve_gathers()[2] == "njit" else "strided"
    if flavor not in ("strided", "lut"):
        raise TessellationError(f"unknown kernel flavor {flavor!r}")
    if pp.ndim == 1:
        flavor = "strided"  # 1-D bodies have no gather to elide
    use_lut = flavor == "lut"
    pp = pp.ensure_tables()
    name, source, constants = _generate(pp, batched, use_lut)
    origin = (
        f"kernel={pp.kernel.name} grid={pp.grid_shape} flavor={flavor}"
        + (" batched" if batched else "")
        + f" digest={name.rsplit('_', 1)[-1]}"
    )
    return GeneratedPass(
        name=name,
        source=source,
        constants=constants,
        flavor=flavor,
        batched=batched,
        gemm=gemm_spec_from_pass(pp),
        origin=origin,
    )


def _staticcheck_generated(gen: GeneratedPass, pp) -> None:
    """Gate a generated kernel under ``REPRO_STATICCHECK`` before caching.

    Mirrors the layer-2 gate on ``PlanCache`` inserts: the AST rules run
    over the source (with provenance attached) and the layer-4 prover
    symbolically executes it against the plan; any error rejects the
    kernel with :class:`StaticCheckError` — it is never cached.
    """
    from repro.staticcheck import lint_sources, staticcheck_enabled
    from repro.staticcheck.symexec import check_generated

    if not staticcheck_enabled():
        return
    display = f"{gen.name}.py"
    result = lint_sources({display: gen.source}, origins={display: gen.origin})
    findings = result.errors
    findings += [f for f in check_generated(gen, pp) if f.severity == "error"]
    if findings:
        raise StaticCheckError(
            f"generated kernel {gen.name} failed staticcheck: "
            + "; ".join(f.format() for f in findings[:3])
            + (f" (+{len(findings) - 3} more)" if len(findings) > 3 else "")
        )


def _compile(pp, batched: bool) -> CompiledPass:
    gather2, gather3, status = _resolve_gathers()
    use_lut = status == "njit"
    gen = generate_pass(pp, batched=batched, flavor="lut" if use_lut else "strided")
    _staticcheck_generated(gen, pp)
    namespace: Dict[str, object] = {
        "__name__": f"repro.codegen.generated.{gen.name}",
    }
    if use_lut:
        namespace["stencil2row_gather"] = gather2
        namespace["stencil2row_gather_batched"] = gather3
    namespace.update(gen.constants)
    exec(compile(gen.source, f"<{gen.name}>", "exec"), namespace)
    obs.count("codegen.compiled.builds")
    _log.debug(
        "compiled %s (%d lines, gather=%s)",
        gen.name, len(gen.source.splitlines()), status,
    )
    return CompiledPass(
        name=gen.name,
        source=gen.source,
        fn=namespace["compiled_pass"],
        gather=status,
        gemm=gen.gemm,
        constants=gen.constants,
    )


# ---------------------------------------------------------------------------
# compiled-kernel cache (keyed by plan identity, LRU-bounded)
# ---------------------------------------------------------------------------

_compile_lock = threading.Lock()
_compiled_cache: "OrderedDict[tuple, CompiledPass]" = OrderedDict()


def _cache_key(pp, batched: bool) -> tuple:
    # kernels hash by identity (see plan_key); grid shape pins the rest
    return (pp.kernel, pp.grid_shape, bool(batched))


def compiled_entry(pp, batched: bool = False) -> CompiledPass:
    """The cached :class:`CompiledPass` for one pass plan (building it on miss).

    Generation and ``exec`` happen outside the cache lock (the same
    no-heavy-work-under-the-lock discipline as the plan cache); a racing
    duplicate build is benign — last writer wins, both are correct.
    """
    key = _cache_key(pp, batched)
    with _compile_lock:
        entry = _compiled_cache.get(key)
        if entry is not None:
            _compiled_cache.move_to_end(key)
    if entry is not None:
        obs.count("codegen.compiled.cache_hits")
        return entry
    entry = _compile(pp, batched)
    with _compile_lock:
        _compiled_cache[key] = entry
        _compiled_cache.move_to_end(key)
        while len(_compiled_cache) > _CACHE_CAPACITY:
            _compiled_cache.popitem(last=False)
    return entry


def get_compiled_pass(pp, batched: bool = False) -> Callable[[np.ndarray], np.ndarray]:
    """The exec-compiled entry point for one pass plan (see :func:`compiled_entry`)."""
    return compiled_entry(pp, batched).fn


def compiled_source(pp, batched: bool = False) -> str:
    """The generated source text for one pass plan (tests, CLI, golden files)."""
    return compiled_entry(pp, batched).source


def clear_compiled_cache() -> int:
    """Drop every cached compiled kernel; returns how many were held."""
    with _compile_lock:
        n = len(_compiled_cache)
        _compiled_cache.clear()
    return n
