"""Plan-driven Python specialization: the ``compiled`` backend's generator.

:class:`~repro.runtime.plan.ExecutionPlan` already *is* an IR — it pins
every shape-derived fact of a pass (gather LUTs, triangular weights, halo
geometry, fusion depth).  This module lowers one
:class:`~repro.runtime.plan.PassPlan` into a **shape-pinned Python
kernel**: straight-line stacked-GEMM NumPy source with every branch —
boundary, fusion depth, remainder chunks, tile geometry, 3-D plane
decomposition — resolved at generation time, ``exec``-compiled once and
cached per plan key.  The 2-D kernel is the only one with a leading batch
axis: like :func:`repro.core.engine2d.convstencil_valid_2d_batched` it
runs one stacked GEMM sweep over a stack of padded grids, and a single
grid runs as a stack of one, so each plan key has one 2-D kernel.  The
3-D kernel reuses the same batch-axis body over its dense planes.

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

Generated sources satisfy the staticcheck AST rules (they carry the
``gemm-shape-pinned`` markers RPR002 wants) and are linted through
:func:`repro.staticcheck.lint_sources` at build time when
``REPRO_STATICCHECK`` is enabled — the same opt-in gate the plan
invariants use.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro import obs
from repro.codegen.specs import GemmSpec, gemm_spec_from_pass
from repro.core.engine2d import _CHUNK
from repro.errors import StaticCheckError
from repro.telemetry.log import get_logger

__all__ = [
    "CompiledPass",
    "GeneratedPass",
    "clear_compiled_cache",
    "compiled_entry",
    "compiled_source",
    "generate_pass",
    "get_compiled_pass",
]

_log = get_logger("codegen.compiled")

#: Chunk bodies are fully unrolled up to this many; beyond it the
#: generator emits one pinned-bounds loop instead (the source would
#: otherwise grow linearly with the grid height).
_MAX_UNROLL = 64

#: Compiled-kernel LRU capacity (kernels × shapes; one kernel per pass plan).
_CACHE_CAPACITY = 128


# ---------------------------------------------------------------------------
# source generation (one PassPlan -> shape-pinned module text + constants)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratedPass:
    """One generated (not yet compiled) pass kernel — the prover's input.

    Carries everything :func:`repro.staticcheck.symexec.check_generated`
    needs to prove the kernel safe against its plan: the source, the
    constant namespace (the weights), and an ``origin`` string naming what
    produced the source so findings in detached generated code stay
    actionable.
    """

    #: Generated module name (stem contains ``engine`` so RPR002 applies).
    name: str
    #: Generated Python source (what ``lint_sources`` and symexec see).
    source: str
    #: Generation-time constants the source closes over (the weights).
    constants: Dict[str, object]
    #: The GEMM geometry the source was specialized against.
    gemm: GemmSpec
    #: Provenance carried into findings: kernel, grid, digest.
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
    #: The GEMM geometry the source was specialized against.
    gemm: GemmSpec
    #: Generation-time constants the kernel was exec'd against.
    constants: Dict[str, object]


def _digest(pp) -> str:
    h = hashlib.sha1()
    h.update(
        repr(
            (
                pp.kernel.name,
                pp.kernel.edge,
                pp.grid_shape,
                pp.padded_shape,
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


def _emit_strided_views(
    lines: List[str],
    indent: str,
    *,
    ext: str,
    k: int,
    r_groups: int,
    x_valid: int,
    row_stride: int,
    batch_stride: int,
    batch_expr: str,
) -> None:
    """Emit the ``sa``/``sb`` window views over the stack ``ext`` (strides pinned).

    ``sa[b, t, x', r, i] = ext[b, t + x', r*(k+1) + i]`` — the exact
    values of the engine's ``gather -> sliding_windows`` pipeline, but as
    one zero-copy view (the gather offsets are contiguous runs, so the
    copy the engine makes is pure layout, not selection).
    """
    g8 = 8 * (k + 1)
    shape = f"({batch_expr}, {x_valid}, {k}, {r_groups}, {k})"
    strides = f"({batch_stride}, {row_stride}, {row_stride}, {g8}, 8)"
    b_base = f"{ext}[:, :, {k}:]"
    lines.append(f"{indent}sa = as_strided({ext}, {shape}, {strides})")
    lines.append(f"{indent}sb = as_strided({b_base}, {shape}, {strides})")


def _emit_chunks_2d(
    lines: List[str],
    ranges: List[Tuple[int, int]],
    indent: str,
    *,
    out_name: str,
    wa: str,
    wb: str,
    r_groups: int,
    k: int,
    rg: int,
    batch_expr: str,
) -> None:
    """Append the straight-line (or pinned-loop) chunk bodies.

    Each chunk is copied out of the ``sa``/``sb`` window views with the
    engine's exact ``transpose`` + contiguous copy, so the
    ``(batch, c, R, k²)`` GEMM operands are byte-identical to the engine's.
    """
    k2 = k * k
    lhs = f"{out_name}[:, {{t0}}:{{t1}}]"
    shape = f"{batch_expr}, {{c}}, {rg}"
    win = "sa[:, {t0}:{t1}].transpose(0, 1, 3, 2, 4)"
    flat_shape = f"{batch_expr}, {{c}}, {r_groups}, {k2}"
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


def _header(pp, what: str, note: str = "") -> List[str]:
    return [
        f'"""{what} — shape-pinned ConvStencil pass (generated, do not edit).',
        "",
        f"kernel {pp.kernel.name} (edge {pp.kernel.edge}), grid {pp.grid_shape},",
        f"padded input {pp.padded_shape}{note}.",
        "Generated by repro.codegen.compiled from an ExecutionPlan pass; every",
        "branch (boundary, fusion, remainder chunks, tile geometry) was resolved",
        "at generation time.  Mirrors the repro.core engines operation-for-",
        'operation, so the result is bit-identical to backend="serial".',
        '"""',
        "",
        "import numpy as np",
        "from numpy.lib.stride_tricks import as_strided",
        "",
        "from repro.errors import TessellationError",
        "",
    ]


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
    lines = _header(pp, "1-D dual tessellation")
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


def _source_2d(pp) -> Tuple[List[str], Dict[str, object]]:
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
    ranges = _chunk_ranges(x_valid)
    lines = _header(pp, "2-D dual tessellation", ", leading batch axis")
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
    else:
        lines += [
            "    if not stack.flags.c_contiguous:",
            "        stack = np.ascontiguousarray(stack)",
            "    ext = stack",
        ]
    lines.append(f"    out = np.empty((batch, {x_valid}, {rg}), dtype=np.float64)")
    _emit_strided_views(
        lines,
        "    ",
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
        out_name="out",
        wa="_WA_FLAT",
        wb="_WB_FLAT",
        r_groups=r_groups,
        k=k,
        rg=rg,
        batch_expr="batch",
    )
    lines.append(f"    return out[:, :, :{y_valid}]")
    lines.append("")
    return lines, ns


def _source_3d(pp) -> Tuple[List[str], Dict[str, object]]:
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
    ranges = _chunk_ranges(x_valid)
    lines = _header(pp, "3-D plane decomposition (§4.2)")
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
        "    if not padded.flags.c_contiguous:",
        "        padded = np.ascontiguousarray(padded)",
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
        _emit_strided_views(
            lines,
            "    ",
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


def _generate(pp) -> Tuple[str, str, Dict[str, object]]:
    """Lower one pass plan to ``(module_name, source, constant_namespace)``."""
    if pp.ndim == 1:
        lines, ns = _source_1d(pp)
    elif pp.ndim == 2:
        lines, ns = _source_2d(pp)
    else:
        lines, ns = _source_3d(pp)
    name = f"compiled_engine_{pp.ndim}d_{_digest(pp)}"
    return name, "\n".join(lines), ns


def generate_pass(pp) -> GeneratedPass:
    """Lower one pass plan to a :class:`GeneratedPass` without executing it."""
    pp = pp.ensure_tables()
    name, source, constants = _generate(pp)
    origin = f"kernel={pp.kernel.name} grid={pp.grid_shape} digest={name.rsplit('_', 1)[-1]}"
    return GeneratedPass(
        name=name,
        source=source,
        constants=constants,
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


def _compile(pp) -> CompiledPass:
    gen = generate_pass(pp)
    _staticcheck_generated(gen, pp)
    namespace: Dict[str, object] = {
        "__name__": f"repro.codegen.generated.{gen.name}",
    }
    namespace.update(gen.constants)
    exec(compile(gen.source, f"<{gen.name}>", "exec"), namespace)
    obs.count("codegen.compiled.builds")
    _log.debug("compiled %s (%d lines)", gen.name, len(gen.source.splitlines()))
    return CompiledPass(
        name=gen.name,
        source=gen.source,
        fn=namespace["compiled_pass"],
        gemm=gen.gemm,
        constants=gen.constants,
    )


# ---------------------------------------------------------------------------
# compiled-kernel cache (keyed by plan identity, LRU-bounded)
# ---------------------------------------------------------------------------

_compile_lock = threading.Lock()
_compiled_cache: "OrderedDict[tuple, CompiledPass]" = OrderedDict()


def _cache_key(pp) -> tuple:
    # kernels hash by identity (see plan_key); grid shape pins the rest
    return (pp.kernel, pp.grid_shape)


def compiled_entry(pp) -> CompiledPass:
    """The cached :class:`CompiledPass` for one pass plan (building it on miss).

    Generation and ``exec`` happen outside the cache lock (the same
    no-heavy-work-under-the-lock discipline as the plan cache); a racing
    duplicate build is benign — last writer wins, both are correct.
    """
    key = _cache_key(pp)
    with _compile_lock:
        entry = _compiled_cache.get(key)
        if entry is not None:
            _compiled_cache.move_to_end(key)
    if entry is not None:
        obs.count("codegen.compiled.cache_hits")
        return entry
    entry = _compile(pp)
    with _compile_lock:
        _compiled_cache[key] = entry
        _compiled_cache.move_to_end(key)
        while len(_compiled_cache) > _CACHE_CAPACITY:
            _compiled_cache.popitem(last=False)
    return entry


def get_compiled_pass(pp) -> Callable[[np.ndarray], np.ndarray]:
    """The exec-compiled entry point for one pass plan (see :func:`compiled_entry`).

    A 2-D kernel takes a stack of padded grids (leading batch axis); the
    1-D and 3-D kernels take one padded grid.
    """
    return compiled_entry(pp).fn


def compiled_source(pp) -> str:
    """The generated source text for one pass plan (tests, CLI, golden files)."""
    return compiled_entry(pp).source


def clear_compiled_cache() -> int:
    """Drop every cached compiled kernel; returns how many were held."""
    with _compile_lock:
        n = len(_compiled_cache)
        _compiled_cache.clear()
    return n
