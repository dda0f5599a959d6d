"""Layer 2 — static verification of built execution plans (RPR201–RPR207).

The paper's correctness story rests on *static* properties of the
precomputed host-side tables: the stencil2row lookup table realises the
Eq. 5/6 index maps exactly, matrix B's overhang lands in the dirty zone
§3.4 zero-fills (never out of bounds), the dual-tessellation weight
matrices are the Figure-3 triangular stacks whose column split makes
Eq. 13's ``2·⌈k²/4⌉`` MMA count come out, and halo geometry follows the
kernel radius.  PR 3 tested all of this *dynamically* (run both
backends, compare bits); this layer proves it on the plan object itself —
built, never executed — so a corrupted table is rejected before any
engine consumes it:

========  ==================================================================
RPR201    LUT offsets deviate from ``cols[r,i] = r·(k+1)+i`` (Eq. 5) or
          gather (with matrix B's ``+k`` shift, Eq. 6) outside the
          zero-extended padded tile.
RPR202    dirty-zone coverage: some padded input column is gathered by
          neither matrix A nor matrix B (§3.4 says every element is
          either mapped or swallowed by the dirty zone — an unmapped
          *interior* column is data loss).
RPR203    weight matrices are not the triangular Figure-3 stacks, or
          their shape disagrees with the Eq. 13 MMA count
          ``2·⌈k²/4⌉·⌈(k+1)/8⌉``; or a ``toeplitz`` pass's bands are not
          the banded Toeplitz matrices of its nonzero kernel rows (of a
          2-D star: its centre row and centre column).
RPR204    halo geometry inconsistent with kernel radius (pass halo,
          padded shape, fused-pass radius vs fusion depth).
RPR206    3-D plane decomposition inconsistent: bad plane offsets, or
          ``weights_by_plane`` disagreeing with the dense-plane set.
RPR207    execution strategy is not ``"gemm"``, ``"direct"`` or
          ``"toeplitz"``, a ``gemm`` pass lacks the LUT and weight tables
          its engine reads, or a ``toeplitz`` pass lacks its bands.  (A
          ``direct`` or ``toeplitz`` pass carries no GEMM tables until a
          backend is handed it; tables it does carry are checked like a
          ``gemm`` pass's.)
========  ==================================================================

``check_plan(plan)`` returns the violations as :class:`Finding`\\ s
(``file="plan:<kernel>"``); :class:`~repro.runtime.cache.PlanCache` runs
it on every insert when ``REPRO_STATICCHECK=1``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro import obs
from repro.staticcheck.finding import Finding
from repro.utils.arrays import ceil_div

__all__ = ["check_plan", "check_plan_catalog", "eq13_mma_count"]


def eq13_mma_count(edge: int) -> int:
    """Eq. 13 MMAs per 8-row output tile: ``2·⌈k²/4⌉·⌈(k+1)/8⌉``."""
    return 2 * ceil_div(edge * edge, 4) * ceil_div(edge + 1, 8)


def _finding(plan_name: str, rule_id: str, message: str, fix_hint: str = "") -> Finding:
    return Finding(
        rule_id=rule_id,
        severity="error",
        file=f"plan:{plan_name}",
        line=0,
        message=message,
        fix_hint=fix_hint,
    )


def _expected_blocks(row_weights: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Independent reconstruction of the Figure-3 triangular blocks.

    Deliberately re-derived here (not imported from
    :mod:`repro.core.weights`) so a bug or mutation in the production
    builder cannot silently agree with the checker.
    """
    k = row_weights.shape[0]
    g = k + 1
    block_a = np.zeros((k, g), dtype=np.float64)
    block_b = np.zeros((k, g), dtype=np.float64)
    for j in range(g):
        for i in range(k):
            if j < k and i >= j:
                block_a[i, j] = row_weights[i - j]
            if i < j:
                block_b[i, j] = row_weights[k - j + i]
    return block_a, block_b


def _expected_band(row_weights: np.ndarray, width: int) -> np.ndarray:
    """Independent reconstruction of one row's banded Toeplitz matrix,
    ``T[c, b] = w[c - b]`` inside the band, re-derived here for the same
    reason as :func:`_expected_blocks`."""
    k = row_weights.shape[0]
    band = np.zeros((width + k - 1, width), dtype=np.float64)
    for b in range(width):
        for i in range(k):
            band[b + i, b] = row_weights[i]
    return band


def _expected_lines(weights: np.ndarray) -> Dict[tuple, np.ndarray]:
    """The kernel lines a ``toeplitz`` pass bands, keyed like its bands:
    every nonzero row in row-major order, or, for a 2-D star (two or
    more nonzero rows, every nonzero on the centre row or column), the
    centre row if nonzero, then ``(..., r)``, the centre column without
    its centre point.  Re-derived here with loops, not imported."""
    k = weights.shape[-1]
    r = (k - 1) // 2
    rows = {}
    for index in np.ndindex(*weights.shape[:-1]):
        if any(weights[index][i] != 0.0 for i in range(k)):
            rows[index] = weights[index]
    on_axes = weights.ndim == 2 and all(
        weights[i, j] == 0.0 or i == r or j == r for i in range(k) for j in range(k)
    )
    if not on_axes or len(rows) < 2:
        return rows
    column = np.array([0.0 if i == r else weights[i, r] for i in range(k)])
    lines = {(r,): weights[r]} if (r,) in rows else {}
    lines[(..., r)] = column
    return lines


def _check_bands(pp, name: str, label: str, findings: List[Finding]) -> None:
    """RPR203: a toeplitz pass's bands, re-derived from the kernel weights."""
    bands = getattr(pp, "bands", None)
    if bands is None:
        return
    lines = _expected_lines(np.asarray(pp.kernel.weights, dtype=np.float64))
    if list(bands) != list(lines):
        findings.append(
            _finding(
                name,
                "RPR203",
                f"{label}: bands cover kernel lines {list(bands)}, expected "
                f"{list(lines)} (the nonzero rows in row-major order, or a "
                "2-D star's centre row and centre column)",
                fix_hint="rebuild the plan; bands must come from band_matrices",
            )
        )
        return
    width = min(next(iter(bands.values())).shape)
    for key, band in bands.items():
        expected = _expected_band(lines[key], width)
        if key[:1] == (...,):  # the column band is the row form transposed
            expected = expected.T
        if width < 1 or band.shape != expected.shape or not np.array_equal(band, expected):
            findings.append(
                _finding(
                    name,
                    "RPR203",
                    f"{label}: band of kernel line {key} is not the banded "
                    "Toeplitz matrix of that line (T[c, b] = w[c - b], its "
                    "transpose for a column, one block width for every band)",
                    fix_hint="rebuild via band_matrices",
                )
            )
            return


def _check_lut(pp, name: str, label: str, findings: List[Finding]) -> None:
    """RPR201/RPR202: LUT structure, gather bounds, dirty-zone coverage."""
    k = pp.kernel.edge
    g = k + 1
    offsets = pp.offsets
    if offsets is None:
        return
    # The gathered axis is the innermost padded axis (1-D: the whole grid;
    # 2-D: columns; 3-D: plane columns).
    padded_n = pp.padded_shape[-1]
    rows = ceil_div(padded_n, g)
    expected = np.arange(rows)[:, None] * g + np.arange(k)[None, :]
    if offsets.shape != expected.shape or not np.array_equal(offsets, expected):
        findings.append(
            _finding(
                name,
                "RPR201",
                f"{label}: stencil2row LUT deviates from Eq. 5 "
                f"(expected cols[r,i] = r*{g}+i over {expected.shape})",
                fix_hint="rebuild the plan; LUTs must come from stencil2row_offsets",
            )
        )
    if offsets.size == 0 or int(offsets.min()) < 0:
        findings.append(
            _finding(
                name,
                "RPR201",
                f"{label}: LUT is empty or gathers negative columns",
            )
        )
        return  # the bitmap checks below need sane indices
    # Matrix B gathers from offsets + k; both must stay inside the
    # zero-extended tile the layout actually allocates (§3.4 dirty zone).
    ext_len = max(padded_n, (rows - 1) * g + 2 * k)
    b_max = int(offsets.max()) + k
    if b_max > ext_len - 1:
        findings.append(
            _finding(
                name,
                "RPR201",
                f"{label}: matrix-B gather reaches column {b_max} but the "
                f"dirty-zone-extended tile ends at {ext_len - 1}",
                fix_hint="dirty zone must extend to (rows-1)*(k+1) + 2k columns",
            )
        )
    # Coverage is judged on the LUT actually stored in the plan (not the
    # expected one), so a mutated LUT reports *which* columns it dropped.
    covered = np.zeros(max(ext_len, b_max + 1), dtype=bool)
    covered[offsets.ravel()] = True
    covered[offsets.ravel() + k] = True
    unmapped = np.flatnonzero(~covered[:padded_n])
    if unmapped.size:
        findings.append(
            _finding(
                name,
                "RPR202",
                f"{label}: padded input columns {unmapped[:8].tolist()} are "
                "gathered by neither matrix A nor matrix B — unmapped "
                "elements must land in the dirty zone, not inside the tile",
                fix_hint="LUT rows must cover ceil(n/(k+1)) groups of the input",
            )
        )


def _check_weights(pp, name: str, label: str, findings: List[Finding]) -> None:
    """RPR203: triangular structure and Eq. 13 shape consistency."""
    k = pp.kernel.edge
    g = k + 1
    pairs: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    if pp.weights is not None:
        wa, wb = pp.weights
        if pp.ndim == 1:
            if wa.shape != (k, g) or wb.shape != (k, g):
                findings.append(
                    _finding(
                        name,
                        "RPR203",
                        f"{label}: 1-D weight matrices have shape "
                        f"{wa.shape}/{wb.shape}, expected ({k}, {g})",
                    )
                )
                return
            pairs.append((pp.kernel.weights, wa, wb))
        else:
            if wa.shape != (k, k, g) or wb.shape != (k, k, g):
                findings.append(
                    _finding(
                        name,
                        "RPR203",
                        f"{label}: 2-D weight blocks have shape "
                        f"{wa.shape}/{wb.shape}, expected ({k}, {k}, {g})",
                    )
                )
                return
            for x in range(k):
                pairs.append((pp.kernel.weights[x], wa[x], wb[x]))
    for row_weights, wa, wb in pairs:
        exp_a, exp_b = _expected_blocks(np.asarray(row_weights, dtype=np.float64))
        if not (np.array_equal(wa, exp_a) and np.array_equal(wb, exp_b)):
            findings.append(
                _finding(
                    name,
                    "RPR203",
                    f"{label}: weight matrices are not the Figure-3 "
                    "triangular stacks (A lower / B upper with the "
                    "complementary column split)",
                    fix_hint="rebuild via weight_matrices_1d / weight_blocks_2d",
                )
            )
            return
    if pp.weights is not None and pp.ndim == 2:
        # Eq. 13 consistency: the stacked (k², k+1) operand implies
        # 2·⌈k²/4⌉·⌈(k+1)/8⌉ MMAs per 8-row tile; the performance model
        # must agree with the plan's actual operand shape.
        from repro.model.convstencil_model import mma_per_point_2d

        model_count = int(round(mma_per_point_2d(k) * 8 * g))
        if model_count != eq13_mma_count(k):
            findings.append(
                _finding(
                    name,
                    "RPR203",
                    f"{label}: Eq. 13 MMA count mismatch — plan operand "
                    f"shape implies {eq13_mma_count(k)}, model reports "
                    f"{model_count}",
                )
            )


def _check_halo(pp, name: str, label: str, findings: List[Finding]) -> None:
    """RPR204: halo and padded-shape geometry for one pass."""
    if pp.halo != pp.kernel.radius:
        findings.append(
            _finding(
                name,
                "RPR204",
                f"{label}: halo {pp.halo} != kernel radius {pp.kernel.radius}",
            )
        )
    expected = tuple(s + 2 * pp.halo for s in pp.grid_shape)
    if tuple(pp.padded_shape) != expected:
        findings.append(
            _finding(
                name,
                "RPR204",
                f"{label}: padded shape {tuple(pp.padded_shape)} != grid + "
                f"2*halo = {expected}",
            )
        )


def _check_planes(pp, name: str, label: str, findings: List[Finding]) -> None:
    """RPR206: 3-D plane decomposition / per-plane weight consistency."""
    if pp.ndim != 3 or (pp.offsets is None and pp.planes is None):
        # No tables to check: a direct pass builds them only when handed
        # to a backend (RPR207 flags a gemm pass without them).
        return
    k = pp.kernel.edge
    if not pp.planes:
        findings.append(
            _finding(name, "RPR206", f"{label}: 3-D pass without plane decomposition")
        )
        return
    dzs = [dz for dz, _, _ in pp.planes]
    if sorted(dzs) != sorted(set(dzs)) or any(not 0 <= dz < k for dz in dzs):
        findings.append(
            _finding(
                name,
                "RPR206",
                f"{label}: plane offsets {dzs} are not distinct values in "
                f"[0, {k})",
            )
        )
    dense = {dz for dz, kind, _ in pp.planes if kind == "conv2d"}
    have = set((pp.weights_by_plane or {}).keys())
    if dense != have:
        findings.append(
            _finding(
                name,
                "RPR206",
                f"{label}: weights_by_plane keys {sorted(have)} != dense "
                f"planes {sorted(dense)}",
            )
        )
        return
    for dz, kind, payload in pp.planes:
        if kind != "conv2d":
            continue
        wa, wb = pp.weights_by_plane[dz]
        pk = payload.edge
        if wa.shape != (pk, pk, pk + 1) or wb.shape != (pk, pk, pk + 1):
            findings.append(
                _finding(
                    name,
                    "RPR206",
                    f"{label}: plane z={dz} weight blocks have shape "
                    f"{wa.shape}, expected ({pk}, {pk}, {pk + 1})",
                )
            )
            continue
        for x in range(pk):
            exp_a, exp_b = _expected_blocks(
                np.asarray(payload.weights[x], dtype=np.float64)
            )
            if not (np.array_equal(wa[x], exp_a) and np.array_equal(wb[x], exp_b)):
                findings.append(
                    _finding(
                        name,
                        "RPR206",
                        f"{label}: plane z={dz} weight blocks are not the "
                        "triangular stacks of that plane's kernel row",
                    )
                )
                break


#: The strategies a pass may carry — restated here rather than imported
#: from :mod:`repro.runtime.plan`, like the weight blocks above.
_STRATEGIES = ("gemm", "direct", "toeplitz")


def _check_strategy(pp, name: str, label: str, findings: List[Finding]) -> None:
    """RPR207: a known strategy; a ``gemm`` pass carries its tables and a
    ``toeplitz`` pass its bands."""
    strategy = getattr(pp, "strategy", None)
    if strategy not in _STRATEGIES:
        findings.append(
            _finding(
                name,
                "RPR207",
                f"{label}: strategy {strategy!r} is not one of {_STRATEGIES}",
                fix_hint="plans get their strategy from build_plan",
            )
        )
        return
    if strategy == "toeplitz" and getattr(pp, "bands", None) is None:
        findings.append(
            _finding(
                name,
                "RPR207",
                f"{label}: toeplitz pass has no bands — the sequencer would "
                "rebuild them on every pass",
            )
        )
    if strategy != "gemm":
        return
    if pp.ndim == 3:
        tables = {"LUT": pp.offsets, "plane decomposition": pp.planes,
                  "per-plane weights": pp.weights_by_plane}
    else:
        tables = {"LUT": pp.offsets, "weights": pp.weights}
    missing = [what for what, table in tables.items() if table is None]
    if missing:
        findings.append(
            _finding(
                name,
                "RPR207",
                f"{label}: gemm pass has no {', '.join(missing)} — its "
                "backend engine would rebuild or miss them",
            )
        )


def _check_pass(pp, name: str, label: str) -> List[Finding]:
    findings: List[Finding] = []
    _check_strategy(pp, name, label, findings)
    _check_halo(pp, name, label, findings)
    _check_lut(pp, name, label, findings)
    _check_weights(pp, name, label, findings)
    _check_bands(pp, name, label, findings)
    _check_planes(pp, name, label, findings)
    return findings


def check_plan(plan) -> List[Finding]:
    """Statically verify one built :class:`~repro.runtime.plan.ExecutionPlan`.

    Returns every violated invariant as an error-severity
    :class:`Finding`; an empty list means the plan satisfies all paper
    invariants this layer can prove.  Increments the
    ``staticcheck.plans_checked`` counter.
    """
    name = plan.kernel.name
    findings: List[Finding] = []
    findings.extend(_check_pass(plan.base_pass, name, "base pass"))
    if plan.fused_pass is not plan.base_pass:
        findings.extend(_check_pass(plan.fused_pass, name, "fused pass"))
        expected_halo = plan.fusion.depth * plan.kernel.radius
        if plan.fused_pass.halo != expected_halo:
            findings.append(
                _finding(
                    name,
                    "RPR204",
                    f"fused pass halo {plan.fused_pass.halo} != depth "
                    f"{plan.fusion.depth} x radius {plan.kernel.radius} = "
                    f"{expected_halo}",
                )
            )
    obs.count("staticcheck.plans_checked")
    return findings


#: Grid shapes the catalog sweep plans against, per dimensionality —
#: deliberately awkward extents (non-multiples of the group width) so the
#: dirty-zone and alignment invariants are exercised, not dodged.
_CATALOG_SHAPES: Dict[int, Tuple[int, ...]] = {
    1: (67,),
    2: (16, 21),
    3: (8, 9, 11),
}


def check_plan_catalog() -> Tuple[List[Finding], int]:
    """Run :func:`check_plan` over plans for every catalogued kernel.

    Builds (uncached) plans at fixed awkward shapes and fusion depths 1
    and 2 — the same kernel population the verify harness draws cases
    from — pinned to the ``gemm`` and to the ``toeplitz`` strategy, so the
    sweep covers the tables the GEMM engines read and the bands.
    Returns ``(findings, plans_checked)``.
    """
    from repro.runtime.plan import build_plan
    from repro.stencils.catalog import get_kernel, list_kernels

    findings: List[Finding] = []
    checked = 0
    for kernel_name in list_kernels():
        kernel = get_kernel(kernel_name)
        for depth in (1, 2):
            for strategy in ("gemm", "toeplitz"):
                plan = build_plan(
                    kernel,
                    _CATALOG_SHAPES[kernel.ndim],
                    fusion=depth,
                    strategy=strategy,
                )
                findings.extend(check_plan(plan))
                checked += 1
    return findings, checked
