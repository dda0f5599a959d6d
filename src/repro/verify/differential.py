"""Differential conformance harness: randomized backends-vs-oracle checking.

PR 2 staked the runtime's core claim — every backend == reference, bit
for bit, for every catalogued kernel — on a fixed test matrix.  This
module checks the same claim *adversarially*: a seeded generator draws
random cases across the whole configuration space

    (kernel × shape × boundary × fusion × backend × batch layout),

including randomized star/box weights, degenerate and non-group-aligned
extents, and minimum-legal sizes, then runs every case through all
registered backends — once per plan-level execution strategy (dual
tessellation ``gemm`` and shifted-add ``direct``, pinned so the GEMM
engines stay covered whatever the strategy rule picks)
— and two independent oracles:

* the **mirror oracle** — :func:`apply_stencil_reference` (shifted-view
  weighted sums, no stencil2row, no dual tessellation) applied with
  exactly the runtime's pass sequence and padding semantics.  Backends
  must match it to within a small ULP budget (the drift is pure
  floating-point reassociation, the envelope "Do We Need Tensor Cores for
  Stencil Computations?" shows such reformulations silently leave);
* the **unfused oracle** — a plain step-by-step reference loop, compared
  only where temporal fusion is claimed exact (depth 1, or periodic
  halos), under a looser budget.

Backends are always compared with each other **bit for bit**, per
strategy.

Failing cases are shrunk to a minimal reproduction (fewer steps, smaller
extents, simpler layout/boundary) and emitted as a JSON-serialisable dict
for regression pinning.  A mutation smoke-check plants an off-by-one in a
copy of a stencil2row gather LUT and asserts the harness flags it — the
harness is itself under test.

Telemetry: ``verify.cases`` / ``verify.failures`` counters and a
``verify.ulp_max`` gauge mirror every run into the metrics registry.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.core.api import PinnedStencil
from repro.core.fusion import plan_fusion
from repro.runtime.plan import STRATEGIES, build_plan
from repro.stencils.catalog import get_kernel, list_kernels
from repro.stencils.grid import BoundaryCondition, Grid
from repro.stencils.kernel import StencilKernel
from repro.stencils.reference import apply_stencil_reference
from repro.utils.rng import default_rng

__all__ = [
    "Case",
    "CaseResult",
    "VerifyReport",
    "generate_cases",
    "max_ulp",
    "mutation_check",
    "run_case",
    "run_verification",
    "shrink",
]

#: ULP budget against the mirror oracle (same pass semantics, different
#: summation order — pure reassociation drift; worst observed across
#: hundreds of seeded sweeps is single-digit ULPs).
DEFAULT_TIGHT_ULP = 64.0
#: ULP budget against the unfused step loop where fusion is exact
#: (composed-kernel weights themselves carry rounding, so drift is wider).
DEFAULT_LOOSE_ULP = 4096.0

#: Batch layouts the public API accepts; single-grid layouts first.
LAYOUTS: Tuple[str, ...] = (
    "array",
    "grid",
    "batch-array",
    "batch-list",
    "batch-grid",
    "batch-grid-list",
)

_SHRINK_MAX_ATTEMPTS = 120


# ---------------------------------------------------------------------------
# cases


@dataclass(frozen=True)
class Case:
    """One randomized conformance case (JSON-serialisable).

    ``kernel`` is a spec dict: ``{"kind": "catalog", "name": ...}`` or
    ``{"kind": "star"|"box", "ndim": n, "radius": r, "wseed": s}`` whose
    weights are drawn deterministically from ``wseed``.
    """

    seed: int
    kernel: dict
    shape: Tuple[int, ...]
    boundary: str = "constant"
    fill_value: float = 0.0
    fusion: "int | str" = 1
    steps: int = 1
    layout: str = "array"
    batch: Optional[int] = None

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["shape"] = list(self.shape)
        d["kernel"] = dict(self.kernel)
        return d

    @staticmethod
    def from_dict(d: dict) -> "Case":
        d = dict(d)
        d["shape"] = tuple(int(s) for s in d["shape"])
        if d.get("batch") is not None:
            d["batch"] = int(d["batch"])
        return Case(**d)

    # -- derived ----------------------------------------------------------

    def resolve_kernel(self) -> StencilKernel:
        return _resolve_kernel(self.kernel)

    def fusion_depth(self) -> int:
        kernel = self.resolve_kernel()
        return plan_fusion(kernel, self.fusion).depth

    def describe(self) -> str:
        spec = self.kernel
        kname = spec.get("name") or (
            f"{spec['kind']}-{spec['ndim']}d-r{spec['radius']}#{spec['wseed']}"
        )
        batch = f" batch={self.batch}" if self.batch is not None else ""
        return (
            f"{kname} shape={self.shape} boundary={self.boundary} "
            f"fusion={self.fusion} steps={self.steps} layout={self.layout}"
            f"{batch} seed={self.seed}"
        )


def _resolve_kernel(spec: dict) -> StencilKernel:
    kind = spec["kind"]
    if kind == "catalog":
        return get_kernel(spec["name"])
    ndim, radius, wseed = int(spec["ndim"]), int(spec["radius"]), int(spec["wseed"])
    rng = default_rng(wseed)
    if kind == "star":
        npoints = 2 * ndim * radius + 1
        weights = rng.uniform(0.1, 1.0, npoints)
        weights /= weights.sum()
        return StencilKernel.star(
            ndim, radius, weights=weights, name=f"rand-star-{ndim}d-r{radius}#{wseed}"
        )
    if kind == "box":
        n = (2 * radius + 1) ** ndim
        weights = rng.uniform(0.1, 1.0, n)
        weights /= weights.sum()
        return StencilKernel.box(
            ndim, radius, weights=weights, name=f"rand-box-{ndim}d-r{radius}#{wseed}"
        )
    raise ValueError(f"unknown kernel spec kind {kind!r}")


def _catalog_by_ndim() -> Dict[int, List[str]]:
    by_ndim: Dict[int, List[str]] = {1: [], 2: [], 3: []}
    for name in list_kernels():
        by_ndim[get_kernel(name).ndim].append(name)
    return by_ndim


#: Largest extent per axis the generator draws (quick mode keeps grids
#: laptop-trivial; full mode still completes in seconds per case).
_EXTENT_CAPS = {
    False: {1: 512, 2: 96, 3: 16},
    True: {1: 128, 2: 40, 3: 10},
}


def _random_extent(rng: np.random.Generator, ndim: int, edge: int, quick: bool) -> int:
    """One extent from a pool biased toward the paper's edge cases.

    The pool mixes degenerate sizes (1, 2), sizes straddling the
    stencil2row group width ``g = edge + 1`` (alignment bugs live at
    ``g ± 1``), and a uniform draw up to the cap.
    """
    g = edge + 1
    cap = _EXTENT_CAPS[quick][ndim]
    pool = [1, 2, edge, g - 1, g, g + 1, 2 * g - 1, 2 * g, 3 * g + 1]
    pool.append(int(rng.integers(3, cap + 1)))
    return int(min(cap, max(1, int(rng.choice(pool)))))


def generate_cases(
    seed: int,
    n: int,
    quick: bool = False,
    ndims: Sequence[int] = (1, 2, 3),
) -> List[Case]:
    """Draw ``n`` random, *legal* cases deterministically from ``seed``."""
    rng = np.random.default_rng(seed)
    catalog = _catalog_by_ndim()
    cases: List[Case] = []
    while len(cases) < n:
        ndim = int(rng.choice(list(ndims)))
        # Kernel: half catalog, half randomized star/box weights.
        if rng.random() < 0.5:
            kernel_spec = {"kind": "catalog", "name": str(rng.choice(catalog[ndim]))}
        else:
            max_radius = 1 if ndim == 3 else (2 if quick else 3)
            kernel_spec = {
                "kind": str(rng.choice(["star", "box"])),
                "ndim": ndim,
                "radius": int(rng.integers(1, max_radius + 1)),
                "wseed": int(rng.integers(0, 2**31 - 1)),
            }
        kernel = _resolve_kernel(kernel_spec)
        if ndim == 3:
            fusion: "int | str" = int(rng.choice([1, 1, 2]))
        elif rng.random() < 0.15:
            fusion = "auto"
        else:
            fusion = int(rng.choice([1, 1, 2, 3]))
        depth = plan_fusion(kernel, fusion).depth
        steps = int(rng.choice([0, 1, 2, 3, 4], p=[0.08, 0.2, 0.32, 0.25, 0.15]))
        boundary = str(rng.choice(["constant", "periodic", "reflect"]))
        fill = 0.0
        if boundary == "constant" and rng.random() < 0.3:
            fill = round(float(rng.uniform(-1.0, 1.0)), 3)
        layout = str(rng.choice(LAYOUTS))
        if ndim == 3 and layout == "batch-grid":
            layout = "batch-array"  # Grid objects are capped at 3-D data
        batch = int(rng.integers(1, 5)) if layout.startswith("batch") else None
        shape = tuple(
            _random_extent(rng, ndim, kernel.edge, quick) for _ in range(ndim)
        )
        halo = depth * kernel.radius
        if boundary == "periodic":
            # pad_halo requires halo <= extent for wrap-around padding.
            shape = tuple(max(s, halo) for s in shape)
        cases.append(
            Case(
                seed=int(rng.integers(0, 2**31 - 1)),
                kernel=kernel_spec,
                shape=shape,
                boundary=boundary,
                fill_value=fill,
                fusion=fusion,
                steps=steps,
                layout=layout,
                batch=batch,
            )
        )
    return cases


# ---------------------------------------------------------------------------
# execution and comparison


def max_ulp(a: np.ndarray, b: np.ndarray) -> float:
    """Largest elementwise distance between ``a`` and ``b`` in float64 ULPs.

    The per-element scale is floored at one ULP of the *array's* largest
    magnitude: a cancelling stencil (e.g. a Laplacian on smooth data) can
    leave outputs orders of magnitude below its inputs, and measuring the
    reassociation residue in ULPs of a near-zero element would report
    astronomic drift for what is ordinary rounding at the data's scale.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        return float("inf")
    if a.size == 0:
        return 0.0
    diff = np.abs(a - b)
    if not diff.any():
        return 0.0
    floor = np.spacing(
        max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-300)
    )
    scale = np.maximum(np.spacing(np.maximum(np.abs(a), np.abs(b))), floor)
    return float(np.max(diff / scale))


def _case_input(case: Case) -> np.ndarray:
    shape = case.shape if case.batch is None else (case.batch,) + case.shape
    return default_rng(case.seed).random(shape)


def _execute_case(
    case: Case, kernel: StencilKernel, backend, data: np.ndarray, strategy: str
):
    """Run one case on one backend, with every pass pinned to ``strategy``,
    through the public API layout it names."""
    cs = PinnedStencil(kernel, strategy, fusion=case.fusion, backend=backend)
    bc = case.boundary
    fill = case.fill_value
    if case.layout == "array":
        return cs.run(data, steps=case.steps, boundary=bc, fill_value=fill)
    if case.layout == "grid":
        return cs.run(Grid(data, boundary=bc, fill_value=fill), steps=case.steps)
    if case.layout == "batch-array":
        return cs.run_batch(data, steps=case.steps, boundary=bc, fill_value=fill)
    if case.layout == "batch-list":
        return cs.run_batch(
            [g for g in data], steps=case.steps, boundary=bc, fill_value=fill
        )
    if case.layout == "batch-grid":
        return cs.run_batch(Grid(data, boundary=bc, fill_value=fill), steps=case.steps)
    if case.layout == "batch-grid-list":
        return cs.run_batch(
            [Grid(g, boundary=bc, fill_value=fill) for g in data], steps=case.steps
        )
    raise ValueError(f"unknown layout {case.layout!r}")


def _oracle_passes(case: Case, kernel: StencilKernel, grid: np.ndarray) -> np.ndarray:
    """Mirror oracle: the runtime's exact pass sequence and padding
    semantics, executed by the plan-free shifted-view reference."""
    fplan = plan_fusion(kernel, case.fusion)
    fused_passes, remainder = divmod(case.steps, fplan.depth)
    bc = BoundaryCondition(case.boundary)
    out = np.asarray(grid, dtype=np.float64)
    for _ in range(fused_passes):
        out = apply_stencil_reference(out, fplan.fused, bc, case.fill_value)
    for _ in range(remainder):
        out = apply_stencil_reference(out, fplan.base, bc, case.fill_value)
    return out


def _oracle_unfused(case: Case, kernel: StencilKernel, grid: np.ndarray) -> np.ndarray:
    """Plain step loop — valid comparison only where fusion is exact."""
    bc = BoundaryCondition(case.boundary)
    out = np.asarray(grid, dtype=np.float64)
    for _ in range(case.steps):
        out = apply_stencil_reference(out, kernel, bc, case.fill_value)
    return out


def _apply_oracle(case: Case, oracle, kernel: StencilKernel, data: np.ndarray):
    if case.batch is None:
        return oracle(case, kernel, data)
    if data.shape[0] == 0:
        return np.asarray(data, dtype=np.float64)
    return np.stack([oracle(case, kernel, g) for g in data])


@dataclass
class CaseResult:
    """Outcome of one case across all strategies, backends and both oracles.

    ``ulp_mirror``/``ulp_unfused`` are the worst over the strategies;
    ``ulp_by_strategy`` keeps each strategy's mirror-oracle drift.
    """

    case: Case
    failures: List[str] = field(default_factory=list)
    ulp_mirror: float = 0.0
    ulp_unfused: Optional[float] = None
    ulp_by_strategy: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures


def run_case(
    case: Case,
    backends: Dict[str, object],
    tight_ulp: float = DEFAULT_TIGHT_ULP,
    loose_ulp: float = DEFAULT_LOOSE_ULP,
) -> CaseResult:
    """Run ``case`` under each strategy on every backend: cross-check bits
    per strategy, and check each strategy against both oracles."""
    result = CaseResult(case=case)
    try:
        kernel = case.resolve_kernel()
        data = _case_input(case)
    except Exception as exc:  # malformed spec — report, don't crash the sweep
        result.failures.append(
            f"case setup raised {type(exc).__name__}: {exc}"
        )
        return result

    mirror = unfused = None
    depth = plan_fusion(kernel, case.fusion).depth
    for strategy in STRATEGIES:
        base_name, base = _run_strategy(case, kernel, data, backends, strategy, result)
        if base is None:
            continue

        # Mirror oracle: same pass semantics, independent algorithm.
        if mirror is None:
            try:
                mirror = _apply_oracle(case, _oracle_passes, kernel, data)
            except Exception as exc:
                result.failures.append(
                    f"mirror oracle raised {type(exc).__name__}: {exc}"
                )
                return result
        ulp = max_ulp(base, mirror)
        result.ulp_by_strategy[strategy] = ulp
        result.ulp_mirror = max(result.ulp_mirror, ulp)
        if ulp > tight_ulp:
            result.failures.append(
                f"[{strategy}] backend {base_name!r} drifts {ulp:.3g} ULP "
                f"from the mirror oracle (budget {tight_ulp:g})"
            )

        # Unfused oracle, where fusion is claimed exact everywhere.
        if depth > 1 and case.boundary == "periodic":
            if unfused is None:
                unfused = _apply_oracle(case, _oracle_unfused, kernel, data)
            drift = max_ulp(base, unfused)
            result.ulp_unfused = max(result.ulp_unfused or 0.0, drift)
            if drift > loose_ulp:
                result.failures.append(
                    f"[{strategy}] fused result drifts {drift:.3g} ULP from "
                    f"the unfused step loop under periodic halos "
                    f"(budget {loose_ulp:g})"
                )
    return result


def _run_strategy(
    case: Case,
    kernel: StencilKernel,
    data: np.ndarray,
    backends: Dict[str, object],
    strategy: str,
    result: CaseResult,
) -> Tuple[str, Optional[np.ndarray]]:
    """Run ``case`` on every backend under ``strategy``; record raises and
    bitwise disagreements.  Returns the name and output the oracles judge
    (``reference`` when present), or ``None`` if every backend raised."""
    outputs: Dict[str, np.ndarray] = {}
    for name, backend in backends.items():
        try:
            outputs[name] = np.asarray(
                _execute_case(case, kernel, backend, data, strategy)
            )
        except Exception as exc:
            result.failures.append(
                f"[{strategy}] backend {name!r} raised {type(exc).__name__}: {exc}"
            )
    if not outputs:
        return "", None

    # Backends must agree bit for bit (the PR 2 contract).
    base_name = "reference" if "reference" in outputs else sorted(outputs)[0]
    base = outputs[base_name]
    for name, out in outputs.items():
        if name == base_name:
            continue
        if out.shape != base.shape:
            result.failures.append(
                f"[{strategy}] backend {name!r} shape {out.shape} != "
                f"{base_name!r} shape {base.shape}"
            )
        elif not np.array_equal(out, base):
            result.failures.append(
                f"[{strategy}] backend {name!r} differs from {base_name!r} "
                f"bitwise (max ulp {max_ulp(out, base):.3g})"
            )
    return base_name, base


# ---------------------------------------------------------------------------
# shrinking


def _min_extent(case: Case, depth: int, radius: int) -> int:
    return depth * radius if case.boundary == "periodic" else 1


def _shrink_candidates(case: Case) -> Iterator[Case]:
    """Simpler variants of ``case``, most aggressive first."""
    replace = dataclasses.replace
    if case.steps > 1:
        yield replace(case, steps=1)
        yield replace(case, steps=case.steps // 2)
        yield replace(case, steps=case.steps - 1)
    if case.fusion != 1:
        yield replace(case, fusion=1)
    if case.batch is not None and case.batch > 1:
        yield replace(case, batch=1)
        yield replace(case, batch=max(1, case.batch // 2))
    if case.layout != "array":
        simpler = {
            "grid": "array",
            "batch-grid-list": "batch-list",
            "batch-grid": "batch-array",
            "batch-list": "batch-array",
            "batch-array": "array",
        }[case.layout]
        if simpler == "array" and case.layout == "batch-array":
            if case.batch == 1:
                yield replace(case, layout="array", batch=None)
        else:
            yield replace(case, layout=simpler)
    if case.boundary != "constant":
        yield replace(case, boundary="constant")
    if case.fill_value != 0.0:
        yield replace(case, fill_value=0.0)
    try:
        depth = case.fusion_depth()
        radius = case.resolve_kernel().radius
    except Exception:
        depth, radius = 1, 1
    floor = _min_extent(case, depth, radius)
    for axis, extent in enumerate(case.shape):
        for smaller in (max(floor, extent // 2), extent - 1):
            if floor <= smaller < extent:
                shape = list(case.shape)
                shape[axis] = smaller
                yield replace(case, shape=tuple(shape))
    spec = case.kernel
    if spec["kind"] != "catalog" and spec["radius"] > 1:
        yield replace(case, kernel={**spec, "radius": spec["radius"] - 1})


def shrink(
    case: Case,
    predicate: Callable[[Case], bool],
    max_attempts: int = _SHRINK_MAX_ATTEMPTS,
) -> Case:
    """Greedily minimise a failing case while ``predicate`` keeps failing.

    ``predicate(candidate)`` returns ``True`` when the candidate still
    exhibits the failure.  The result is a local minimum: no single
    shrinking move keeps it failing.
    """
    current = case
    attempts = 0
    improved = True
    while improved and attempts < max_attempts:
        improved = False
        for candidate in _shrink_candidates(current):
            attempts += 1
            if attempts > max_attempts:
                break
            try:
                still_failing = bool(predicate(candidate))
            except Exception:
                still_failing = True  # failing by crashing still reproduces
            if still_failing:
                current = candidate
                improved = True
                break
    return current


# ---------------------------------------------------------------------------
# mutation smoke-check


def mutation_check(
    kernel_name: str = "heat-2d",
    shape: Tuple[int, int] = (24, 25),
    seed: int = 0,
    tight_ulp: float = DEFAULT_TIGHT_ULP,
) -> bool:
    """Prove the harness catches an injected stencil2row LUT off-by-one.

    Builds an honest plan, copies its gather-offset LUT with one entry
    shifted by one column, and checks (a) the honest plan passes the
    mirror-oracle comparison and (b) the mutated plan fails it.  Returns
    ``True`` only if both hold — a harness that cannot see a planted
    off-by-one has no business judging the real engines.
    """
    from repro.runtime.backends import SerialBackend
    from repro.stencils.grid import pad_halo

    kernel = get_kernel(kernel_name)
    plan = build_plan(kernel, shape, strategy="gemm")
    pp = plan.fused_pass
    mutated = np.array(pp.offsets)  # a copy of the LUT...
    mutated[0, 0] += 1  # ...with a deliberate off-by-one gather
    bad_pp = dataclasses.replace(pp, offsets=mutated)

    x = default_rng(seed).random(shape)
    padded = pad_halo(x, pp.halo)
    backend = SerialBackend()
    honest = backend.apply_pass(pp, padded)
    mutant = backend.apply_pass(bad_pp, padded)
    oracle = apply_stencil_reference(x, kernel)

    honest_ok = max_ulp(honest, oracle) <= tight_ulp
    mutant_flagged = (
        max_ulp(mutant, oracle) > tight_ulp and not np.array_equal(mutant, honest)
    )
    return honest_ok and mutant_flagged


# ---------------------------------------------------------------------------
# the harness entry point


@dataclass
class VerifyReport:
    """Aggregated outcome of one verification sweep (JSON-serialisable)."""

    seed: int
    cases: int
    backends: List[str]
    failures: List[dict] = field(default_factory=list)
    ulp_max: float = 0.0
    ulp_unfused_max: float = 0.0
    mutation_caught: Optional[bool] = None
    #: Worst mirror-oracle drift per execution strategy.
    ulp_max_by_strategy: Dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(STRATEGIES, 0.0)
    )

    @property
    def ok(self) -> bool:
        return not self.failures and self.mutation_caught is not False

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "cases": self.cases,
            "backends": list(self.backends),
            "failures": list(self.failures),
            "ulp_max": self.ulp_max,
            "ulp_unfused_max": self.ulp_unfused_max,
            "ulp_max_by_strategy": dict(self.ulp_max_by_strategy),
            "mutation_caught": self.mutation_caught,
            "ok": self.ok,
        }

    def write(self, path: str) -> str:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path

    def summary_lines(self) -> List[str]:
        lines = [
            f"VERIFY: {self.cases} cases x backends "
            f"[{', '.join(self.backends)}] x strategies "
            f"[{', '.join(self.ulp_max_by_strategy)}], seed {self.seed}",
            f"  max ULP vs mirror oracle:  {self.ulp_max:.3g} ("
            + ", ".join(f"{k} {v:.3g}" for k, v in self.ulp_max_by_strategy.items())
            + ")",
        ]
        if self.ulp_unfused_max:
            lines.append(
                f"  max ULP vs unfused loop:   {self.ulp_unfused_max:.3g}"
            )
        if self.mutation_caught is not None:
            lines.append(
                "  mutation smoke-check:      "
                + ("caught" if self.mutation_caught else "MISSED")
            )
        if self.failures:
            lines.append(f"  FAILURES: {len(self.failures)}")
            for failure in self.failures:
                lines.append(f"    - {failure['errors'][0]}")
                lines.append(f"      minimal repro: {failure['minimal']}")
        else:
            lines.append("  result: OK")
        return lines


def run_verification(
    seed: int = 0,
    cases: int = 25,
    backends: Optional[Sequence[str]] = None,
    quick: bool = False,
    tight_ulp: Optional[float] = None,
    loose_ulp: Optional[float] = None,
    mutation: bool = True,
    shrink_failures: bool = True,
) -> VerifyReport:
    """Run the differential sweep and return a :class:`VerifyReport`.

    ``quick`` shrinks the generated extents (CI smoke).  ``backends``
    defaults to every registered backend; ``tiled`` gets its own instance
    with a two-row floor so the small verify grids genuinely split.
    Failing cases are shrunk to minimal repro dicts unless
    ``shrink_failures`` is disabled.
    """
    from repro.runtime import TiledBackend, get_backend, list_backends

    tight = DEFAULT_TIGHT_ULP if tight_ulp is None else float(tight_ulp)
    loose = DEFAULT_LOOSE_ULP if loose_ulp is None else float(loose_ulp)
    resolved = {
        name: TiledBackend(workers=2, min_rows_per_tile=2)
        if name == "tiled"
        else get_backend(name)
        for name in (backends or list_backends())
    }
    report = VerifyReport(seed=seed, cases=cases, backends=sorted(resolved))
    with telemetry.span(
        "verify.run", seed=seed, cases=cases, backends=tuple(sorted(resolved))
    ):
        for case in generate_cases(seed, cases, quick=quick):
            telemetry.counter("verify.cases").inc()
            result = run_case(case, resolved, tight, loose)
            report.ulp_max = max(report.ulp_max, result.ulp_mirror)
            for strategy, ulp in result.ulp_by_strategy.items():
                report.ulp_max_by_strategy[strategy] = max(
                    report.ulp_max_by_strategy[strategy], ulp
                )
            if result.ulp_unfused is not None:
                report.ulp_unfused_max = max(
                    report.ulp_unfused_max, result.ulp_unfused
                )
            if result.ok:
                continue
            telemetry.counter("verify.failures").inc()
            minimal = case
            if shrink_failures:
                minimal = shrink(
                    case,
                    lambda c: not run_case(c, resolved, tight, loose).ok,
                )
            report.failures.append(
                {
                    "case": case.to_dict(),
                    "minimal": minimal.to_dict(),
                    "errors": list(result.failures),
                }
            )
        if mutation:
            report.mutation_caught = mutation_check(tight_ulp=tight)
            if not report.mutation_caught:
                telemetry.counter("verify.failures").inc()
        telemetry.gauge("verify.ulp_max").set(report.ulp_max)
    return report
