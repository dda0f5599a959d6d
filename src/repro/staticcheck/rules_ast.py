"""Layer 1 — AST determinism & robustness rules (RPR002, RPR004, RPR006).

Every rule here flags a *bit-stability or robustness hazard that is fully
visible in the source text*, so the hazard class is rejected at lint time
instead of under a differential harness at run time:

========  ==================================================================
RPR002    GEMMs (``@`` / ``np.dot`` / ``np.matmul``) in engine hot paths
          whose enclosing function manipulates batch/tile/chunk extents,
          without the ``# staticcheck: gemm-shape-pinned`` marker
          acknowledging the GEMM's shape is invariant under those knobs.
RPR004    Nondeterminism sources: unseeded ``np.random.default_rng()``,
          the legacy ``np.random.*`` global-state API, the ``random``
          module, and wall-clock ``time.*`` reads in library code.
RPR006    Bare ``except:`` (and broad ``except Exception: pass``) —
          swallowed failures in runtime workers turn crashes into silent
          wrong answers.
========  ==================================================================

Suppress an intentional exemption inline with ``# staticcheck:
disable=RPR00x`` (see :mod:`repro.staticcheck.engine`).
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.staticcheck.engine import GEMM_PINNED_MARK, ModuleSource, rule
from repro.staticcheck.finding import Finding

__all__ = ["HOT_PATH_TOKENS"]

#: File-stem tokens marking engine hot-path modules for RPR002 (the
#: dual-tessellation engines and simulator, im2row, the banded-Toeplitz pass).
HOT_PATH_TOKENS = ("engine", "simulated", "im2row", "toeplitz")

#: ``time`` module calls that read wall/CPU clocks.
_CLOCK_CALLS = {
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns", "process_time", "process_time_ns",
}

#: ``np.random`` attributes that are *not* the legacy global-state API.
_NP_RANDOM_OK = {"default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64"}

#: Functions of the stdlib ``random`` module (global Mersenne state).
_RANDOM_MODULE_FNS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "seed", "uniform", "gauss", "normalvariate", "betavariate",
    "expovariate", "triangular", "vonmisesvariate", "getrandbits",
}


def _dotted(node: ast.AST) -> str:
    """Dotted name of an expression (``np.random.default_rng``), else ``""``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _imports_from(module: ModuleSource, source: str) -> Set[str]:
    """Names the module imports from ``source`` (``from source import x``)."""
    names: Set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ImportFrom) and node.module == source:
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def _imports_module(module: ModuleSource, name: str) -> bool:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            if any(alias.name == name for alias in node.names):
                return True
    return False


# ---------------------------------------------------------------------------
# RPR002 — unpinned GEMMs in hot paths


def _is_matmul(node: ast.AST) -> bool:
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
        return True
    if isinstance(node, ast.Call):
        name = _dotted(node.func)
        short = name.rsplit(".", 1)[-1]
        return short in ("dot", "matmul") and (
            "." in name or short == "matmul"
        )
    return False


def _scope_names(fn: ast.AST) -> Set[str]:
    """Parameter and assigned-target names of a function body."""
    names: Set[str] = set()
    args = fn.args
    for a in (
        list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        + ([args.vararg] if args.vararg else [])
        + ([args.kwarg] if args.kwarg else [])
    ):
        names.add(a.arg)
    for node in ast.walk(fn):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                for sub in ast.walk(t):
                    if isinstance(sub, ast.Name):
                        names.add(sub.id)
        elif isinstance(node, (ast.For, ast.comprehension)):
            target = node.target
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
    return names


@rule(
    "RPR002",
    "warning",
    "GEMM in an engine hot path near batch/tile/chunk extents without a "
    "pinned-shape marker",
)
def check_unpinned_gemm(module: ModuleSource) -> Iterator[Finding]:
    """Flag matmuls in hot-path modules whose function juggles batch/tile
    extents and carries no ``gemm-shape-pinned`` marker."""
    stem = module.path.rsplit("/", 1)[-1]
    if not any(token in stem for token in HOT_PATH_TOKENS):
        return
    for node in ast.walk(module.tree):
        if not _is_matmul(node):
            continue
        fn = module.enclosing_function(node)
        if fn is None:
            continue
        local = _scope_names(fn)
        knobs = sorted(
            n for n in local
            if any(t in n.lower() for t in ("batch", "tile", "chunk"))
        )
        if not knobs:
            continue
        if module.has_marker(GEMM_PINNED_MARK, node):
            continue
        yield module.finding(
            "RPR002",
            "warning",
            node,
            f"GEMM in hot path {fn.name}() with batch/tile-derived locals "
            f"({', '.join(knobs[:4])}) and no pinned-shape marker — operand "
            "shapes that track those knobs make bits depend on them",
            fix_hint=(
                "verify each GEMM's shape is invariant under batch/tile/chunk "
                f"and add '# {GEMM_PINNED_MARK}' inside the function"
            ),
        )


# ---------------------------------------------------------------------------
# RPR004 — nondeterminism sources


@rule(
    "RPR004",
    "error",
    "unseeded / global-state RNG or wall-clock reads in library code",
)
def check_nondeterminism(module: ModuleSource) -> Iterator[Finding]:
    """Flag unseeded ``default_rng()``, legacy ``np.random.*`` calls, the
    stdlib ``random`` module, and ``time.*`` clock reads."""
    numpy_rng_aliases = _imports_from(module, "numpy.random")
    has_random_import = _imports_module(module, "random")
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _dotted(node.func)
        if not name:
            continue
        short = name.rsplit(".", 1)[-1]
        base = name.split(".", 1)[0]

        unseeded_rng = (
            name.endswith("random.default_rng")
            or (name == "default_rng" and "default_rng" in numpy_rng_aliases)
        ) and not node.args and not node.keywords
        if unseeded_rng:
            yield module.finding(
                "RPR004",
                "error",
                node,
                "np.random.default_rng() without a seed draws OS entropy — "
                "every run computes different bits",
                fix_hint="thread an explicit seed through (see repro.utils.rng)",
            )
            continue
        if (
            (".random." in name or name.startswith("random."))
            and base in ("np", "numpy")
            and short not in _NP_RANDOM_OK
        ):
            yield module.finding(
                "RPR004",
                "error",
                node,
                f"legacy global-state RNG call {name}() — hidden mutable "
                "state shared across the whole process",
                fix_hint="use np.random.default_rng(seed) / repro.utils.rng",
            )
            continue
        if base == "random" and short in _RANDOM_MODULE_FNS and has_random_import:
            yield module.finding(
                "RPR004",
                "error",
                node,
                f"stdlib random.{short}() uses process-global Mersenne state",
                fix_hint="use a seeded np.random.Generator instead",
            )
            continue
        if base == "time" and short in _CLOCK_CALLS:
            yield module.finding(
                "RPR004",
                "warning",
                node,
                f"wall-clock read time.{short}() in library code — results "
                "or control flow may vary run to run",
                fix_hint=(
                    "keep clock reads inside telemetry/benchmark code and "
                    "suppress intentional uses inline"
                ),
            )


# ---------------------------------------------------------------------------
# RPR006 — swallowed exceptions


def _handler_swallows(handler: ast.ExceptHandler) -> bool:
    return all(isinstance(stmt, (ast.Pass, ast.Continue)) for stmt in handler.body)


@rule(
    "RPR006",
    "error",
    "bare except: / broad swallowed exceptions hide worker failures",
)
def check_swallowed_exceptions(module: ModuleSource) -> Iterator[Finding]:
    """Flag bare ``except:`` everywhere (error) and ``except Exception:``
    bodies that only ``pass`` (warning)."""
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            yield module.finding(
                "RPR006",
                "error",
                node,
                "bare except: catches SystemExit/KeyboardInterrupt and hides "
                "every failure mode",
                fix_hint="name the exception types the handler can really recover from",
            )
            continue
        type_name = _dotted(node.type)
        if type_name in ("Exception", "BaseException") and _handler_swallows(node):
            yield module.finding(
                "RPR006",
                "warning",
                node,
                f"except {type_name}: pass silently swallows any failure — "
                "a crashed worker becomes a silent wrong answer",
                fix_hint="log the exception or narrow the caught types",
            )
