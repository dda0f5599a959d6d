"""Layer 3 — concurrency discipline rules (RPR102–RPR103).

The runtime holds a small family of locks (backend registry,
plan-cache global lock, per-key build locks).  PR 3's cache fix — moving
plan builds *outside* the global cache lock — is exactly the regression
class RPR103 pins down statically.  These rules scan every checked file, so a fixture
dropped anywhere under a checked path is caught too:

========  ==================================================================
RPR102    locks are acquired via ``with`` only (never ``.acquire()``),
          and nested acquisitions follow the declared order in
          :data:`LOCK_ORDER`.
RPR103    no blocking call (``.result()``, ``.join()``, ``.wait()``,
          ``.shutdown()``, ``.sleep()``, ``.acquire()``, or invoking a
          caller-supplied callable) while holding the PlanCache global
          lock.
========  ==================================================================
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set, Tuple

from repro.staticcheck.engine import ModuleSource, rule
from repro.staticcheck.finding import Finding

#: ``lock_name``/``terminal_name`` are shared with the layer-5 asyncio
#: rules (:mod:`.rules_async`), which hunt the same lock-shaped ``with``
#: items from a coroutine's point of view.
__all__ = ["LOCK_ORDER", "BLOCKING_ATTRS", "lock_name", "terminal_name"]

#: Declared lock acquisition order, outermost-first.  A ``with`` on a lock
#: later in this tuple may nest inside one earlier in it, never the
#: reverse.  Per-key build locks deliberately rank *before* the cache
#: global ``_lock``: the PR 3 cache fix holds ``build_lock`` around a
#: short ``_lock`` critical section, not the other way around.
LOCK_ORDER: Tuple[str, ...] = (
    "_registry_lock",
    "_global_lock",
    "build_lock",
    "_lock",
)

#: Attribute calls treated as blocking while a lock is held.
BLOCKING_ATTRS: Set[str] = {
    "result", "join", "wait", "acquire", "shutdown", "sleep", "recv",
}

#: Terminal lock names treated as "the PlanCache global lock" for RPR103.
_GLOBAL_LOCK_NAMES = ("_lock", "_global_lock")


def _terminal_name(node: ast.AST) -> str:
    """Rightmost identifier of a Name/Attribute expression, else ``""``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _lock_name(item: ast.withitem) -> str:
    """Lock identifier a ``with`` item acquires, or ``""`` if not a lock."""
    name = _terminal_name(item.context_expr)
    return name if "lock" in name.lower() else ""


# Public aliases for cross-layer reuse (see __all__).
terminal_name = _terminal_name
lock_name = _lock_name


# ---------------------------------------------------------------------------
# RPR102 — lock acquisition discipline


@rule(
    "RPR102",
    "error",
    "lock acquired outside `with`, or nested out of the declared order",
)
def check_lock_discipline(module: ModuleSource) -> Iterator[Finding]:
    """Flag explicit ``.acquire()`` calls and ``with``-nested lock pairs
    that invert :data:`LOCK_ORDER`."""
    rank = {name: i for i, name in enumerate(LOCK_ORDER)}
    for node in ast.walk(module.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "acquire"
        ):
            yield module.finding(
                "RPR102",
                "error",
                node,
                f"explicit {_terminal_name(node.func.value) or 'lock'}"
                ".acquire() — an exception between acquire and release "
                "deadlocks every later caller",
                fix_hint="acquire locks with a `with` block only",
            )
            continue
        if not isinstance(node, (ast.With, ast.AsyncWith)):
            continue
        inner_names = [n for n in map(_lock_name, node.items) if n]
        if not inner_names:
            continue
        # Walk outward over enclosing with-blocks for ordering violations.
        outer = getattr(node, "_sc_parent", None)
        while outer is not None:
            if isinstance(outer, (ast.With, ast.AsyncWith)):
                for outer_name in filter(None, map(_lock_name, outer.items)):
                    for inner_name in inner_names:
                        if (
                            outer_name in rank
                            and inner_name in rank
                            and rank[inner_name] <= rank[outer_name]
                        ):
                            yield module.finding(
                                "RPR102",
                                "error",
                                node,
                                f"lock {inner_name!r} acquired while holding "
                                f"{outer_name!r} — inverts the declared order "
                                f"{LOCK_ORDER}",
                                fix_hint=(
                                    "restructure so locks nest in LOCK_ORDER, "
                                    "or release the outer lock first"
                                ),
                            )
            if isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                break  # lock scopes do not cross function boundaries
            outer = getattr(outer, "_sc_parent", None)


# ---------------------------------------------------------------------------
# RPR103 — blocking under the global lock


def _param_names(fn: Optional[ast.AST]) -> Set[str]:
    if fn is None:
        return set()
    args = fn.args
    names = {
        a.arg
        for a in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        )
    }
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    return names


@rule(
    "RPR103",
    "error",
    "blocking call while holding the PlanCache global lock",
)
def check_blocking_under_global_lock(module: ModuleSource) -> Iterator[Finding]:
    """Flag blocking calls inside ``with ...._lock:`` bodies — the exact
    regression class the PR 3 plan-cache fix removed (plan builds now run
    under a per-key build lock, never the global one)."""
    for node in ast.walk(module.tree):
        if not isinstance(node, (ast.With, ast.AsyncWith)):
            continue
        held = [
            n
            for n in map(_lock_name, node.items)
            if n in _GLOBAL_LOCK_NAMES or "global" in n.lower()
        ]
        if not held:
            continue
        callables = _param_names(module.enclosing_function(node))
        for stmt in node.body:
            for sub in ast.walk(stmt):
                if not isinstance(sub, ast.Call):
                    continue
                blocking = ""
                if (
                    isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in BLOCKING_ATTRS
                ):
                    blocking = f".{sub.func.attr}()"
                elif isinstance(sub.func, ast.Name) and sub.func.id in callables:
                    blocking = f"caller-supplied {sub.func.id}()"
                if blocking:
                    yield module.finding(
                        "RPR103",
                        "error",
                        sub,
                        f"{blocking} while holding {held[0]!r} — every "
                        "unrelated lookup stalls behind this call",
                        fix_hint=(
                            "move the blocking work outside the global lock "
                            "(per-key build locks; see runtime/cache.py)"
                        ),
                    )
