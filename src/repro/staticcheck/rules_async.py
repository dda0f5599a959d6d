"""Layer 5 — asyncio concurrency rules for the serving stack (RPR301–305).

The serve layer (``repro.serve``) mixes one asyncio event loop with
per-plan single-thread executors and a handful of *sync* ``threading``
locks; the obs layer (``repro.obs``) polls runtimes from both sync and
async contexts.  That mix has four hazard shapes no generic linter pins
down, each of which stalls or silently breaks the event loop rather than
raising — exactly the failure mode static rules exist for:

========  ==================================================================
RPR301    ``await`` while holding a *sync* lock: the coroutine parks with
          the lock held, and the next waiter blocks the entire event
          loop's thread — cross-task deadlock, not slowdown.
RPR302    blocking call (``time.sleep``, ``open``,
          ``subprocess``, ``urlopen``, ``os.system``) inside ``async
          def``: freezes every coroutine sharing the loop for the call's
          full duration.
RPR303    fire-and-forget ``create_task``/``ensure_future`` as a bare
          expression statement: the task is neither kept nor given a
          done-callback, so it can be garbage-collected mid-flight and
          its exceptions vanish.
RPR304    executor submission (``run_in_executor``, ``<pool>.submit``)
          while holding a sync lock: the service lock serialises lane
          dispatch, and a slow lane wedges every other tenant behind it.
RPR305    task/executor hand-off in ``repro.serve`` that drops the
          ambient trace context: ``create_task`` copies contextvars but
          ``run_in_executor``/``submit`` do not, so a hand-off with no
          ``copy_context`` call and no documented-propagation marker
          silently detaches every downstream span from its request.
========  ==================================================================

RPR301–304 scan every checked file; RPR305 applies only to the serve
tree, where the per-request stage spans make propagation a
correctness property (a dropped context orphans the request's
``execute``/worker spans).  All are tuned to the idioms the serve layer
actually uses (``with self._intern_lock`` in sync helpers is fine,
``_spawn``'s assigned-and-callback'd ``create_task`` is fine, hand-offs
annotated ``# staticcheck: trace-context-propagated`` pass RPR305).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Optional, Set, Tuple

from repro.staticcheck.engine import ModuleSource, rule
from repro.staticcheck.finding import Finding
from repro.staticcheck.rules_concurrency import lock_name, terminal_name

__all__ = [
    "ASYNC_BLOCKING_CALLS",
    "EXECUTOR_RECEIVER_HINTS",
    "TRACE_CONTEXT_MARK",
]

#: In-function marker documenting that a task/executor hand-off carries
#: the ambient trace context (natively, or re-entered on the far side).
TRACE_CONTEXT_MARK = "staticcheck: trace-context-propagated"

#: ``(receiver, attr)`` attribute calls treated as blocking inside
#: ``async def``.  ``receiver`` of ``""`` means a bare-name call.
ASYNC_BLOCKING_CALLS: Set[Tuple[str, str]] = {
    ("time", "sleep"),
    ("os", "system"),
    ("subprocess", "run"),
    ("subprocess", "call"),
    ("subprocess", "check_call"),
    ("subprocess", "check_output"),
    ("subprocess", "Popen"),
    ("", "open"),
    ("", "urlopen"),
}

#: Substrings of a receiver name that mark ``.submit()`` as an executor
#: submission for RPR304 (``self._lane.pool.submit``, ``executor.submit``).
EXECUTOR_RECEIVER_HINTS: Tuple[str, ...] = ("executor", "pool", "lane")


def _nearest_function(node: ast.AST) -> Optional[ast.AST]:
    current = getattr(node, "_sc_parent", None)
    while current is not None:
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return current
        current = getattr(current, "_sc_parent", None)
    return None


def _sync_locks_held(node: ast.AST) -> List[Tuple[ast.With, str]]:
    """Sync ``with <lock>`` blocks enclosing ``node`` inside its function.

    ``async with`` items are excluded: an asyncio lock is exactly the
    tool that makes awaiting while "held" safe.
    """
    held: List[Tuple[ast.With, str]] = []
    current = getattr(node, "_sc_parent", None)
    while current is not None:
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            break
        if isinstance(current, ast.With):
            for item in current.items:
                name = lock_name(item)
                if name:
                    held.append((current, name))
        current = getattr(current, "_sc_parent", None)
    return held


def _blocking_label(call: ast.Call) -> str:
    """Human label when ``call`` is in :data:`ASYNC_BLOCKING_CALLS`."""
    func = call.func
    if isinstance(func, ast.Attribute):
        receiver = terminal_name(func.value)
        if (receiver, func.attr) in ASYNC_BLOCKING_CALLS:
            return f"{receiver}.{func.attr}()"
    elif isinstance(func, ast.Name):
        if ("", func.id) in ASYNC_BLOCKING_CALLS:
            return f"{func.id}()"
    return ""


# ---------------------------------------------------------------------------
# RPR301 — await while holding a sync lock


@rule(
    "RPR301",
    "error",
    "await while holding a sync (threading) lock",
)
def check_await_under_sync_lock(module: ModuleSource) -> Iterator[Finding]:
    """Flag ``await`` expressions lexically inside a sync ``with <lock>``
    block: the parked coroutine keeps the lock, and any thread (or the
    loop itself) contending for it blocks — a cross-task deadlock."""
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Await):
            continue
        for _with, lock in _sync_locks_held(node):
            yield module.finding(
                "RPR301",
                "error",
                node,
                f"await while holding sync lock {lock!r} — the coroutine "
                "parks with the lock held and every contender blocks the "
                "event-loop thread",
                fix_hint=(
                    "hold sync locks only across straight-line sync code; "
                    "use asyncio.Lock (async with) around awaits"
                ),
            )


# ---------------------------------------------------------------------------
# RPR302 — blocking call inside async def


@rule(
    "RPR302",
    "error",
    "blocking call inside an async function",
)
def check_blocking_in_async(module: ModuleSource) -> Iterator[Finding]:
    """Flag ``time.sleep``/file/subprocess calls whose
    nearest enclosing function is ``async def`` — they freeze every
    coroutine sharing the loop."""
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        label = _blocking_label(node)
        if not label:
            continue
        fn = _nearest_function(node)
        if not isinstance(fn, ast.AsyncFunctionDef):
            continue
        yield module.finding(
            "RPR302",
            "error",
            node,
            f"blocking {label} inside async def {fn.name} — the whole "
            "event loop stalls for its duration",
            fix_hint=(
                "await an async equivalent (asyncio.sleep, loop."
                "run_in_executor) or move the call to a worker thread"
            ),
        )


# ---------------------------------------------------------------------------
# RPR303 — fire-and-forget create_task


@rule(
    "RPR303",
    "error",
    "fire-and-forget create_task without exception handling",
)
def check_fire_and_forget_task(module: ModuleSource) -> Iterator[Finding]:
    """Flag bare ``create_task(...)``/``ensure_future(...)`` expression
    statements: the loop keeps only a weak reference, so the task can be
    collected mid-flight, and nothing ever observes its exception.
    Assigning the task (or chaining ``.add_done_callback``) passes."""
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Expr):
            continue
        value = node.value
        if isinstance(value, ast.Await):
            continue
        if not isinstance(value, ast.Call):
            continue
        name = terminal_name(value.func)
        if name not in ("create_task", "ensure_future"):
            continue
        yield module.finding(
            "RPR303",
            "error",
            node,
            f"fire-and-forget {name}(...) — the task is neither retained "
            "nor given a done-callback, so it may be garbage-collected "
            "mid-flight and its exception is silently dropped",
            fix_hint=(
                "keep a strong reference and add_done_callback that "
                "retrieves the exception (see StencilService._spawn)"
            ),
        )


# ---------------------------------------------------------------------------
# RPR304 — executor submission under the service lock


@rule(
    "RPR304",
    "error",
    "executor submission while holding a sync lock",
)
def check_executor_under_lock(module: ModuleSource) -> Iterator[Finding]:
    """Flag ``run_in_executor``/``<pool>.submit`` inside a sync ``with
    <lock>`` block: the lock serialises dispatch across lanes, so one
    slow tenant wedges every other behind the service lock."""
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        label = ""
        if isinstance(node.func, ast.Attribute):
            if node.func.attr == "run_in_executor":
                label = "run_in_executor(...)"
            elif node.func.attr == "submit":
                receiver = terminal_name(node.func.value).lower()
                if any(h in receiver for h in EXECUTOR_RECEIVER_HINTS):
                    label = f"{receiver}.submit(...)"
        if not label:
            continue
        for _with, lock in _sync_locks_held(node):
            yield module.finding(
                "RPR304",
                "error",
                node,
                f"{label} while holding sync lock {lock!r} — cross-lane "
                "dispatch serialises behind it and one slow lane wedges "
                "every tenant",
                fix_hint=(
                    "snapshot state under the lock, release it, then "
                    "submit (see StencilService._flush)"
                ),
            )


# ---------------------------------------------------------------------------
# RPR305 — task/executor hand-off dropping the ambient trace context


def _handoff_label(call: ast.Call) -> str:
    """Label for a task-spawn or executor-submission call, else ``""``."""
    name = terminal_name(call.func)
    if name in ("create_task", "ensure_future"):
        return f"{name}(...)"
    if isinstance(call.func, ast.Attribute):
        if call.func.attr == "run_in_executor":
            return "run_in_executor(...)"
        if call.func.attr == "submit":
            receiver = terminal_name(call.func.value).lower()
            if any(h in receiver for h in EXECUTOR_RECEIVER_HINTS):
                return f"{receiver}.submit(...)"
    return ""


@rule(
    "RPR305",
    "error",
    "serve-layer task/executor hand-off drops the ambient trace context",
)
def check_trace_context_handoff(module: ModuleSource) -> Iterator[Finding]:
    """Flag serve-tree ``create_task``/``ensure_future``/
    ``run_in_executor``/``<pool>.submit`` calls whose enclosing function
    neither calls ``contextvars.copy_context`` nor carries the
    :data:`TRACE_CONTEXT_MARK` annotation.

    The serve layer's request spans ride a contextvar
    (:func:`repro.telemetry.current_trace`); ``create_task`` copies the
    context natively but ``run_in_executor``/``submit`` do not, and
    either way the propagation decision must be *visible* at the
    hand-off site — natively-propagating sites document it with the
    marker instead of suppressing the rule.
    """
    if "serve" not in Path(module.path).parts:
        return
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        label = _handoff_label(node)
        if not label:
            continue
        if module.has_marker("copy_context", node):
            continue
        if module.has_marker(TRACE_CONTEXT_MARK, node):
            continue
        yield module.finding(
            "RPR305",
            "error",
            node,
            f"{label} hands work off without trace-context propagation — "
            "the spawned task/thread loses the ambient trace_id and every "
            "span it records is orphaned from its request",
            fix_hint=(
                "run the callee under contextvars.copy_context() or "
                "re-enter the trace (telemetry.trace_scope) on the far "
                f"side, then annotate the site with '# {TRACE_CONTEXT_MARK}'"
            ),
        )
