"""The staticcheck driver: file walking, parsing, suppression, rule dispatch.

The engine owns everything rule implementations should not re-implement:

* locating and parsing the Python files under the checked paths, or the
  in-memory sources of generated kernels, through one per-module loop (a
  module that fails to parse is itself a finding, ``RPR000``);
* the inline suppression syntax — a trailing ``# staticcheck:
  disable=RPR004`` silences the listed rules on that line only;
* the rule registry (:func:`rule`, :func:`all_rules`) that
  :mod:`repro.staticcheck.rules_ast`,
  :mod:`repro.staticcheck.rules_concurrency` and
  :mod:`repro.staticcheck.rules_async` populate;
* aggregation into a :class:`LintResult`, including the plan-invariant
  layer (:mod:`repro.staticcheck.plan_invariants`) and the generated-kernel
  prover (:mod:`repro.staticcheck.symexec`) run over the kernel catalog.

Telemetry: from the ``metrics`` level up every run adds to the obs
counters ``staticcheck.files`` / ``staticcheck.findings`` and (via the
plan layer) ``staticcheck.plans_checked``, inside a ``staticcheck.lint`` span whose
attributes mirror the counters — ``repro report TRACE`` surfaces them.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set

from repro import obs, telemetry
from repro.staticcheck.finding import Finding, sort_findings, source_snippet

__all__ = [
    "GEMM_PINNED_MARK",
    "LintResult",
    "ModuleSource",
    "Rule",
    "STATICCHECK_ENV",
    "all_rules",
    "default_paths",
    "lint_paths",
    "lint_sources",
    "run_lint",
    "rule",
    "staticcheck_enabled",
]

#: Environment variable enabling plan checks on every PlanCache insert.
STATICCHECK_ENV = "REPRO_STATICCHECK"


def staticcheck_enabled(env: Optional[Dict[str, str]] = None) -> bool:
    """Whether the ``REPRO_STATICCHECK`` opt-in gate is on.

    The single parser of that variable — the plan-cache gate, the
    compiled-kernel gate, and the CLI all route through here so they
    cannot drift on accepted spellings (``1``/``true``/``on``, any case).
    """
    source = os.environ if env is None else env
    return str(source.get(STATICCHECK_ENV, "")).strip().lower() in (
        "1",
        "true",
        "on",
    )

_SUPPRESS_RE = re.compile(r"#\s*staticcheck:\s*disable\s*=\s*(?P<rules>[A-Za-z0-9_,\s]+)")

#: Marker acknowledging that a GEMM's operand shapes are pinned (RPR002).
GEMM_PINNED_MARK = "staticcheck: gemm-shape-pinned"


@dataclass(frozen=True)
class Rule:
    """One registered static rule: metadata plus its check callable."""

    rule_id: str
    severity: str
    summary: str
    check: Callable[["ModuleSource"], Iterator[Finding]]


_RULES: Dict[str, Rule] = {}


def rule(rule_id: str, severity: str, summary: str):
    """Decorator registering a module-level check under ``rule_id``.

    The decorated callable receives a :class:`ModuleSource` and yields raw
    :class:`Finding` objects; the engine applies suppression filtering.
    """

    def wrap(fn: Callable[["ModuleSource"], Iterator[Finding]]) -> Rule:
        entry = Rule(rule_id=rule_id, severity=severity, summary=summary, check=fn)
        _RULES[rule_id] = entry
        return entry

    return wrap


def all_rules() -> Dict[str, Rule]:
    """Registered rules by id (imports the rule modules on first use)."""
    # Importing here (not at module top) avoids a cycle: rule modules
    # import this module for the @rule decorator.
    from repro.staticcheck import (  # noqa: F401
        rules_ast,
        rules_async,
        rules_concurrency,
    )

    return dict(_RULES)


class ModuleSource:
    """A parsed module plus everything rules need to inspect it cheaply.

    Attributes
    ----------
    path:
        Display path (repo-relative where possible) used in findings.
    text / lines / tree:
        Raw source, split lines, and the parsed AST (with parent links
        attached as ``node._sc_parent``).
    """

    def __init__(self, path: str, text: str, tree: ast.Module) -> None:
        self.path = path
        self.text = text
        self.lines = text.splitlines()
        self.tree = tree
        self._line_suppressed: Dict[int, Set[str]] = {}
        self._scan_suppressions()
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                child._sc_parent = node  # type: ignore[attr-defined]

    # -- construction ------------------------------------------------------

    @classmethod
    def parse(cls, path: str, text: str) -> "ModuleSource":
        """Parse ``text`` into a ModuleSource displayed as ``path``."""
        return cls(path, text, ast.parse(text, filename=path))

    def _scan_suppressions(self) -> None:
        for lineno, line in enumerate(self.lines, 1):
            m = _SUPPRESS_RE.search(line)
            if m:
                self._line_suppressed[lineno] = {
                    r.strip() for r in m.group("rules").split(",") if r.strip()
                }

    # -- queries -----------------------------------------------------------

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        """True when ``rule_id`` is silenced on ``line``."""
        return rule_id in self._line_suppressed.get(line, ())

    def has_marker(self, marker: str, node: ast.AST) -> bool:
        """True when ``marker`` appears inside the function enclosing ``node``
        (or anywhere in the module for top-level code)."""
        scope = self.enclosing_function(node)
        if scope is None:
            return marker in self.text
        start = scope.lineno - 1
        end = getattr(scope, "end_lineno", len(self.lines))
        return any(marker in line for line in self.lines[start:end])

    def enclosing_function(self, node: ast.AST) -> Optional[ast.AST]:
        """Nearest enclosing function/async-function node, if any."""
        current = getattr(node, "_sc_parent", None)
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return current
            current = getattr(current, "_sc_parent", None)
        return None

    def finding(
        self, rule_id: str, severity: str, node_or_line, message: str, fix_hint: str = ""
    ) -> Finding:
        """Build a :class:`Finding` anchored at an AST node or line number."""
        line = (
            node_or_line
            if isinstance(node_or_line, int)
            else getattr(node_or_line, "lineno", 0)
        )
        return Finding(
            rule_id=rule_id,
            severity=severity,
            file=self.path,
            line=int(line),
            message=message,
            fix_hint=fix_hint,
        )


@dataclass
class LintResult:
    """Aggregated outcome of one lint run across every layer."""

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    plans_checked: int = 0
    kernels_checked: int = 0

    @property
    def errors(self) -> List[Finding]:
        """Findings at ``error`` severity — these gate the exit code."""
        return [f for f in self.findings if f.severity == "error"]

    @property
    def ok(self) -> bool:
        """True when no finding has ``error`` severity."""
        return not self.errors

    def counts(self) -> Dict[str, int]:
        """Finding count per severity (always includes all severities)."""
        out = {"error": 0, "warning": 0, "info": 0}
        for f in self.findings:
            out[f.severity] = out.get(f.severity, 0) + 1
        return out

    def to_dict(self) -> dict:
        """JSON-serialisable payload (see :mod:`repro.staticcheck.report`)."""
        return {
            "ok": self.ok,
            "files_scanned": self.files_scanned,
            "plans_checked": self.plans_checked,
            "kernels_checked": self.kernels_checked,
            "counts": self.counts(),
            "findings": [f.to_dict() for f in sort_findings(self.findings)],
        }


def _iter_py_files(paths: Sequence[str]) -> Iterator[Path]:
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            yield from sorted(p.rglob("*.py"))
        elif p.suffix == ".py":
            yield p


def _display_path(p: Path) -> str:
    """Cwd-relative posix path when possible, else the path as given."""
    try:
        rel = p.resolve().relative_to(Path.cwd().resolve())
        return rel.as_posix()
    except ValueError:
        return p.as_posix()


def default_paths() -> List[str]:
    """The installed ``repro`` package directory — what ``repro lint`` scans."""
    import repro

    return [str(Path(repro.__file__).parent)]


def _lint_module(
    result: LintResult,
    rules: Sequence[Rule],
    name: str,
    read: Callable[[], str],
    origin: Optional[str] = None,
) -> None:
    """Parse → ``RPR000`` → every rule → line suppression, for one module.

    ``read`` returns the source (a file read may fail like a parse does).
    An ``origin`` marks detached generated source: its findings carry
    that provenance and a numbered snippet around the hit.
    """
    result.files_scanned += 1
    try:
        source = read()
        module = ModuleSource.parse(name, source)
    except (SyntaxError, UnicodeDecodeError, OSError) as exc:
        result.findings.append(
            Finding(
                rule_id="RPR000",
                severity="error",
                file=name,
                line=int(getattr(exc, "lineno", 0) or 0),
                message=f"does not parse: {type(exc).__name__}: "
                f"{getattr(exc, 'msg', exc)}",
                fix_hint="fix the syntax error; unparsed sources cannot be checked",
                origin=origin or "",
            )
        )
        return
    for entry in rules:
        for f in entry.check(module):
            if module.is_suppressed(f.rule_id, f.line):
                continue
            if origin is not None:
                f = f.with_context(origin, source_snippet(source, f.line))
            result.findings.append(f)


def lint_paths(paths: Sequence[str]) -> LintResult:
    """Run every registered AST rule over the Python files under ``paths``."""
    rules = list(all_rules().values())
    result = LintResult()
    for path in _iter_py_files(paths):
        _lint_module(result, rules, _display_path(path), path.read_text)
    result.findings = sort_findings(result.findings)
    return result


def lint_sources(sources, origins: Optional[Dict[str, str]] = None) -> LintResult:
    """Run every registered AST rule over in-memory ``{name: source}`` text.

    The generated-code hook: :mod:`repro.codegen.compiled` emits kernels
    that never touch disk, and this applies the same per-module loop as
    :func:`lint_paths` to their source strings.  ``sources`` is a mapping
    of display name → source text, or an iterable of ``(name, text)``
    pairs.

    Because the linted text is detached (no editor can open the finding's
    pseudo-path), every finding carries a numbered source snippet around
    the hit, and ``origins`` — a display-name → provenance mapping (plan
    key, kernel digest) — is attached as :attr:`Finding.origin`.
    """
    pairs = sources.items() if hasattr(sources, "items") else sources
    rules = list(all_rules().values())
    origins = origins or {}
    result = LintResult()
    for name, text in pairs:
        name = str(name)
        _lint_module(result, rules, name, lambda t=text: t, origins.get(name, ""))
    result.findings = sort_findings(result.findings)
    return result


def run_lint(
    paths: Optional[Sequence[str]] = None, include_plans: bool = True
) -> LintResult:
    """Run every staticcheck layer.

    ``paths`` defaults to the installed ``repro`` package.
    ``include_plans`` adds the plan-invariant layer over the kernel
    catalog and the generated-kernel prover (symbolic execution of every
    catalogued kernel's generated code).
    """
    with telemetry.span("staticcheck.lint") as sp:
        result = lint_paths(paths if paths else default_paths())
        if include_plans:
            from repro.staticcheck.plan_invariants import check_plan_catalog
            from repro.staticcheck.symexec import check_generated_catalog

            plan_findings, result.plans_checked = check_plan_catalog()
            kernel_findings, result.kernels_checked = check_generated_catalog()
            result.findings = sort_findings(
                result.findings + plan_findings + kernel_findings
            )
        obs.count("staticcheck.files", result.files_scanned)
        obs.count("staticcheck.findings", len(result.findings))
        sp.set_attribute("files", result.files_scanned)
        sp.set_attribute("plans_checked", result.plans_checked)
        sp.set_attribute("kernels_checked", result.kernels_checked)
        sp.set_attribute("findings", len(result.findings))
        sp.set_attribute("errors", len(result.errors))
    return result
