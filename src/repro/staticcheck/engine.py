"""The staticcheck driver: file walking, parsing, suppression, rule dispatch.

The engine owns everything rule implementations should not re-implement:

* locating and parsing the Python files under the checked paths (a file
  that fails to parse is itself a finding, ``RPR000``);
* the inline suppression syntax — a trailing ``# staticcheck:
  disable=RPR001`` silences listed rules on that line, and a standalone
  ``# staticcheck: disable-file=RPR004`` anywhere in the file silences
  them file-wide (``disable=all`` works in both forms);
* the rule registry (:func:`rule`, :func:`all_rules`) that
  :mod:`repro.staticcheck.rules_ast` and
  :mod:`repro.staticcheck.rules_concurrency` populate;
* baseline subtraction, so a legacy tree can adopt the gate green and
  burn findings down incrementally;
* aggregation into a :class:`LintResult`, including the plan-invariant
  layer (:mod:`repro.staticcheck.plan_invariants`) run over the kernel
  catalog.

Telemetry: from the ``metrics`` level up every run adds to the obs
counters ``staticcheck.files`` / ``staticcheck.findings`` and (via the
plan layer) ``staticcheck.plans_checked``, inside a ``staticcheck.lint`` span whose
attributes mirror the counters — ``repro telemetry-report`` surfaces them.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set

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

_SUPPRESS_RE = re.compile(
    r"#\s*staticcheck:\s*disable(?P<scope>-file)?\s*=\s*(?P<rules>[A-Za-z0-9_,\s]+)"
)

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
        self._file_suppressed: Set[str] = set()
        self._scan_suppressions()
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                child._sc_parent = node  # type: ignore[attr-defined]

    # -- construction ------------------------------------------------------

    @classmethod
    def parse(cls, path: str, text: Optional[str] = None) -> "ModuleSource":
        """Parse ``path`` (or the given ``text``) into a ModuleSource."""
        if text is None:
            text = Path(path).read_text()
        tree = ast.parse(text, filename=path)
        return cls(path, text, tree)

    def _scan_suppressions(self) -> None:
        for lineno, line in enumerate(self.lines, 1):
            m = _SUPPRESS_RE.search(line)
            if not m:
                continue
            ids = {r.strip() for r in m.group("rules").split(",") if r.strip()}
            if m.group("scope"):
                self._file_suppressed |= ids
            else:
                self._line_suppressed.setdefault(lineno, set()).update(ids)

    # -- queries -----------------------------------------------------------

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        """True when ``rule_id`` is silenced on ``line`` or file-wide."""
        for scope in (self._file_suppressed, self._line_suppressed.get(line, set())):
            if rule_id in scope or "all" in scope:
                return True
        return False

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
    """Aggregated outcome of one lint run across all three layers."""

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    plans_checked: int = 0
    baseline_suppressed: int = 0
    kernels_checked: int = 0
    baseline_stale: int = 0

    @property
    def errors(self) -> List[Finding]:
        """Findings at ``error`` severity — these gate the exit code."""
        return [f for f in self.findings if f.severity == "error"]

    @property
    def ok(self) -> bool:
        """True when no error-severity finding survived the baseline."""
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
            "baseline_suppressed": self.baseline_suppressed,
            "baseline_stale": self.baseline_stale,
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
    """Repo/cwd-relative posix path when possible (stable baseline keys)."""
    try:
        rel = p.resolve().relative_to(Path.cwd().resolve())
        return rel.as_posix()
    except ValueError:
        return p.as_posix()


def default_paths() -> List[str]:
    """The installed ``repro`` package directory — what ``repro lint`` scans."""
    import repro

    return [str(Path(repro.__file__).parent)]


def lint_paths(paths: Sequence[str]) -> LintResult:
    """Run layers 1 and 3 (all registered AST rules) over ``paths``."""
    rules = list(all_rules().values())
    result = LintResult()
    for path in _iter_py_files(paths):
        result.files_scanned += 1
        display = _display_path(path)
        try:
            module = ModuleSource.parse(str(path))
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            line = getattr(exc, "lineno", 0) or 0
            result.findings.append(
                Finding(
                    rule_id="RPR000",
                    severity="error",
                    file=display,
                    line=int(line),
                    message=f"file does not parse: {type(exc).__name__}: {exc}",
                    fix_hint="fix the syntax error; unparsed files cannot be checked",
                )
            )
            continue
        module.path = display
        for entry in rules:
            for f in entry.check(module):
                if not module.is_suppressed(f.rule_id, f.line):
                    result.findings.append(f)
    return result


def lint_sources(sources, origins: Optional[Dict[str, str]] = None) -> LintResult:
    """Run all registered AST rules over in-memory ``{name: source}`` text.

    The generated-code hook: :mod:`repro.codegen.compiled` emits kernels
    that never touch disk, and this applies the same rule set (with the
    same inline-suppression semantics) to their source strings.  ``sources``
    is a mapping of display name → source text, or an iterable of
    ``(name, text)`` pairs.  Unparseable text is an ``RPR000`` finding,
    mirroring :func:`lint_paths`.

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
        result.files_scanned += 1
        origin = origins.get(str(name), "")
        try:
            module = ModuleSource.parse(str(name), text=text)
        except SyntaxError as exc:
            result.findings.append(
                Finding(
                    rule_id="RPR000",
                    severity="error",
                    file=str(name),
                    line=int(getattr(exc, "lineno", 0) or 0),
                    message=f"source does not parse: {type(exc).__name__}: {exc}",
                    fix_hint="fix the generator; unparsed sources cannot be checked",
                    origin=origin,
                )
            )
            continue
        for entry in rules:
            for f in entry.check(module):
                if module.is_suppressed(f.rule_id, f.line):
                    continue
                result.findings.append(
                    f.with_context(origin, source_snippet(text, f.line))
                )
    result.findings = sort_findings(result.findings)
    return result


def run_lint(
    paths: Optional[Sequence[str]] = None,
    include_plans: bool = True,
    baseline: Optional[Iterable[Finding]] = None,
    include_generated: Optional[bool] = None,
) -> LintResult:
    """Run all staticcheck layers and fold in the baseline.

    ``paths`` defaults to the installed ``repro`` package; ``baseline``
    findings (matched by :attr:`Finding.baseline_key`) are subtracted and
    counted rather than reported — entries matching nothing are counted
    in :attr:`LintResult.baseline_stale` so a dead suppression cannot
    silently mask a future regression.  ``include_generated`` adds the
    layer-4 sweep (symbolic execution of every catalogued kernel's
    generated code); it defaults to following ``include_plans``.
    """
    if include_generated is None:
        include_generated = include_plans
    with telemetry.span("staticcheck.lint") as sp:
        result = lint_paths(paths if paths else default_paths())
        if include_plans:
            from repro.staticcheck.plan_invariants import check_plan_catalog

            plan_findings, plans = check_plan_catalog()
            result.findings.extend(plan_findings)
            result.plans_checked = plans
        if include_generated:
            from repro.staticcheck.symexec import check_generated_catalog

            kernel_findings, kernels = check_generated_catalog()
            result.findings.extend(kernel_findings)
            result.kernels_checked = kernels
        if baseline:
            known = {f.baseline_key for f in baseline}
            current = {f.baseline_key for f in result.findings}
            result.baseline_stale = len(known - current)
            kept = [f for f in result.findings if f.baseline_key not in known]
            result.baseline_suppressed = len(result.findings) - len(kept)
            result.findings = kept
        result.findings = sort_findings(result.findings)
        obs.count("staticcheck.files", result.files_scanned)
        obs.count("staticcheck.findings", len(result.findings))
        sp.set_attribute("files", result.files_scanned)
        sp.set_attribute("plans_checked", result.plans_checked)
        sp.set_attribute("kernels_checked", result.kernels_checked)
        sp.set_attribute("findings", len(result.findings))
        sp.set_attribute("errors", len(result.errors))
    return result
