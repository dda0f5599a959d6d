"""The unified finding model every staticcheck layer emits.

A :class:`Finding` is one diagnosed hazard: which rule fired
(``rule_id``, e.g. ``RPR004``), how bad it is (``severity``), where it
lives (``file``/``line`` — plan-level findings use a ``plan:<kernel>``
pseudo-path and line 0), what is wrong (``message``), and what to do
about it (``fix_hint``).  Every layer — the AST rules, the plan/LUT
verifier, the concurrency and asyncio rules, and the generated-kernel
prover — emits this one shape, so the reporter and the JSON gate never
special-case a layer.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Tuple

__all__ = [
    "Finding",
    "SEVERITIES",
    "severity_rank",
    "sort_findings",
    "source_snippet",
]

#: Recognised severities, most severe first.  Only ``error`` findings make
#: the lint gate exit nonzero; ``warning`` is advisory, ``info`` contextual.
SEVERITIES: Tuple[str, ...] = ("error", "warning", "info")


def severity_rank(severity: str) -> int:
    """Sort rank of a severity (lower is more severe; unknown sorts last)."""
    try:
        return SEVERITIES.index(severity)
    except ValueError:
        return len(SEVERITIES)


@dataclass(frozen=True)
class Finding:
    """One static-analysis finding (JSON-serialisable).

    ``origin`` and ``snippet`` exist for findings in *generated* code,
    whose ``file`` is a detached pseudo-path no editor can open: ``origin``
    names what produced the source (plan key, kernel digest), ``snippet``
    is a numbered source excerpt around the hit so the finding is
    actionable without re-generating the kernel.  Both are empty for
    findings in on-disk files.
    """

    rule_id: str
    severity: str
    file: str
    line: int
    message: str
    fix_hint: str = ""
    origin: str = ""
    snippet: str = ""

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"unknown severity {self.severity!r}; expected one of {SEVERITIES}"
            )

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form used by the JSON reporter.

        The generated-code fields are included only when set, so reports
        for on-disk findings keep their historical shape.
        """
        d = asdict(self)
        if not self.origin:
            del d["origin"]
        if not self.snippet:
            del d["snippet"]
        return d

    def format(self) -> str:
        """One-line human rendering: ``file:line: severity RPRxxx message``."""
        hint = f"  [{self.fix_hint}]" if self.fix_hint else ""
        origin = f"  ({self.origin})" if self.origin else ""
        return (
            f"{self.file}:{self.line}: {self.severity} {self.rule_id} "
            f"{self.message}{hint}{origin}"
        )

    def with_context(self, origin: str, snippet: str) -> "Finding":
        """Copy of this finding carrying generated-code provenance."""
        return Finding(
            rule_id=self.rule_id,
            severity=self.severity,
            file=self.file,
            line=self.line,
            message=self.message,
            fix_hint=self.fix_hint,
            origin=origin,
            snippet=snippet,
        )


def source_snippet(source: str, line: int, context: int = 2) -> str:
    """Numbered excerpt around ``line`` (1-based), the hit marked ``>``.

    Findings in generated code point into a detached string no editor can
    open; this is the excerpt :meth:`Finding.with_context` carries so the
    finding is actionable without re-generating the kernel.
    """
    lines = source.splitlines()
    if line <= 0 or line > len(lines):
        return ""
    lo = max(1, line - context)
    hi = min(len(lines), line + context)
    width = len(str(hi))
    return "\n".join(
        f"{'>' if n == line else ' '} {n:>{width}}: {lines[n - 1]}"
        for n in range(lo, hi + 1)
    )


def sort_findings(findings: Iterable[Finding]) -> List[Finding]:
    """Stable ordering: severity first, then file, line, rule id."""
    return sorted(
        findings,
        key=lambda f: (severity_rank(f.severity), f.file, f.line, f.rule_id),
    )
