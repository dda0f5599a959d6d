"""Rendering for staticcheck results.

One reporter serves all staticcheck layers: the text form for humans (one
``file:line: severity RPRxxx message`` line per finding plus a summary)
and the JSON form for the CI gate (``repro lint --format json`` — a
single machine-parseable document on stdout, never interleaved with
logs).
"""

from __future__ import annotations

import json
from typing import List

from repro.staticcheck.engine import LintResult
from repro.staticcheck.finding import sort_findings

__all__ = ["render_json", "render_text"]


def render_text(result: LintResult) -> List[str]:
    """Human-readable report lines: findings first, then the summary."""
    lines = [f.format() for f in sort_findings(result.findings)]
    counts = result.counts()
    summary = (
        f"staticcheck: {result.files_scanned} files, "
        f"{result.plans_checked} plans, "
        f"{counts['error']} errors, {counts['warning']} warnings"
    )
    if result.kernels_checked:
        summary += f", {result.kernels_checked} kernels"
    lines.append(summary)
    lines.append("OK" if result.ok else "FAIL")
    return lines


def render_json(result: LintResult) -> str:
    """The machine-readable report: one JSON document, stable key order."""
    return json.dumps(result.to_dict(), indent=2, sort_keys=True)
