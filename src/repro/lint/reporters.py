"""Render a :class:`~repro.lint.core.LintResult` as text or JSON.

Text is for humans at a terminal (one ``path:line: RULE message`` row per
finding, grep-friendly); JSON is the machine surface CI uploads as an
artifact.
"""

from __future__ import annotations

import json

from .core import LintResult


def render_text(result: LintResult) -> str:
    """Human-readable report: findings, stale suppressions, summary line."""
    lines = []
    for finding in result.findings:
        lines.append(f"{finding.path}:{finding.line}: {finding.rule} {finding.message}")
    if result.report_stale and result.stale:
        lines.append("stale suppressions:")
        for finding in result.stale:
            lines.append(
                f"{finding.path}:{finding.line}: {finding.rule} {finding.message}"
            )
    summary = (
        f"{len(result.findings)} finding(s) in {result.files} file(s)"
        f" [rules: {', '.join(result.rules)}]"
    )
    extras = []
    if result.suppressed:
        extras.append(f"{len(result.suppressed)} suppressed")
    if result.report_stale:
        extras.append(f"{len(result.stale)} stale suppression(s)")
    if extras:
        summary += " (" + ", ".join(extras) + ")"
    lines.append(summary)
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """The JSON report (stable schema, ``version`` field for evolution)."""
    return json.dumps(result.to_json(), indent=2, sort_keys=True) + "\n"
