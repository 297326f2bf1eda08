"""Rendering an :class:`~repro.analysis.engine.AnalysisReport`.

Two formats, both stable enough to build tooling on:

* **text** — one ``path:line:col RULE[name] message (in scope)`` line
  per finding plus a summary, for humans and CI logs;
* **JSON** — a versioned document (``REPORT_VERSION``) with the rule
  catalog, every finding and suppressed finding, and the summary
  counters, for dashboards and the test suite's schema checks.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence

from repro.analysis.engine import AnalysisReport, rule_index
from repro.analysis.rules.base import Finding, Rule

REPORT_VERSION = 2


def render_text(report: AnalysisReport, verbose_suppressed: bool = False) -> str:
    """Human-readable report; empty-string when fully clean and quiet."""
    lines: List[str] = []
    for finding in report.findings:
        lines.append(
            f"{finding.location()} {finding.rule}[{finding.name}] "
            f"{finding.message} (in {finding.context})"
        )
    if verbose_suppressed:
        for finding in report.suppressed:
            lines.append(
                f"{finding.location()} {finding.rule}[{finding.name}] "
                f"suppressed (in {finding.context})"
            )
    lines.append(
        f"{len(report.findings)} finding(s) "
        f"({len(report.suppressed)} suppressed) "
        f"across {report.files_checked} file(s)"
    )
    return "\n".join(lines)


def _finding_dict(finding: Finding) -> Dict[str, Any]:
    return {
        "rule": finding.rule,
        "name": finding.name,
        "path": finding.path,
        "line": finding.line,
        "col": finding.col,
        "message": finding.message,
        "context": finding.context,
        "snippet": finding.snippet,
    }


def render_json(report: AnalysisReport, rules: Sequence[Rule]) -> str:
    """The versioned machine-readable report (see tests for the schema)."""
    document: Dict[str, Any] = {
        "version": REPORT_VERSION,
        "rules": rule_index(rules),
        "findings": [_finding_dict(f) for f in report.findings],
        "suppressed": [_finding_dict(f) for f in report.suppressed],
        "summary": {
            "findings": len(report.findings),
            "suppressed": len(report.suppressed),
            "files_checked": report.files_checked,
            "clean": report.clean,
        },
    }
    return json.dumps(document, indent=2)
