"""The analysis engine: files → parsed modules → rules → findings.

The engine owns the parts that are rule-independent:

* **File discovery** — recursive ``*.py`` walk over the requested
  paths (``__pycache__`` pruned), module names derived from the
  ``src/<package>/…`` layout;
* **Per-line suppressions** — ``# repro: allow[RULE-ID] reason`` on the
  flagged line, or alone on the line directly above it. The reason is
  mandatory: a reasonless (or unknown-rule) ``allow`` suppresses
  nothing and is itself reported under the pseudo-rule ``SUP``, so
  suppressions stay auditable. Every other finding fails the gate.

The result is an :class:`AnalysisReport`; rendering lives in
:mod:`repro.analysis.reporters`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.analysis.rules.base import Finding, ModuleContext, Rule

#: ``# repro: allow[R3] hash order irrelevant here`` — the per-line
#: suppression syntax. The bracket token is a comma list of rule ids or
#: names; everything after the bracket is the mandatory reason.
SUPPRESSION_RE = re.compile(
    r"#\s*repro:\s*allow\[(?P<rules>[A-Za-z0-9_,\s-]+)\]\s*(?P<reason>.*)$"
)

#: Pseudo-rule id for malformed suppression comments (not selectable,
#: not suppressible — a broken allow must never hide itself).
SUPPRESSION_RULE_ID = "SUP"


@dataclass(frozen=True)
class Suppression:
    """One parsed ``# repro: allow[...]`` comment."""

    line: int
    rules: Tuple[str, ...]
    reason: str
    standalone: bool  # comment-only line → applies to the next line

    def covers(self, finding: Finding) -> bool:
        target = self.line + 1 if self.standalone else self.line
        if finding.line != target:
            return False
        return any(
            spec.lower() in (finding.rule.lower(), finding.name.lower())
            for spec in self.rules
        )


@dataclass
class AnalysisReport:
    """Everything one engine run learned."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings


def _sort_key(finding: Finding) -> Tuple[str, int, int, str]:
    return (finding.path, finding.line, finding.col, finding.rule)


class AnalysisEngine:
    """Run a set of rules over a file tree.

    Args:
        rules: Rule instances to apply (see
            :func:`repro.analysis.rules.default_rules`).
        root: Repository root; paths in findings are reported relative
            to it.
    """

    def __init__(self, rules: Sequence[Rule], root: Path) -> None:
        self.rules = list(rules)
        self.root = root.resolve()

    # -- discovery -----------------------------------------------------------

    def iter_files(self, paths: Sequence[Path]) -> List[Path]:
        files: List[Path] = []
        for path in paths:
            path = path if path.is_absolute() else self.root / path
            if path.is_dir():
                files.extend(
                    p for p in sorted(path.rglob("*.py"))
                    if "__pycache__" not in p.parts
                )
            elif path.suffix == ".py":
                files.append(path)
        return files

    # -- suppressions --------------------------------------------------------

    @staticmethod
    def scan_suppressions(
        module: ModuleContext,
    ) -> Tuple[List[Suppression], List[Finding]]:
        """Parse allow-comments; malformed ones become SUP findings."""
        suppressions: List[Suppression] = []
        problems: List[Finding] = []
        for lineno, text in enumerate(module.lines, start=1):
            match = SUPPRESSION_RE.search(text)
            if match is None:
                continue
            rules = tuple(
                token.strip() for token in match.group("rules").split(",")
                if token.strip()
            )
            reason = match.group("reason").strip()
            standalone = text.strip().startswith("#")
            if not reason:
                problems.append(
                    Finding(
                        rule=SUPPRESSION_RULE_ID,
                        name="suppression",
                        path=module.path,
                        line=lineno,
                        col=match.start(),
                        message=(
                            "suppression without a reason suppresses "
                            "nothing; write `# repro: allow[RULE] reason`"
                        ),
                        context="<comment>",
                        snippet=module.snippet_at(lineno),
                    )
                )
                continue
            suppressions.append(
                Suppression(
                    line=lineno, rules=rules, reason=reason, standalone=standalone
                )
            )
        return suppressions, problems

    # -- the run -------------------------------------------------------------

    def analyze_paths(self, paths: Sequence[Path]) -> AnalysisReport:
        """Lint every ``*.py`` file under ``paths``."""
        return self.analyze_modules(
            ModuleContext.from_file(file_path, self.root)
            for file_path in self.iter_files(paths)
        )

    def analyze_modules(self, modules: Iterable[ModuleContext]) -> AnalysisReport:
        """Run every rule over ``modules``, applying their suppressions."""
        report = AnalysisReport()
        for module in modules:
            report.files_checked += 1
            suppressions, malformed = self.scan_suppressions(module)
            report.findings.extend(malformed)
            for rule in self.rules:
                for finding in rule.check(module):
                    if any(s.covers(finding) for s in suppressions):
                        report.suppressed.append(finding)
                    else:
                        report.findings.append(finding)
        report.findings.sort(key=_sort_key)
        report.suppressed.sort(key=_sort_key)
        return report


def rule_index(rules: Sequence[Rule]) -> Dict[str, Dict[str, str]]:
    """id → {name, rationale} map for reporters and ``--list-rules``."""
    return {
        rule.id: {"name": rule.name, "rationale": rule.rationale}
        for rule in rules
    }
