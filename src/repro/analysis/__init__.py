"""``repro.analysis`` — the determinism & contract linter.

Every result table in this reproduction rests on invariants the test
suite can only *sample* (replay a handful of seeds and diff): runs are
pure functions of their seed, serial == parallel bit-identically,
topology caches are epoch-keyed. This package enforces those
invariants **statically**: an AST rule engine
(:mod:`~repro.analysis.engine`) with six registered rules
(:mod:`~repro.analysis.rules`), per-line suppressions with a mandatory
reason, and text/JSON reporters (:mod:`~repro.analysis.reporters`),
fronted by ``tools/lint_repro.py`` and run as a blocking CI gate: every
unsuppressed finding fails it.

See ``docs/static-analysis.md`` for the rule catalog and workflow.
"""

from repro.analysis.engine import (
    AnalysisEngine,
    AnalysisReport,
    Suppression,
    rule_index,
)
from repro.analysis.reporters import render_json, render_text
from repro.analysis.rules import (
    Finding,
    ModuleContext,
    Rule,
    RuleConfig,
    default_rules,
    select_rules,
)

__all__ = [
    "AnalysisEngine",
    "AnalysisReport",
    "Finding",
    "ModuleContext",
    "Rule",
    "RuleConfig",
    "Suppression",
    "default_rules",
    "render_json",
    "render_text",
    "rule_index",
    "select_rules",
]
