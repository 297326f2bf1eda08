#!/usr/bin/env python3
"""Determinism & contract linter (blocking CI gate).

Statically enforces the invariants the test suite only samples — seeded
RNG discipline, no wall clock in simulated time, ordered iteration,
narrow exception handlers, epoch-bumped topology mutation, bounded
retries — via the :mod:`repro.analysis` rule engine::

    python tools/lint_repro.py                     # lint src/repro
    python tools/lint_repro.py --rules R1,R3       # subset of rules
    python tools/lint_repro.py --json              # machine-readable
    python tools/lint_repro.py --paths src/repro/sim tools/lint_repro.py
    python tools/lint_repro.py --list-rules        # rule catalog

Suppress a single deliberate finding in source with::

    risky_line()  # repro: allow[R3] iteration feeds an order-free sum

Exit codes: 0 = clean (suppressed findings do not fail); 1 = at least
one finding; 2 = bad invocation.

See ``docs/static-analysis.md`` for the rule catalog and the
suppression workflow.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.analysis import (  # noqa: E402  (sys.path bootstrap above)
    AnalysisEngine,
    RuleConfig,
    default_rules,
    render_json,
    render_text,
    select_rules,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lint_repro",
        description="static determinism & contract linter for src/repro",
    )
    parser.add_argument(
        "--paths",
        nargs="+",
        default=["src/repro"],
        metavar="PATH",
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        metavar="SPECS",
        help="comma-separated rule ids or names to run "
        "(e.g. 'R1,unordered-iteration'; default: all six)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the versioned JSON report instead of text",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog (id, name, rationale) and exit",
    )
    return parser


def main(argv: List[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = RuleConfig()
    if args.rules:
        try:
            rules = select_rules(
                [spec.strip() for spec in args.rules.split(",") if spec.strip()],
                config,
            )
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
    else:
        rules = default_rules(config)
    if args.list_rules:
        width = max(len(rule.name) for rule in rules)
        for rule in rules:
            print(f"{rule.id}  {rule.name:<{width}}  {rule.rationale}")
        return 0

    engine = AnalysisEngine(rules, REPO)
    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not (p if p.is_absolute() else REPO / p).exists()]
    if missing:
        print(
            f"no such path(s): {', '.join(str(p) for p in missing)}",
            file=sys.stderr,
        )
        return 2

    report = engine.analyze_paths(paths)
    if args.json:
        print(render_json(report, rules))
    else:
        print(render_text(report))
    return 0 if report.clean else 1


if __name__ == "__main__":
    raise SystemExit(main())
