#!/usr/bin/env python3
"""Docs tree checker (CI gate).

Two checks, stdlib only:

1. **Dead relative links** — every markdown link or image in ``docs/``
   and ``README.md`` whose target is a relative path must resolve to an
   existing file (anchors and external URLs are skipped).
2. **CLI flag coverage** — ``docs/cli.md`` must mention every option
   string declared by ``add_argument`` in each checked CLI module
   (``src/repro/experiments/__main__.py``, ``tools/bench_diff.py`` and
   ``tools/lint_repro.py``), so the flag reference cannot silently drift
   from the argparse definitions.

Exit code 0 when both pass; 1 with a per-finding report otherwise.
Run locally as ``python tools/check_docs.py``.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DOCS = REPO / "docs"
CLI_DOC = DOCS / "cli.md"

#: CLI modules whose argparse option strings ``docs/cli.md`` must cover.
CLI_SOURCES = (
    REPO / "src" / "repro" / "experiments" / "__main__.py",
    REPO / "tools" / "bench_diff.py",
    REPO / "tools" / "lint_repro.py",
)

#: Markdown inline links/images: [text](target) / ![alt](target).
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")


def iter_doc_files() -> list[Path]:
    files = sorted(DOCS.glob("**/*.md")) if DOCS.is_dir() else []
    readme = REPO / "README.md"
    if readme.is_file():
        files.append(readme)
    return files


def check_relative_links() -> list[str]:
    """Dead relative links across the docs tree and README."""
    problems = []
    for doc in iter_doc_files():
        in_fence = False
        for lineno, line in enumerate(doc.read_text().splitlines(), start=1):
            if line.lstrip().startswith("```"):
                in_fence = not in_fence
                continue
            if in_fence:  # code blocks may contain link-shaped syntax
                continue
            for target in LINK_RE.findall(line):
                if re.match(r"[a-z][a-z0-9+.-]*:", target):  # http:, mailto:, ...
                    continue
                if target.startswith("#"):  # in-page anchor
                    continue
                path = target.split("#", 1)[0]
                if not path:
                    continue
                resolved = (doc.parent / path).resolve()
                if not resolved.exists():
                    rel = doc.relative_to(REPO)
                    problems.append(
                        f"{rel}:{lineno}: dead relative link {target!r} "
                        f"(resolved to {resolved})"
                    )
    return problems


def argparse_flags(source: Path) -> list[str]:
    """Every option string passed to ``add_argument`` in one CLI module."""
    tree = ast.parse(source.read_text(), filename=str(source))
    flags = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"):
            continue
        for arg in node.args:
            if (isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                    and arg.value.startswith("-")):
                flags.append(arg.value)
    return flags


def check_cli_flags() -> list[str]:
    """docs/cli.md must mention every checked module's option strings."""
    if not CLI_DOC.is_file():
        return [f"{CLI_DOC.relative_to(REPO)}: missing (CLI flag reference)"]
    text = CLI_DOC.read_text()
    problems = []
    for source in CLI_SOURCES:
        flags = argparse_flags(source)
        if not flags:
            problems.append(
                f"{source.relative_to(REPO)}: no argparse flags found "
                "(checker out of sync with the CLI?)"
            )
            continue
        problems.extend(
            f"{CLI_DOC.relative_to(REPO)}: flag {flag!r} from "
            f"{source.relative_to(REPO)} is not documented"
            for flag in flags
            if flag not in text
        )
    return problems


def main() -> int:
    problems = check_relative_links() + check_cli_flags()
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"\n{len(problems)} docs problem(s) found", file=sys.stderr)
        return 1
    docs = len(iter_doc_files())
    n_flags = sum(len(argparse_flags(source)) for source in CLI_SOURCES)
    print(f"docs check ok: {docs} file(s), all relative links resolve, "
          f"all {n_flags} CLI flags documented")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
