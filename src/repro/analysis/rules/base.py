"""Shared vocabulary of the static-analysis engine.

A :class:`Rule` inspects one parsed module (:class:`ModuleContext`) and
yields :class:`Finding`\\ s. Everything here is plain stdlib ``ast``
work — no third-party parser, no type checker — because the invariants
being enforced (seeded RNG discipline, no wall clock in simulated time,
ordered iteration, snapshot-once feature reads, epoch-bumped topology
mutation) are all *syntactically* recognizable in this codebase's idiom.

The helpers in this module implement the two pieces every rule needs:

* an **import map** (:func:`build_import_map`) resolving local names to
  the dotted path they were imported from, so ``np.random.choice`` and
  ``from numpy.random import choice`` flag identically;
* a **scope walk** (:func:`function_bodies`, :func:`body_nodes`) that
  attributes findings to the enclosing ``Class.method`` qualname and
  lets per-function rules skip nested function bodies.
"""

from __future__ import annotations

import ast
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    ``context`` is the enclosing scope's qualname and ``snippet`` the
    stripped source line, both shown in reports.
    """

    rule: str
    name: str
    path: str
    line: int
    col: int
    message: str
    context: str
    snippet: str

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}"


class ModuleContext:
    """One parsed module plus the lookup tables rules share.

    Args:
        source: The module's text.
        path: Repo-relative posix path, as findings report it.
        module: Dotted module name (``repro.sim.engine``) when the file
            belongs to the package tree, else ``None``. Package-scoped
            rules (wall-clock, epoch) key off it.
    """

    def __init__(self, source: str, path: str, module: Optional[str] = None) -> None:
        self.source = source
        self.path = path
        self.module = module
        self.lines: List[str] = source.splitlines()
        self.tree: ast.Module = ast.parse(source, filename=path)
        self.imports: Dict[str, str] = build_import_map(self.tree)
        self._context: Dict[int, str] = {}
        self._assign_contexts(self.tree, "<module>")

    @classmethod
    def from_file(cls, file_path: Path, root: Path) -> "ModuleContext":
        """Parse a file on disk, deriving the module name from a
        ``src/<pkg>/...`` layout when the file lives under one."""
        rel = file_path.resolve().relative_to(root.resolve()).as_posix()
        return cls(file_path.read_text(), rel, module=module_name_of(rel))

    def _assign_contexts(self, node: ast.AST, qualname: str) -> None:
        for child in ast.iter_child_nodes(node):
            self._context[id(child)] = qualname
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if qualname == "<module>" else f"{qualname}.{child.name}"
                self._context[id(child)] = inner
                self._assign_contexts(child, inner)
            else:
                self._assign_contexts(child, qualname)

    def context_of(self, node: ast.AST) -> str:
        """Qualname of the scope enclosing ``node`` (``<module>`` at top level)."""
        return self._context.get(id(node), "<module>")

    def snippet_at(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(
        self, rule: "Rule", node: ast.AST, message: str
    ) -> Finding:
        """Build a :class:`Finding` anchored at ``node``."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule=rule.id,
            name=rule.name,
            path=self.path,
            line=line,
            col=col,
            message=message,
            context=self.context_of(node),
            snippet=self.snippet_at(line),
        )


class Rule(ABC):
    """One statically checkable determinism/contract invariant."""

    #: Short id used by ``--rules`` and suppressions (``R1`` … ``R6``).
    id: str = ""
    #: Kebab-case name, the second suppression spelling.
    name: str = ""
    #: One-line rationale shown by ``--list-rules`` and the JSON report.
    rationale: str = ""

    @abstractmethod
    def check(self, module: ModuleContext) -> Iterator[Finding]:
        """Yield every violation of this rule in ``module``."""

    def matches(self, spec: str) -> bool:
        """Whether a ``--rules``/suppression token selects this rule."""
        return spec.lower() in (self.id.lower(), self.name.lower())


def module_name_of(relpath: str) -> Optional[str]:
    """Dotted module name for a repo-relative path, if it is in-tree.

    ``src/repro/sim/engine.py`` → ``repro.sim.engine``;
    ``tools/lint_repro.py`` → ``None`` (not an importable package file).
    """
    parts = Path(relpath).parts
    if len(parts) < 2 or parts[0] != "src" or not parts[-1].endswith(".py"):
        return None
    dotted = list(parts[1:-1])
    stem = Path(parts[-1]).stem
    if stem != "__init__":
        dotted.append(stem)
    return ".".join(dotted) if dotted else None


def build_import_map(tree: ast.Module) -> Dict[str, str]:
    """Local name → dotted origin for every import in the module.

    ``import numpy as np`` → ``{"np": "numpy"}``;
    ``from numpy.random import default_rng`` →
    ``{"default_rng": "numpy.random.default_rng"}``. Relative imports
    keep their tail (``from .features import is_enabled`` →
    ``is_enabled: features.is_enabled``), which is enough for the
    suffix matching the rules do.
    """
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                origin = alias.name if alias.asname else alias.name.split(".", 1)[0]
                imports[local] = origin
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{base}.{alias.name}" if base else alias.name
    return imports


def dotted_parts(node: ast.expr) -> Optional[List[str]]:
    """``a.b.c`` attribute chain as ``["a", "b", "c"]``, else ``None``."""
    parts: List[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        parts.reverse()
        return parts
    return None


def resolve_dotted(node: ast.expr, imports: Dict[str, str]) -> Optional[str]:
    """Fully-resolved dotted path of a name/attribute chain, or ``None``.

    The chain's head is looked up in the import map; an unknown head
    (a local variable, a parameter) resolves to ``None`` so rules never
    mistake ``self.random`` or a local named ``time`` for the module.
    """
    parts = dotted_parts(node)
    if parts is None:
        return None
    head = imports.get(parts[0])
    if head is None:
        return None
    return ".".join([head, *parts[1:]])


def function_bodies(
    tree: ast.Module,
) -> Iterator[Tuple[ast.AST, str]]:
    """Every function/method definition node, paired with its name."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, node.name


def body_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested scopes.

    Nested ``def``/``class``/``lambda`` own their statements — a rule
    counting "reads per function body" must not merge a closure's reads
    into its parent's.
    """
    stack: List[ast.AST] = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


@dataclass
class RuleConfig:
    """Knobs of the package-scoped rules: R2's wall-clock allowlist and
    R6's guarded arena attributes."""

    wall_clock_allowlist: Tuple[str, ...] = (
        "repro.experiments.parallel",
        "repro.experiments.store",
    )
    guarded_attributes: Tuple[str, ...] = field(
        default=("positions", "_adj", "_bw", "_loss", "_live")
    )


def in_packages(module: Optional[str], packages: Sequence[str]) -> bool:
    if module is None:
        return False
    return any(module == pkg or module.startswith(pkg + ".") for pkg in packages)
