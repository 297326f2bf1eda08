"""R6 — epoch-unsafe-mutation: arena writes must bump the cache epoch.

``Topology`` (PR 5) keys every derived cache — neighbor tuples, BFS
orders, bidirectional-Dijkstra routes — off a monotone epoch counter.
The invariant: any method that mutates the position/adjacency arena
(``positions``, ``_adj``, ``_bw``, ``_loss``, ``_dist``) must bump the
epoch before returning, directly (``self._bump_epoch()``) or by calling
a same-class method that transitively does (``rebuild``,
``update_positions``). A mutation that skips the bump leaves stale
routes being served against a changed arena — the bug any in-place
arena write (the partition overlay's, say) invites.

The check is a lightweight intra-module call graph: for every class
that defines ``_bump_epoch``, compute the fixpoint of "calls a bumping
method of self", then flag arena-mutating methods outside that set.
Local aliases (``pos = self.positions; pos[i] = …``) are tracked.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set

from repro.analysis.rules.base import (
    Finding,
    ModuleContext,
    Rule,
    RuleConfig,
    body_nodes,
)


def _self_method_calls(scope: ast.AST) -> Set[str]:
    """Names of ``self.<method>(...)`` calls inside one method body."""
    calls: Set[str] = set()
    for node in body_nodes(scope):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            target = node.func.value
            if isinstance(target, ast.Name) and target.id == "self":
                calls.add(node.func.attr)
    return calls


class EpochMutationRule(Rule):
    id = "R6"
    name = "epoch-unsafe-mutation"
    rationale = (
        "arena mutations that skip _bump_epoch leave per-epoch caches "
        "serving stale routes against the changed arrays"
    )

    def __init__(self, config: RuleConfig | None = None) -> None:
        self.config = config or RuleConfig()

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(module, node)

    def _check_class(
        self, module: ModuleContext, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        methods: Dict[str, ast.AST] = {
            item.name: item
            for item in cls.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        if "_bump_epoch" not in methods:
            return  # not an epoch-keyed class
        # Fixpoint: a method "bumps" if it calls _bump_epoch or any
        # already-known bumping method on self.
        calls = {name: _self_method_calls(scope) for name, scope in methods.items()}
        bumping: Set[str] = {"_bump_epoch"}
        changed = True
        while changed:
            changed = False
            for name, called in calls.items():
                if name not in bumping and called & bumping:
                    bumping.add(name)
                    changed = True
        guarded = set(self.config.guarded_attributes)
        for name, scope in methods.items():
            if name in bumping or name == "_bump_epoch":
                continue
            if name == "__init__":
                # Construction precedes any cached query; there is no
                # stale epoch to invalidate yet.
                continue
            for store in self._guarded_stores(scope, guarded):
                yield module.finding(
                    self,
                    store,
                    f"{cls.name}.{name} mutates an epoch-guarded array "
                    "without bumping the epoch; call self._bump_epoch() "
                    "(or route through rebuild/update_positions) so the "
                    "per-epoch caches invalidate",
                )

    @staticmethod
    def _guarded_stores(scope: ast.AST, guarded: Set[str]) -> Iterator[ast.AST]:
        aliases: Set[str] = set()
        nodes: List[ast.AST] = list(body_nodes(scope))
        # First pass: local aliases of guarded arrays (pos = self.positions).
        for node in nodes:
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Attribute):
                value = node.value
                if (
                    isinstance(value.value, ast.Name)
                    and value.value.id == "self"
                    and value.attr in guarded
                ):
                    aliases.update(
                        t.id for t in node.targets if isinstance(t, ast.Name)
                    )
        # Second pass: stores through self.<attr> or an alias.
        for node in nodes:
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if _is_guarded_store(target, guarded, aliases):
                    yield target

    # (module-level helper below keeps this static method tiny)


def _is_guarded_store(
    target: ast.expr, guarded: Set[str], aliases: Set[str]
) -> bool:
    """Whether an assignment target hits a guarded array.

    Covers ``self.positions = …``, ``self._adj[i, :] = …`` and stores
    through a recorded local alias (``pos[i] = …``).
    """
    if isinstance(target, ast.Attribute):
        return (
            isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and target.attr in guarded
        )
    if isinstance(target, ast.Subscript):
        base = target.value
        if isinstance(base, ast.Attribute):
            return (
                isinstance(base.value, ast.Name)
                and base.value.id == "self"
                and base.attr in guarded
            )
        if isinstance(base, ast.Name):
            return base.id in aliases
    if isinstance(target, (ast.Tuple, ast.List)):
        return any(_is_guarded_store(elt, guarded, aliases) for elt in target.elts)
    return False
