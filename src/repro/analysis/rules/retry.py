"""R7 — unbounded-retry: retry loops must carry a bounded budget.

An ``while True:`` loop wrapped around a communication or negotiation
attempt (``transmit``, ``negotiate``, ``send``, ``keepalive``,
``reserve_for``, …) retries forever when the cluster is partitioned or
a peer is gone — in a discrete-event run that is a livelock, and in the
protocol it is the anti-pattern the hardened award handshake
(:meth:`repro.faults.injector.FaultInjector.award_handshake`) exists to
replace: every retry loop must spend a *bounded* budget (a fixed
attempt count and backoff, like the handshake's
:data:`repro.faults.plan.AWARD_ATTEMPTS` and
:func:`repro.faults.plan.award_backoff`), then give up and fall through.

The rule is syntactic, like its siblings: it flags a constant-true
``while`` loop whose body performs a retry-ish call and mentions no
budget vocabulary (an identifier containing ``attempt``, ``retr``,
``budget`` or ``backoff``). ``for _ in range(...)`` loops are bounded
by construction and never flagged, as are ``while`` loops with a real
(non-constant) condition — their bound is the condition itself.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.analysis.rules.base import Finding, ModuleContext, Rule

#: Terminal callable names that mean "attempt the operation again".
_RETRY_CALLS = frozenset(
    {
        "transmit",
        "negotiate",
        "send",
        "send_routed",
        "broadcast",
        "keepalive",
        "reserve_for",
    }
)

#: Identifier substrings that count as evidence of a bounded budget.
_BUDGET_HINTS = ("attempt", "retr", "budget", "backoff")


def _is_constant_true(test: ast.expr) -> bool:
    return isinstance(test, ast.Constant) and bool(test.value)


def _loop_nodes(loop: ast.While) -> Iterator[ast.AST]:
    """Walk the loop body without descending into nested scopes (a
    closure's retries are its own problem, attributed to its own loop)."""
    stack: List[ast.AST] = list(loop.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _call_name(node: ast.Call) -> str | None:
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    if isinstance(node.func, ast.Name):
        return node.func.id
    return None


class UnboundedRetryRule(Rule):
    id = "R7"
    name = "unbounded-retry"
    rationale = (
        "a while-True loop around transmit/negotiate/keepalive retries "
        "forever under partitions; retry loops must spend a bounded "
        "attempt budget with backoff, then fall through"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.While) or not _is_constant_true(node.test):
                continue
            retry_calls: List[str] = []
            bounded = False
            for inner in _loop_nodes(node):
                if isinstance(inner, ast.Call):
                    name = _call_name(inner)
                    if name in _RETRY_CALLS:
                        retry_calls.append(name)
                identifier = None
                if isinstance(inner, ast.Name):
                    identifier = inner.id
                elif isinstance(inner, ast.Attribute):
                    identifier = inner.attr
                elif isinstance(inner, ast.arg):
                    identifier = inner.arg
                if identifier is not None:
                    lowered = identifier.lower()
                    if any(hint in lowered for hint in _BUDGET_HINTS):
                        bounded = True
            if retry_calls and not bounded:
                calls = ", ".join(sorted(set(retry_calls)))
                yield module.finding(
                    self,
                    node,
                    f"while-True loop retries {calls}() without a bounded "
                    "budget; count attempts against a fixed bound with "
                    "backoff (like AWARD_ATTEMPTS and award_backoff) and "
                    "fall through when it is spent",
                )
