"""The rule registry: six statically enforced determinism invariants.

========  ========================  ==========================================
id        name                      invariant
========  ========================  ==========================================
``R1``    unseeded-rng              every draw comes from an injected seeded
                                    Generator, never global RNG state
``R2``    wall-clock-in-sim         simulation packages read Engine.now, not
                                    the host clock
``R3``    unordered-iteration       no hash-ordered set/frozenset (or opaque
                                    ``.keys()``) iteration
``R4``    blanket-except            handlers name the exceptions they absorb
``R6``    epoch-unsafe-mutation     topology arena writes bump the cache epoch
``R7``    unbounded-retry           retry loops around transmit/negotiate/
                                    keepalive spend a bounded budget
========  ========================  ==========================================

``R5`` is retired (it guarded feature switches that no longer exist);
the later rules keep their ids, which suppressions and docs cite.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.analysis.rules.base import (
    Finding,
    ModuleContext,
    Rule,
    RuleConfig,
    module_name_of,
)
from repro.analysis.rules.epochs import EpochMutationRule
from repro.analysis.rules.exceptions import BlanketExceptRule
from repro.analysis.rules.ordering import UnorderedIterationRule
from repro.analysis.rules.retry import UnboundedRetryRule
from repro.analysis.rules.rng import UnseededRngRule
from repro.analysis.rules.wallclock import WallClockRule


def default_rules(config: RuleConfig | None = None) -> List[Rule]:
    """Fresh instances of all six rules, in id order."""
    config = config or RuleConfig()
    return [
        UnseededRngRule(),
        WallClockRule(config),
        UnorderedIterationRule(),
        BlanketExceptRule(),
        EpochMutationRule(config),
        UnboundedRetryRule(),
    ]


def select_rules(specs: Sequence[str], config: RuleConfig | None = None) -> List[Rule]:
    """Subset of the registry matching ``specs`` (ids or names).

    Raises:
        ValueError: If a spec matches no registered rule.
    """
    rules = default_rules(config)
    selected: List[Rule] = []
    for spec in specs:
        matches = [rule for rule in rules if rule.matches(spec)]
        if not matches:
            known = ", ".join(f"{r.id}/{r.name}" for r in rules)
            raise ValueError(f"unknown rule {spec!r}; known rules: {known}")
        for rule in matches:
            if rule not in selected:
                selected.append(rule)
    return selected


__all__ = [
    "Finding",
    "ModuleContext",
    "Rule",
    "RuleConfig",
    "BlanketExceptRule",
    "EpochMutationRule",
    "UnboundedRetryRule",
    "UnorderedIterationRule",
    "UnseededRngRule",
    "WallClockRule",
    "default_rules",
    "module_name_of",
    "select_rules",
]
