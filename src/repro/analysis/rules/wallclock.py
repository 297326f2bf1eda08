"""R2 — wall-clock-in-sim: simulated time must come from the engine.

``repro.sim.engine.Engine.now`` is the only clock a ``repro`` module
may read: a ``time.time()``/``perf_counter()`` or ``datetime.now()``
call anywhere in the package — model, workloads or experiment suites —
can reach a result table, coupling it to the host's scheduler and
making serial != parallel and run != re-run. Two modules legitimately
read the host clock *about* a run, never inside it, and are
allowlisted: ``repro.experiments.parallel`` (each work unit's start and
completion time) and ``repro.experiments.store`` (the bench report's
timestamp). Files outside the package (tools, tests) are not checked.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.rules.base import (
    Finding,
    ModuleContext,
    Rule,
    RuleConfig,
    in_packages,
    resolve_dotted,
)

#: Fully resolved callables that read the host clock.
_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


class WallClockRule(Rule):
    id = "R2"
    name = "wall-clock-in-sim"
    rationale = (
        "host-clock reads inside the repro package couple results "
        "to scheduler timing; simulated time is Engine.now only"
    )

    def __init__(self, config: RuleConfig | None = None) -> None:
        self.config = config or RuleConfig()

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if not in_packages(module.module, ("repro",)):
            return
        if in_packages(module.module, self.config.wall_clock_allowlist):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = resolve_dotted(node.func, module.imports)
            if dotted in _WALL_CLOCK_CALLS:
                yield module.finding(
                    self,
                    node,
                    f"{dotted}() reads the host clock in {module.module}; "
                    "use the engine's simulated time (Engine.now), or "
                    "time runs from outside (the executor's unit times, "
                    "benchmarks/perf)",
                )
