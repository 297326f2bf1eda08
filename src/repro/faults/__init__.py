"""Seed-deterministic fault injection (``repro.faults``).

Three pieces:

* :mod:`repro.faults.plan` — the declarative, frozen
  :class:`~repro.faults.plan.FaultPlan` (link, node and agent faults)
  and the award handshake's fixed retry budget;
* :mod:`repro.faults.injector` — the
  :class:`~repro.faults.injector.FaultInjector` that executes a plan at
  the existing seams (node liveness, topology cuts, negotiation);
* :mod:`repro.faults.report` — the
  :class:`~repro.faults.report.ResilienceReport` summarizing
  availability, recovery times, retries and the degraded-vs-dropped
  split from session transition traces.

See ``docs/faults.md`` for the fault model catalog and the determinism
contract.
"""

from repro.faults.injector import FaultInjector, make_injector
from repro.faults.plan import (
    EMPTY_PLAN,
    AgentFaults,
    CrashHazard,
    FaultPlan,
    GilbertElliott,
    Partition,
)
from repro.faults.report import ResilienceReport

__all__ = [
    "AgentFaults",
    "CrashHazard",
    "EMPTY_PLAN",
    "FaultInjector",
    "FaultPlan",
    "GilbertElliott",
    "Partition",
    "ResilienceReport",
    "make_injector",
]
