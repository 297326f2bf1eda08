"""Experiment harness: scenarios, replication runner, reporting, suites.

Each experiment suite (E1–E23; see ``docs/experiments.md`` for the
per-suite index) is a plan builder registered in
:data:`repro.experiments.suites.SUITE_PLANS`;
``run_plan(SUITE_PLANS[name](sweep), sweep)`` runs one into its
:class:`~repro.experiments.reporting.Table`. The benchmark files under
``benchmarks/`` run them, print the tables and check them against the
archived ``benchmarks/results/*.txt``.

Batch infrastructure: each suite decomposes into a
:class:`~repro.experiments.plan.SuitePlan` of ``(sweep point, seed)``
work units; :func:`~repro.experiments.parallel.run_batch` feeds the
units of all requested suites to one shared fork-based
:class:`~repro.experiments.parallel.Scheduler` (bit-identical to
serial), and :class:`~repro.experiments.store.ResultsStore` persists
each run's config, seeds, wall time, and metric summaries as JSON under
``benchmarks/results/`` — including the ``BENCH_<suite>.json`` reports CI
uploads. The full pipeline is documented in ``docs/architecture.md``.
"""

from repro.experiments.config import ClusterConfig, SweepConfig
from repro.experiments.scenario import build_cluster, build_agent_system, mixed_fleet
from repro.experiments.runner import replicate
from repro.experiments.plan import SuitePlan, SweepPoint, WorkUnit
from repro.experiments.parallel import (
    Scheduler,
    replicate_parallel,
    run_batch,
    run_suite,
)
from repro.experiments.reporting import Table
from repro.experiments.store import Comparison, ResultsStore, RunRecord
from repro.experiments import suites

__all__ = [
    "ClusterConfig",
    "SweepConfig",
    "build_cluster",
    "build_agent_system",
    "mixed_fleet",
    "replicate",
    "SuitePlan",
    "SweepPoint",
    "WorkUnit",
    "Scheduler",
    "replicate_parallel",
    "run_batch",
    "run_suite",
    "Table",
    "Comparison",
    "ResultsStore",
    "RunRecord",
    "suites",
]
