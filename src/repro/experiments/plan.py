"""Suite plans and work units — the executor's unit of parallelism.

A suite is described by a :class:`SuitePlan`: the (still empty) result
:class:`Table` plus an ordered list of :class:`SweepPoint` entries, one
per table row. Each sweep point carries its replication callable, so a
plan flattens into ``(suite, sweep_point, seed)`` :class:`WorkUnit`
triples that :func:`repro.experiments.parallel.run_units` runs —
serially or on one shared pool that keeps every worker busy across
point and suite boundaries.

Determinism contract
--------------------
Work units only move *where* a replication executes.
:func:`~repro.experiments.parallel.run_units` returns the rows in unit
order (point-major, seed-minor) no matter which worker finished first,
and :meth:`SuitePlan.reduce` summarizes each point's rows in seed order,
so a table is bit-identical to the serial loop's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.experiments.reporting import Table

#: A replication callable: all randomness must derive from the seed.
#: Canonical home of the alias — runner.py and parallel.py import it.
RunFn = Callable[[int], Dict[str, float]]


@dataclass(frozen=True)
class SweepPoint:
    """One sweep point of a suite — one future table row.

    Attributes:
        label: The row's first cell (neighborhood size, speed, policy
            name, ...), identifying the sweep point.
        run: The replication callable for this point. Must be a pure
            function of its seed (sweep parameters are captured as
            default arguments, PR 1 style, so ``fork`` inherits them
            without pickling).
        keys: Metric keys of ``run``'s result dict, in the order the
            corresponding summaries appear as row cells after the label.
    """

    label: Any
    run: RunFn
    keys: Tuple[str, ...]


@dataclass(frozen=True)
class WorkUnit:
    """One ``(suite, sweep_point, seed)`` replication for the executor."""

    suite: str
    point_index: int
    seed: int
    run: RunFn


class SuitePlan:
    """A suite decomposed into an empty table plus its sweep points.

    Args:
        suite: Suite id (a :data:`repro.experiments.suites.SUITE_PLANS`
            key, ``"E1"``, ``"E15"``, ...).
        table: The result table, with title/columns/caption set and no
            rows; :meth:`reduce` fills it.
        points: The sweep points, in table-row order.
    """

    def __init__(self, suite: str, table: Table, points: Sequence[SweepPoint]) -> None:
        self.suite = suite
        self.table = table
        self.points: List[SweepPoint] = list(points)

    def work_units(self, seeds: Sequence[int]) -> List[WorkUnit]:
        """Flatten the plan into work units, point-major and seed-minor —
        the exact order the serial loop executes them and the order
        :meth:`reduce` expects their rows in. Raises on a plan already
        reduced, so a reused plan fails before any of its units runs."""
        self._check_unreduced()
        return [
            WorkUnit(suite=self.suite, point_index=point_index, seed=seed,
                     run=point.run)
            for point_index, point in enumerate(self.points)
            for seed in seeds
        ]

    def reduce(self, rows: Sequence[Dict[str, float]], seeds: Sequence[int]) -> Table:
        """Fill the table from the rows of :meth:`work_units`, in that order.

        Each point's rows are key-checked and summarized in seed order
        (:func:`~repro.experiments.runner.summarize_replications`). A
        plan reduces once: reducing again raises instead of appending
        duplicate rows to the table.
        """
        from repro.experiments.runner import summarize_replications

        self._check_unreduced()
        for point_index, point in enumerate(self.points):
            start = point_index * len(seeds)
            summaries = summarize_replications(rows[start:start + len(seeds)], seeds)
            self.table.add_row(point.label, *(summaries[k] for k in point.keys))
        return self.table

    def _check_unreduced(self) -> None:
        if self.table.rows:
            raise RuntimeError(
                f"plan {self.suite} already reduced: its table has rows"
            )


def run_plan(plan: SuitePlan, sweep) -> Table:
    """Run a plan's units on ``sweep.jobs`` workers and fill its table.

    This is how the benchmarks and tests run one suite directly;
    :func:`repro.experiments.parallel.run_batch` does the same for a list
    of suites on one shared pool. Plans are single-use (rows append to
    the plan's own table): running a reduced plan again raises before
    any unit runs, so build a fresh plan per run.
    """
    from repro.experiments.parallel import run_units

    seeds = sweep.effective_seeds
    results = run_units(plan.work_units(seeds), sweep.jobs)
    return plan.reduce([result.row for result in results], seeds)
