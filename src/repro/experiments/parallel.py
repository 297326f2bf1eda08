"""The experiment executor and the suite-level batch runner.

Every row of every E-suite is a pure function of its seeds, so running
an experiment is a map over ``(suite, sweep point, seed)``
:class:`~repro.experiments.plan.WorkUnit` triples followed by an
in-order reduce. :func:`run_units` is that map — serially, or on a
``concurrent.futures`` process pool — and :func:`run_batch` is the
reduce for a list of suites.

Determinism contract
--------------------
Parallel results are **bit-identical** to serial results for the same
seeds. Every replication callable derives *all* of its randomness from
its own seed (via :class:`~repro.sim.rng.RngRegistry`) and starts from
rewound id sequences (:func:`~repro.experiments.runner.run_replication`),
so a unit computes the same floats no matter which worker runs it or
when. :func:`run_units` returns results in unit order whatever order
they complete in, and :meth:`~repro.experiments.plan.SuitePlan.reduce`
consumes them in that order.

The pool uses the ``fork`` start method and its initializer installs
the unit list in each worker, so the closure-style ``run`` callables the
suites build (capturing sweep-point parameters as default arguments or
closure variables) are inherited, never pickled — only unit indices travel to the workers.
On platforms without ``fork`` the units run serially, with identical
results.
"""

from __future__ import annotations

import os
import pickle
import time
import traceback
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

from repro.experiments.config import SweepConfig
from repro.experiments.plan import WorkUnit
from repro.experiments.runner import run_replication
from repro.experiments.store import ResultsStore, RunRecord, new_run_record
from repro.experiments.suites import SUITE_PLANS


def available_jobs() -> int:
    """Number of usable CPUs (at least 1)."""
    return os.cpu_count() or 1


def resolve_jobs(jobs: Optional[int], pending: Optional[int] = None) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0`` mean "all cores".

    Args:
        jobs: Requested worker count; ``None`` or ``<= 0`` resolve to
            every core.
        pending: Number of pending work units, when known. The result is
            clamped to it (floor 1), so tiny ``--quick`` runs never fork
            workers that would exit without ever receiving a unit.
    """
    resolved = available_jobs() if jobs is None or jobs <= 0 else int(jobs)
    if pending is not None:
        resolved = max(1, min(resolved, pending))
    return resolved


class UnitResult(NamedTuple):
    """What one work unit reports: its metric row, when it ran
    (``time.perf_counter()`` in the executing process — system-wide
    monotonic on every fork platform, so comparable with the parent's)
    and the id of that process."""

    row: Dict[str, float]
    started: float
    completed: float
    pid: int


def _run_unit(unit: WorkUnit) -> UnitResult:
    started = time.perf_counter()
    row = run_replication(unit.run, unit.seed)
    return UnitResult(row, started, time.perf_counter(), os.getpid())


#: The unit list of the pool this worker process belongs to.
_UNITS: Sequence[WorkUnit] = ()


def _install_units(units: Sequence[WorkUnit]) -> None:
    """Pool initializer: runs in each forked worker, which inherits
    ``units`` (closures included) from the parent without pickling."""
    global _UNITS
    _UNITS = units


def _run_installed(index: int) -> UnitResult:
    """Pool task: run unit ``index`` of the installed list.

    A failure travels back to the parent pickled. Some exceptions pickle
    but fail to *unpickle* (custom ``__init__`` signatures), which would
    break the pool with an unrelated error; those are re-raised as a
    ``RuntimeError`` carrying the original traceback. The absorbed types
    are exactly how a failed round-trip presents: ``PickleError`` from
    the protocol itself, ``TypeError``/``AttributeError``/``ValueError``
    from ``__reduce__`` or re-construction of exotic signatures.
    """
    unit = _UNITS[index]
    try:
        return _run_unit(unit)
    except BaseException as exc:  # noqa: BLE001 - re-raised, maybe wrapped
        try:
            pickle.loads(pickle.dumps(exc))
        except (pickle.PickleError, TypeError, AttributeError, ValueError):
            raise RuntimeError(
                f"unit {unit.suite}[point {unit.point_index}] with seed "
                f"{unit.seed} failed with an unpicklable "
                f"{type(exc).__name__}:\n" + traceback.format_exc()
            ) from None
        raise


def run_units(
    units: Sequence[WorkUnit],
    jobs: Optional[int] = 1,
    on_result: Optional[Callable[[int, UnitResult], None]] = None,
) -> List[UnitResult]:
    """Run every unit and return the results in ``units`` order.

    Args:
        units: The work units.
        jobs: Worker processes. ``1`` (or a platform without ``fork``)
            runs the units serially in this process; ``None``/``0`` use
            every core. The pool is never larger than ``len(units)``.
        on_result: Called in this process with ``(position, result)`` as
            each unit succeeds, in completion order. Lets
            :func:`run_batch` emit a suite as soon as its last unit
            lands.

    Fail-fast: the first failure cancels the units not yet started,
    units already running finish, and the failure of the earliest unit
    in list order is raised — for a single failing unit, exactly the
    error a serial run raises. A worker process that dies makes the
    pool raise ``BrokenProcessPool`` (a ``RuntimeError``).
    """
    results: List[Optional[UnitResult]] = [None] * len(units)

    def land(index: int, result: UnitResult) -> None:
        results[index] = result
        if on_result is not None:
            on_result(index, result)

    jobs = resolve_jobs(jobs, pending=len(units))
    if jobs > 1:
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            jobs = 1
    if jobs <= 1:
        for index, unit in enumerate(units):
            land(index, _run_unit(unit))
        return results  # type: ignore[return-value]

    from concurrent.futures import ProcessPoolExecutor, as_completed

    pool = ProcessPoolExecutor(
        max_workers=jobs,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_install_units,
        initargs=(list(units),),
    )
    try:
        futures = [pool.submit(_run_installed, index) for index in range(len(units))]
        position = {future: index for index, future in enumerate(futures)}
        for future in as_completed(futures):
            if future.exception() is not None:
                break
            land(position[future], future.result())
    finally:
        # Cancels what has not started and waits for what has.
        pool.shutdown(cancel_futures=True)
    for index, future in enumerate(futures):
        if results[index] is None and not future.cancelled():
            land(index, future.result())  # raises the earliest failure
    return results  # type: ignore[return-value]


# --------------------------------------------------------------------------
# Suite-level batch runner
# --------------------------------------------------------------------------


def _check_names(names: Sequence[str]) -> None:
    unknown = [n for n in names if n not in SUITE_PLANS]
    if unknown:
        raise KeyError(
            f"unknown suite {unknown[0]!r}; available: {', '.join(SUITE_PLANS)}"
        )


def run_batch(
    names: Sequence[str],
    sweep: SweepConfig = SweepConfig(),
    store: Optional[ResultsStore] = None,
    echo: Optional[Callable[[RunRecord], None]] = None,
) -> List[RunRecord]:
    """Run several suites through one :func:`run_units` call.

    The work units of every requested suite go to one pool of
    ``sweep.jobs`` workers, so workers stay busy across sweep-point and
    suite boundaries. Each suite's table is reduced in unit order, which
    makes every record bit-identical to a serial run.

    Suites are persisted and echoed in ``names`` order as they finish:
    the moment a suite's last unit (and every earlier suite) has
    completed, it reduces, saves and echoes — a mid-batch failure or
    interrupt therefore keeps the reports of the suites already emitted.

    Each record's ``wall_time_s`` spans the suite's first unit starting
    → its last unit completing. Under ``jobs = 1`` units run
    back-to-back, so that is exactly the suite's own duration; under
    ``jobs > 1`` suites share the pool and execute interleaved, so
    their spans overlap and do not add up to the batch duration.

    Args:
        names: Suite ids (keys of ``SUITE_PLANS``) to run, in order.
        sweep: Shared sweep settings (seeds, quick mode, jobs).
        store: Destination for the ``BENCH_<suite>.json`` reports;
            ``None`` skips persistence.
        echo: Per-record progress callback (e.g. table printing).

    Returns:
        One :class:`~repro.experiments.store.RunRecord` per suite, in
        ``names`` order.

    Raises:
        KeyError: If any name is not a known suite id.
    """
    _check_names(names)
    seeds = sweep.effective_seeds
    plans = [SUITE_PLANS[name](sweep) for name in names]
    units: List[WorkUnit] = []
    spans = []  # each plan's own [start, stop) slice of `units`
    for plan in plans:
        start = len(units)
        units.extend(plan.work_units(seeds))
        spans.append((start, len(units)))
    results: List[Optional[UnitResult]] = [None] * len(units)
    records: List[RunRecord] = []

    def on_result(index: int, result: UnitResult) -> None:
        results[index] = result
        # Emit finished suites in `names` order, as soon as possible.
        while len(records) < len(plans):
            start, stop = spans[len(records)]
            done = results[start:stop]
            if None in done:
                return
            plan = plans[len(records)]
            table = plan.reduce([r.row for r in done], seeds)
            wall = max(r.completed for r in done) - min(r.started for r in done)
            record = new_run_record(plan.suite, table, sweep, wall)
            if store is not None:
                store.write_bench(record)
            if echo is not None:
                echo(record)
            records.append(record)

    run_units(units, sweep.jobs, on_result=on_result)
    return records
