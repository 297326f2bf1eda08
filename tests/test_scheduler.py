"""Tests for the experiment executor (sweep-point parallelism)."""

from __future__ import annotations

import multiprocessing as mp
import os
import time

import pytest

#: Pool-behavior tests need real workers; without ``fork`` the executor
#: deliberately degrades to serial execution (same results, one worker).
requires_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="platform has no fork start method; units run serially",
)

from repro.experiments.config import SweepConfig
from repro.experiments.parallel import (
    available_jobs,
    resolve_jobs,
    run_batch,
    run_units,
)
from repro.experiments.plan import SuitePlan, SweepPoint, run_plan
from repro.experiments.reporting import Table
from repro.experiments.store import ResultsStore
from repro.experiments.suites import SUITE_PLANS
from repro.sim.rng import RngRegistry


def _point_run(offset: float, delay: float = 0.0):
    """A suite-style replication: all randomness from the seed."""

    def run(seed: int, offset=offset, delay=delay) -> dict:
        if delay:
            time.sleep(delay)
        rng = RngRegistry(seed).stream("sched")
        return {"draw": float(rng.random()) + offset, "seed": float(seed)}

    return run


def _toy_plan(n_points: int = 3, delay: float = 0.0) -> SuitePlan:
    table = Table("toy", ["point", "draw", "seed"])
    points = [
        SweepPoint(label=i, run=_point_run(10.0 * i, delay), keys=("draw", "seed"))
        for i in range(n_points)
    ]
    return SuitePlan("TOY", table, points)


# -- work-unit enumeration -----------------------------------------------------


def test_work_units_enumerate_point_major_seed_minor():
    units = _toy_plan(2).work_units((7, 9))
    assert [(u.point_index, u.seed) for u in units] == [
        (0, 7), (0, 9), (1, 7), (1, 9),
    ]
    assert all(u.suite == "TOY" for u in units)


# -- out-of-order completion ---------------------------------------------------


@requires_fork
def test_out_of_order_completion_is_bit_identical_to_serial():
    """Early units sleep, late units don't: completion order inverts the
    submission order, yet the reduced table equals the serial one."""
    seeds = (1, 2, 3)

    def build(delayed: bool) -> SuitePlan:
        table = Table("toy", ["point", "draw", "seed"])
        points = []
        for i in range(3):
            # Point 0 is slowest, point 2 fastest → later sweep points
            # finish first under the pool.
            delay = (0.15 * (3 - i)) if delayed else 0.0
            points.append(SweepPoint(
                label=i, run=_point_run(10.0 * i, delay), keys=("draw", "seed"),
            ))
        return SuitePlan("TOY", table, points)

    serial_plan = build(delayed=False)
    serial_rows = [r.row for r in run_units(serial_plan.work_units(seeds), jobs=1)]
    serial_table = serial_plan.reduce(serial_rows, seeds)

    pool_plan = build(delayed=True)
    completion_order = []
    results = run_units(
        pool_plan.work_units(seeds), jobs=4,
        on_result=lambda index, result: completion_order.append(index),
    )
    pool_table = pool_plan.reduce([r.row for r in results], seeds)

    # Sleeps only slow execution down; they never change the values, so
    # the delayed pool table must equal the undelayed serial table.
    assert pool_table == serial_table
    # The pool really did complete units out of submission order (the
    # in-order results are what restore determinism, not lucky
    # scheduling): completion order is not the unit order.
    assert sorted(completion_order) == list(range(len(results)))
    assert completion_order != sorted(completion_order)
    by_completion = sorted(range(len(results)), key=lambda i: results[i].completed)
    assert by_completion != sorted(by_completion)


@requires_fork
def test_scheduler_spreads_points_across_workers():
    """With jobs > seeds-per-point, workers must take units from several
    sweep points concurrently — the PR 1 pool could never do this."""
    seeds = (1, 2)  # 2 seeds per point
    plan = _toy_plan(n_points=4, delay=0.2)
    units = plan.work_units(seeds)
    results = run_units(units, jobs=8)  # 8 units → 8 workers

    workers_used = {r.pid for r in results}
    # More workers active than one point has seeds → points ran concurrently.
    assert len(workers_used) > len(seeds)
    points_by_worker_wave = {r.pid: u.point_index for r, u in zip(results, units)}
    assert len(set(points_by_worker_wave.values())) > 1


def test_scheduler_propagates_earliest_unit_failure():
    seeds = (1, 2, 3)
    table = Table("toy", ["point", "x"])

    def boom(seed: int) -> dict:
        if seed >= 2:
            raise RuntimeError(f"seed {seed} exploded")
        return {"x": float(seed)}

    plan = SuitePlan("TOY", table, [SweepPoint(0, boom, ("x",))])
    with pytest.raises(RuntimeError, match="seed 2 exploded"):
        run_units(plan.work_units(seeds), jobs=3)


@requires_fork
def test_scheduler_fails_fast_cancelling_pending_units(tmp_path):
    """After the first failure the pool stops dispatching: most of the
    queue never executes, instead of burning the whole batch. Every unit
    that starts leaves a marker file (forked workers share the disk, not
    the parent's memory), so units that ran but never reached
    ``on_result`` are counted too."""
    def boom(seed: int) -> dict:
        (tmp_path / f"ran-{seed}").touch()
        if seed == 1:
            raise RuntimeError("early boom")
        # Long enough that 4 workers cannot drain the whole queue before
        # the parent reacts to the failure, even on a loaded CI box —
        # the cancel path is what makes the test finish fast.
        time.sleep(0.25)
        return {"x": float(seed)}

    table = Table("toy", ["point", "x"])
    plan = SuitePlan("TOY", table, [SweepPoint(0, boom, ("x",))])
    with pytest.raises(RuntimeError, match="early boom"):
        run_units(plan.work_units(range(1, 41)), jobs=4)
    # run_units waits for the units already running, so the count is final.
    ran = len(list(tmp_path.glob("ran-*")))
    assert 1 <= ran < 39


@requires_fork
def test_a_dying_worker_fails_the_run():
    """A worker process that exits without reporting (a crash, an OOM
    kill) makes the run raise instead of waiting for its unit forever."""
    def die(seed: int) -> dict:
        if seed == 2:
            os._exit(3)
        return {"x": float(seed)}

    plan = SuitePlan("TOY", Table("toy", ["point", "x"]),
                     [SweepPoint(0, die, ("x",))])
    started = time.perf_counter()
    with pytest.raises(RuntimeError):
        run_units(plan.work_units((1, 2, 3)), jobs=2)
    assert time.perf_counter() - started < 30.0


def test_reused_plan_raises_before_running_a_unit():
    calls = []

    def run(seed: int) -> dict:
        calls.append(seed)
        return {"x": float(seed)}

    plan = SuitePlan("TOY", Table("toy", ["point", "x"]),
                     [SweepPoint(0, run, ("x",))])
    sweep = SweepConfig(seeds=(1, 2), jobs=1)
    run_plan(plan, sweep)
    assert calls == [1, 2]
    with pytest.raises(RuntimeError, match="already reduced"):
        run_plan(plan, sweep)
    assert calls == [1, 2]
    assert len(plan.table.rows) == 1


def test_scheduler_empty_units():
    assert run_units([], jobs=4) == []


# -- resolve_jobs clamping -----------------------------------------------------


def test_resolve_jobs_clamps_to_pending_units():
    assert resolve_jobs(16, pending=3) == 3
    assert resolve_jobs(None, pending=2) == min(available_jobs(), 2)
    assert resolve_jobs(0, pending=1) == 1
    assert resolve_jobs(2, pending=0) == 1  # floor: never zero workers
    assert resolve_jobs(2, pending=100) == 2
    # Without a pending count the PR 1 semantics are unchanged.
    assert resolve_jobs(None) == available_jobs()
    assert resolve_jobs(4) == 4


@requires_fork
def test_quick_run_does_not_fork_idle_workers():
    """A tiny --quick batch forks fewer workers than requested."""
    sweep = SweepConfig(seeds=(1,), quick=True, jobs=16)
    units = SUITE_PLANS["E2"](sweep).work_units(sweep.effective_seeds)
    alive = []
    run_units(units, jobs=16,
              on_result=lambda index, result: alive.append(len(mp.active_children())))
    assert 1 < max(alive) <= len(units) < 16


# -- full-batch determinism ----------------------------------------------------


def test_batch_with_jobs_above_seed_count_is_bit_identical():
    """A multi-suite batch with jobs > seeds-per-point reduces to the
    same BENCH summaries as a serial run (the ISSUE's acceptance bar)."""
    names = ["E2", "E9"]
    serial = run_batch(names, SweepConfig(seeds=(1, 2), quick=True, jobs=1))
    parallel = run_batch(names, SweepConfig(seeds=(1, 2), quick=True, jobs=4))
    assert [r.suite for r in parallel] == names
    for a, b in zip(serial, parallel):
        comparison = ResultsStore.compare(a, b)
        assert comparison.identical, (a.suite, comparison.differences)


def test_batch_bench_files_bit_identical_serial_vs_parallel(tmp_path):
    """BENCH_*.json written under --jobs 4 byte-match the summaries of a
    --jobs 1 run after the store round-trip."""
    names = ["E2", "E9"]
    serial_store = ResultsStore(tmp_path / "serial")
    parallel_store = ResultsStore(tmp_path / "parallel")
    run_batch(names, SweepConfig(seeds=(1, 2), quick=True, jobs=1),
              store=serial_store)
    run_batch(names, SweepConfig(seeds=(1, 2), quick=True, jobs=4),
              store=parallel_store)
    for name in names:
        comparison = ResultsStore.compare(
            serial_store.load_bench(name), parallel_store.load_bench(name)
        )
        assert comparison.identical, (name, comparison.differences)


def test_run_suite_routes_through_shared_scheduler():
    """One suite is a batch of one: run_batch([name])[0]."""
    [record] = run_batch(["E2"], SweepConfig(seeds=(1, 2), quick=True, jobs=4))
    assert record.suite == "E2"
    assert record.jobs == 4
    assert record.wall_time_s > 0.0
    [serial] = run_batch(["E2"], SweepConfig(seeds=(1, 2), quick=True, jobs=1))
    assert ResultsStore.compare(record, serial).identical


def test_run_batch_unknown_suite_raises_before_any_work():
    with pytest.raises(KeyError, match="unknown suite"):
        run_batch(["E2", "E99"])


def test_run_batch_echoes_in_request_order():
    seen = []
    run_batch(["E9", "E2"], SweepConfig(seeds=(1, 2), quick=True, jobs=4),
              echo=lambda r: seen.append(r.suite))
    assert seen == ["E9", "E2"]


def test_mid_batch_failure_keeps_already_finished_suites(tmp_path, monkeypatch):
    """A failing suite aborts the batch, but suites that completed before
    it are already persisted — the PR 1 suite-at-a-time contract."""
    import repro.experiments.suites as suites_module

    def bad_plan(sweep):
        table = Table("bad", ["point", "x"])

        def boom(seed: int) -> dict:
            raise RuntimeError("suite exploded")

        return SuitePlan("EBAD", table, [SweepPoint(0, boom, ("x",))])

    monkeypatch.setitem(suites_module.SUITE_PLANS, "EBAD", bad_plan)
    store = ResultsStore(tmp_path)
    with pytest.raises(RuntimeError, match="suite exploded"):
        run_batch(["E2", "EBAD"],
                  SweepConfig(seeds=(1, 2), quick=True, jobs=1), store=store)
    assert store.bench_path("E2").exists()
    assert not store.bench_path("EBAD").exists()


# -- plan/table interface ------------------------------------------------------


def test_plans_and_table_callables_agree():
    """Every suite id E1–E23 has a plan builder, and running a plan
    directly produces the same table as a batch, serial or pooled."""
    assert list(SUITE_PLANS) == [f"E{i}" for i in range(1, 24)]
    sweep = SweepConfig(seeds=(1, 2), quick=True, jobs=1)
    direct = run_plan(SUITE_PLANS["E2"](sweep), sweep)
    assert run_batch(["E2"], sweep)[0].table == direct
    pooled = SweepConfig(seeds=(1, 2), quick=True, jobs=2)
    assert run_plan(SUITE_PLANS["E2"](pooled), pooled) == direct


def test_suite_callables_keep_docstrings():
    """The CLI's --list prints each plan builder's first docstring line."""
    for name, builder in SUITE_PLANS.items():
        assert builder.__doc__, f"{name} lost its docstring"
        first = builder.__doc__.strip().splitlines()[0]
        assert first, name
