"""A finished contention run is freed by reference counting alone.

No part of a run may outlive it in a reference cycle: its cluster, its
session driver and engine, and the task profiles whose memos (ladders,
demand, steps, degrade walks) its sessions share. Otherwise the whole
run waits for the cyclic collector, and peak memory follows the
collector's timing instead of the program's.

Each configuration here is a shortened perf workload that keeps the
features which used to leave cycles behind: streaming sessions
(contend), shards with waypoint mobility, crashes and drain (e22), and
a fault plan with a partition and a crash hazard (e23).
"""

from __future__ import annotations

import collections
import gc
import weakref

import pytest

import repro.workloads.contention as contention
from repro.faults import CrashHazard, FaultPlan, Partition
from repro.resources.node import NodeClass
from repro.sessions import SessionPolicy
from repro.shard import run_sharded_contention
from repro.shard.partition import ShardGrid
from repro.workloads import ConstantRate, FixedIntervalProcess, PoissonProcess
from repro.workloads.contention import ContentionConfig, run_contention

_FAMILIES = ("movie", "speech", "sensor-fusion", "navigation")

CONTEND = ContentionConfig(
    n_requesters=8,
    families=_FAMILIES,
    arrival=PoissonProcess(rate=1.0 / 4.0),
    horizon=12.0,
    n_nodes=64,
    area=480.0,
    radio_range=100.0,
    sessions=SessionPolicy(operate=True),
)

SHARDED = ContentionConfig(
    n_requesters=4,
    families=_FAMILIES,
    arrival=FixedIntervalProcess(interval=10.0),
    horizon=30.0,
    n_nodes=96,
    area=580.0,
    radio_range=100.0,
    sessions=SessionPolicy(
        operate=True,
        failure_rate=1.0 / 50.0,
        drain=30.0,
        mobility="waypoint",
        mobility_speed=4.0,
    ),
)

FAULTED = ContentionConfig(
    n_requesters=4,
    families=_FAMILIES,
    arrival=PoissonProcess(rate=1.0 / 4.0),
    horizon=24.0,
    n_nodes=48,
    area=420.0,
    radio_range=100.0,
    sessions=SessionPolicy(operate=True, keepalive=2.5, partition_grace=15.0),
    faults=FaultPlan(
        partitions=(
            Partition(
                start=8.0,
                duration=10.0,
                group_a=tuple(f"req{k}" for k in range(4))
                + tuple(f"n{i}" for i in range(0, 44, 2)),
                group_b=tuple(f"n{i}" for i in range(1, 44, 2)),
            ),
        ),
        crashes=CrashHazard(shape=ConstantRate(0.5), recover_after=10.0),
    ),
)

RUNS = {
    "contend": lambda: run_contention(1, CONTEND),
    "e22": lambda: run_sharded_contention(
        1, SHARDED, grid=ShardGrid(SHARDED.area, SHARDED.area, 2, 2)
    ),
    "e23": lambda: run_contention(1, FAULTED),
}


@pytest.mark.parametrize("name", list(RUNS))
def test_a_finished_run_leaves_no_cyclic_garbage(name):
    """Under ``DEBUG_SAVEALL`` the collector keeps whatever it finds
    unreachable, so after one dropped replication ``gc.collect()``
    counts exactly the objects that only cycles kept alive."""
    result = RUNS[name]()  # warm imports and lazy module state
    assert result.sessions
    del result
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        result = RUNS[name]()
        assert result.sessions
        del result
        found = gc.collect()
        leaked = collections.Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert found == 0, f"{found} cyclic objects: {leaked.most_common(12)}"


@pytest.mark.parametrize(
    "requester_class, exhausted",
    [
        # A phone requester answers its own CFP and fits no level, so
        # every walk runs out; a laptop fits early, so some walk stops.
        pytest.param(NodeClass.PHONE, True, id="exhausted"),
        pytest.param(NodeClass.LAPTOP, False, id="unfinished"),
    ],
)
def test_task_profiles_die_with_their_run(monkeypatch, requester_class, exhausted):
    """The task profiles a run shares across its sessions, with every
    walk, step, reward and demand memo on them, are freed by reference
    counting when the run returns, whether their walks ran to the end
    or stopped early: nothing module-level keeps them, and no memo
    holds a cycle through a profile."""
    profiles = []
    # Holding the walk memos, but not their profiles, also checks that
    # no memo keeps another profile alive.
    walk_caches = []
    build_service = contention.build_service

    def recording(*args, **kwargs):
        service = build_service(*args, **kwargs)
        for task in service.tasks:
            profiles.append(weakref.ref(task.profile))
            walk_caches.append(task.profile._walk_cache)
        return service

    monkeypatch.setattr(contention, "build_service", recording)
    config = CONTEND.replace(requester_class=requester_class)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        result = run_contention(1, config)
        dead = [ref() is None for ref in profiles]
    finally:
        if was_enabled:
            gc.enable()
    assert result.sessions
    # One build per family (the later sessions reuse its profiles) ...
    assert len(profiles) == sum(
        len(build_service(family, "r").tasks) for family in _FAMILIES
    )
    # ... whose walks, memoized during the run, died with them.
    walks = [walk for cache in walk_caches for _refs, walk in cache.values()]
    assert all(walk_caches)
    assert all(walk.exhausted for walk in walks) == exhausted
    assert dead == [True] * len(profiles)
