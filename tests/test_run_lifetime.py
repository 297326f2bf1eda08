"""A finished run is freed by reference counting alone.

No part of a run may outlive it in a reference cycle: its cluster, its
session driver and engine, and the task profiles whose memos (ladders,
demand, steps, degrade walks) its sessions share; on the agent path,
its agents, their handler tables and inboxes, and the events still
pending when the negotiation ends. Otherwise the whole run waits for
the cyclic collector, and peak memory follows the collector's timing
instead of the program's.

Each configuration here is a shortened perf workload that keeps the
features which used to leave cycles behind: streaming sessions
(contend), shards with waypoint mobility, crashes and drain (e22), a
fault plan with a partition and a crash hazard (e23), one agent
negotiation, which leaves lease sweeps and cancelled award timers in
the engine's queue (e18), and sequential agent negotiations under
waypoint mobility, whose next mobility tick is still queued when the
run ends (e5).
"""

from __future__ import annotations

import collections
import gc
import weakref

import pytest

import repro.workloads.contention as contention
from repro.core.negotiation import release_coalition
from repro.experiments import ClusterConfig, build_agent_system
from repro.faults import CrashHazard, FaultPlan, Partition
from repro.network.mobility import RandomWaypoint
from repro.resources.node import NodeClass
from repro.services.workload import movie_playback_service
from repro.sessions import SessionPolicy
from repro.shard import run_sharded_contention
from repro.shard.partition import ShardGrid
from repro.sim.rng import RngRegistry
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
    sessions=SessionPolicy(),
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
    sessions=SessionPolicy(keepalive=2.5, partition_grace=15.0),
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

AGENTS = ClusterConfig(n_nodes=32, area=100.0)

MOBILE = ClusterConfig(n_nodes=12, area=220.0)


def negotiate_once(seed: int = 1):
    """E18's replication on 32 nodes: a fresh agent system, one
    negotiation of the movie service, and the system and its outcome."""
    system = build_agent_system(AGENTS, seed, reliable_channel=True)
    outcome = system.negotiate(movie_playback_service(requester="requester"))
    assert outcome is not None and outcome.success
    return system, outcome


def negotiate_while_moving(seed: int = 1) -> int:
    """E5's quick replication at 5 m/s: 12 nodes under random waypoint,
    mobility ticking every second until 160 s, and four movie requests
    30 s apart. Returns how many negotiations ended with an outcome."""
    mobility = RandomWaypoint(
        width=MOBILE.area, height=MOBILE.area, speed_min=0.0, speed_max=5.0,
        pause=1.0, rng=RngRegistry(seed).stream("mobility"),
    )
    system = build_agent_system(MOBILE, seed, mobility=mobility)
    system.start_mobility_process(tick=1.0, until=160.0)
    outcomes = 0
    for r in range(4):
        outcome = system.negotiate(
            movie_playback_service(requester="requester", name=f"movie-{r}")
        )
        if outcome is not None:
            outcomes += 1
            release_coalition(outcome.coalition, system.providers, system.engine.now)
        system.engine.run(until=system.engine.now + 30.0)
    assert system.engine.pending  # the next mobility tick
    return outcomes


RUNS = {
    "contend": lambda: len(run_contention(1, CONTEND).sessions),
    "e22": lambda: len(
        run_sharded_contention(
            1, SHARDED, grid=ShardGrid(SHARDED.area, SHARDED.area, 2, 2)
        ).sessions
    ),
    "e23": lambda: len(run_contention(1, FAULTED).sessions),
    "e18": lambda: len(negotiate_once()[1].coalition.awards),
    "e5": negotiate_while_moving,
}


@pytest.mark.parametrize("name", list(RUNS))
def test_a_finished_run_leaves_no_cyclic_garbage(name):
    """Under ``DEBUG_SAVEALL`` the collector keeps whatever it finds
    unreachable, so after one replication that dropped everything it
    made, ``gc.collect()`` counts exactly the objects that only cycles
    kept alive. Each run returns how many sessions (awards for e18,
    outcomes for e5) it produced, so that none is vacuous."""
    assert RUNS[name]()  # warm imports and lazy module state
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert RUNS[name]()
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


def test_a_dropped_agent_system_dies_without_the_collector():
    """With the collector off, dropping an agent system frees it, its
    engine and every agent at once, although the engine's queue still
    holds the agents' lease sweeps and the organizer's cancelled award
    timers: the network holds inboxes weakly, no agent holds its own
    bound methods, a pending sweep holds its agent weakly and a
    cancelled timer drops its callback."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        system, outcome = negotiate_once()
        assert system.engine.pending  # the lease sweeps of the awards
        cancelled = [e for e in system.engine._heap if e.cancelled]
        assert cancelled  # one award timer per confirmed remote award
        refs = [weakref.ref(system), weakref.ref(system.engine), weakref.ref(system.network)]
        refs += [weakref.ref(agent) for agent in system.provider_agents.values()]
        refs += [weakref.ref(agent) for agent in system.organizers.values()]
        del system, cancelled
        alive = [ref() for ref in refs if ref() is not None]
    finally:
        if was_enabled:
            gc.enable()
    assert outcome.success
    assert alive == []
