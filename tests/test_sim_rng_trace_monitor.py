"""Unit tests for RNG streams and the trace sink, and checks that a sink
never feeds back into a run."""

from __future__ import annotations

import functools

import pytest

import repro.sessions.driver as driver_module
import repro.sim.engine as engine_module
from repro.experiments.config import ClusterConfig
from repro.experiments.scenario import build_agent_system
from repro.faults import AgentFaults, CrashHazard, FaultPlan, GilbertElliott, Partition
from repro.services import workload
from repro.sessions import SessionPolicy
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry, derive_seed
from repro.sim.sequences import reset_all_sequences
from repro.workloads.arrivals import PoissonProcess
from repro.workloads.contention import ContentionConfig, run_contention
from repro.workloads.rates import ConstantRate


# -- RNG ------------------------------------------------------------------


def test_derive_seed_deterministic_and_distinct():
    assert derive_seed(1, "a") == derive_seed(1, "a")
    assert derive_seed(1, "a") != derive_seed(1, "b")
    assert derive_seed(1, "a") != derive_seed(2, "a")


def test_streams_are_cached():
    reg = RngRegistry(7)
    assert reg.stream("x") is reg.stream("x")


def test_streams_independent_of_creation_order():
    reg1 = RngRegistry(7)
    a_first = reg1.stream("a").random(5).tolist()

    reg2 = RngRegistry(7)
    reg2.stream("b")  # create another stream first
    a_second = reg2.stream("a").random(5).tolist()
    assert a_first == a_second


def test_same_seed_same_draws():
    xs = RngRegistry(42).stream("s").random(10)
    ys = RngRegistry(42).stream("s").random(10)
    assert (xs == ys).all()


def test_fork_differs_from_parent():
    reg = RngRegistry(42)
    fork = reg.fork("child")
    assert fork.seed != reg.seed
    assert (fork.stream("s").random(4) != reg.stream("s").random(4)).any()


def test_contains():
    reg = RngRegistry(1)
    assert "m" not in reg
    reg.stream("m")
    assert "m" in reg


# -- trace sink --------------------------------------------------------------


def test_sink_receives_records_in_event_order_at_the_engine_clock():
    records = []
    eng = Engine(trace=records.append)
    eng.schedule(2.0, lambda now: eng.emit("net", "lost", mid=2))
    eng.schedule(1.0, lambda now: eng.emit("net", "sent", mid=1))
    eng.schedule(3.0, lambda now: eng.emit("negotiation", "cfp"))
    eng.run()
    assert [(r.time, r.category, r.event, r.data) for r in records] == [
        (1.0, "net", "sent", {"mid": 1}),
        (2.0, "net", "lost", {"mid": 2}),
        (3.0, "negotiation", "cfp", {}),
    ]


def test_an_engine_without_a_sink_builds_no_record(monkeypatch):
    built = []
    monkeypatch.setattr(engine_module, "TraceRecord", lambda *args: built.append(args))
    eng = Engine()
    assert eng.trace is None
    eng.schedule(1.0, lambda now: eng.emit("net", "sent", mid=1))
    eng.run()
    assert built == []
    # The count above is live: the same emit with a sink builds one record.
    eng.trace = lambda record: None
    eng.emit("net", "sent", mid=2)
    assert built == [(1.0, "net", "sent", {"mid": 2})]


def test_trace_record_str():
    records = []
    eng = Engine(trace=records.append)
    eng.schedule(1.5, lambda now: eng.emit("net", "sent", mid=7))
    eng.run()
    text = str(records[0])
    assert "net/sent" in text and "mid=7" in text


# -- a sink never changes a run ---------------------------------------------


def _negotiation(seed, trace):
    reset_all_sequences()
    system = build_agent_system(ClusterConfig(n_nodes=32, area=100.0), seed)
    system.engine.trace = trace
    outcome = system.negotiate(workload.movie_playback_service(requester="requester"))
    awards = {
        task_id: (a.node_id, a.proposal.values, a.distance, a.comm_cost)
        for task_id, a in outcome.coalition.awards.items()
    }
    return (
        awards, outcome.unallocated, outcome.candidates,
        outcome.proposals_received, outcome.message_count,
        system.engine.now, system.engine.events_fired,
        system.network.sent_count, system.network.lost_count,
    )


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_sink_never_changes_a_negotiation(seed):
    records = []
    assert _negotiation(seed, records.append) == _negotiation(seed, None)
    assert any(r.category == "net" for r in records)
    assert any(r.event == "complete" for r in records)


#: Burst loss, one partition, recovering crashes, agent faults and drain.
_HELPERS = 22
_FAULTED = ContentionConfig(
    n_requesters=2,
    arrival=PoissonProcess(rate=1.0 / 6.0),
    horizon=90.0,
    n_nodes=2 + _HELPERS,
    sessions=SessionPolicy(keepalive=2.5, partition_grace=15.0, drain=30.0),
    faults=FaultPlan(
        link=GilbertElliott(p_gb=0.02, p_bg=0.1, loss_good=0.01, loss_bad=0.8),
        partitions=(
            Partition(
                start=30.0,
                duration=25.0,
                group_a=("req0", "req1") + tuple(f"n{i}" for i in range(0, _HELPERS, 2)),
                group_b=tuple(f"n{i}" for i in range(1, _HELPERS, 2)),
            ),
        ),
        crashes=CrashHazard(shape=ConstantRate(1.0 / 15.0), recover_after=20.0),
        agents=AgentFaults(drop_propose=0.05, stale_propose=0.05, refuse_award=0.05),
    ),
)


def _contention(seed, monkeypatch, trace):
    reset_all_sequences()
    monkeypatch.setattr(driver_module, "Engine", functools.partial(Engine, trace=trace))
    result = run_contention(seed, _FAULTED)
    return result.sessions, result.resilience.metrics()


@pytest.mark.parametrize("seed", [1, 2])
def test_a_sink_never_changes_a_faulted_contention_run(seed, monkeypatch):
    records = []
    traced = _contention(seed, monkeypatch, records.append)
    assert traced == _contention(seed, monkeypatch, None)
    assert traced[1]["award_retries"] > 0
    assert {r.category for r in records} >= {"faults", "session"}
