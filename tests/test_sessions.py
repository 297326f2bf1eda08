"""Tests for the streaming-session lifecycle (repro.sessions) and the
config/shim surface of the redesigned run_contention."""

from __future__ import annotations

import pytest

import repro
from repro.core.reputation import ReputationTracker
from repro.errors import SessionStateError
from repro.network.radio import DiscRadio
from repro.network.topology import Topology
from repro.resources.node import Node, NodeClass
from repro.resources.provider import QoSProvider
from repro.services import workload
from repro.sessions import (
    ACTIVE_STATES,
    MOBILITY_MODES,
    SESSION_TRANSITIONS,
    Session,
    SessionDriver,
    SessionPolicy,
    SessionState,
)
from repro.workloads.contention import ContentionConfig, run_contention


# -- fixtures ---------------------------------------------------------------


def _streaming_cluster(extra_laptops: int = 1):
    """The conftest small_cluster plus optional spare laptops, so
    renegotiation always has somewhere to go."""
    nodes = [
        Node("requester", NodeClass.PHONE, position=(50.0, 50.0)),
        Node("pda", NodeClass.PDA, position=(60.0, 50.0)),
        Node("lap1", NodeClass.LAPTOP, position=(40.0, 50.0)),
        Node("lap2", NodeClass.LAPTOP, position=(50.0, 70.0)),
    ]
    for i in range(extra_laptops):
        nodes.append(
            Node(f"lap{3 + i}", NodeClass.LAPTOP, position=(60.0, 60.0 + 5 * i))
        )
    topology = Topology(nodes, DiscRadio(range_m=100.0))
    providers = {n.node_id: QoSProvider(n) for n in nodes}
    return topology, providers, nodes


def _crash_holders(session, topology):
    """An engine callback that crashes every helper currently serving
    the session (victims chosen at fire time, so tests never hard-code
    the selection policy's placement)."""
    victims = []

    def crash(now):
        for task_id in sorted(session.live_tasks):
            node = topology.node(session.coalition.awards[task_id].node_id)
            if node.alive and node.node_id != session.service.requester:
                node.fail()
                victims.append(node.node_id)
        topology.rebuild()

    return crash, victims


def _all_released(providers):
    return all(
        p.node.manager.reserved.is_zero for p in providers.values() if p.node.alive
    )


STREAMING = SessionPolicy(operate=True, keepalive=5.0, max_renegotiations=2)


# -- the state machine ------------------------------------------------------


def test_happy_path_walks_the_machine(movie_service):
    s = Session(movie_service, arrival=0.0, duration=30.0)
    assert s.state is SessionState.NEGOTIATING and not s.admitted
    s.transition(SessionState.OPERATING, 0.0)
    s.transition(SessionState.DEGRADED, 10.0)
    s.transition(SessionState.RENEGOTIATING, 10.0)
    s.transition(SessionState.OPERATING, 10.0)
    s.transition(SessionState.CLOSED, 30.0)
    assert s.ended_at == 30.0
    assert [state for _t, state in s.transitions] == [
        SessionState.NEGOTIATING, SessionState.OPERATING,
        SessionState.DEGRADED, SessionState.RENEGOTIATING,
        SessionState.OPERATING, SessionState.CLOSED,
    ]


@pytest.mark.parametrize("start, bad", [
    (SessionState.NEGOTIATING, SessionState.DEGRADED),
    (SessionState.NEGOTIATING, SessionState.RENEGOTIATING),
    (SessionState.OPERATING, SessionState.RENEGOTIATING),
    (SessionState.OPERATING, SessionState.DROPPED),
    (SessionState.RENEGOTIATING, SessionState.CLOSED),
])
def test_illegal_transitions_raise(movie_service, start, bad):
    s = Session(movie_service, arrival=0.0, duration=30.0)
    s.state = start  # jump the machine for the check itself
    with pytest.raises(SessionStateError, match="illegal transition"):
        s.transition(bad, 1.0)


@pytest.mark.parametrize("terminal", [SessionState.CLOSED, SessionState.DROPPED])
def test_terminal_states_reject_everything(movie_service, terminal):
    s = Session(movie_service, arrival=0.0, duration=30.0)
    assert SESSION_TRANSITIONS[terminal] == ()
    s.state = terminal
    for state in SessionState:
        with pytest.raises(SessionStateError):
            s.transition(state, 1.0)


def test_transition_table_is_closed_over_states():
    assert set(SESSION_TRANSITIONS) == set(SessionState)
    for targets in SESSION_TRANSITIONS.values():
        assert set(targets) <= set(SessionState)
    assert set(ACTIVE_STATES) == {
        SessionState.OPERATING, SessionState.DEGRADED,
        SessionState.RENEGOTIATING,
    }


def test_session_duration_must_be_positive(movie_service):
    with pytest.raises(ValueError, match="duration must be positive"):
        Session(movie_service, arrival=0.0, duration=0.0)


def test_sustained_utility_integrates_piecewise(movie_service):
    """(1/D)·∫u — full quality for half the span, half quality after."""
    s = Session(movie_service, arrival=0.0, duration=10.0)
    s.transition(SessionState.OPERATING, 0.0)
    s.set_utility(0.0, 1.0)
    s.transition(SessionState.DEGRADED, 5.0)
    s.set_utility(5.0, 0.5)
    s.transition(SessionState.CLOSED, 10.0)
    assert s.sustained_utility == pytest.approx((5 * 1.0 + 5 * 0.5) / 10.0)
    assert s.utility == 0.0  # nothing streams after the end


def test_sustained_utility_of_drop_stops_at_the_drop(movie_service):
    s = Session(movie_service, arrival=0.0, duration=30.0)
    s.transition(SessionState.OPERATING, 0.0)
    s.set_utility(0.0, 1.0)
    s.transition(SessionState.DEGRADED, 10.0)
    s.transition(SessionState.DROPPED, 10.0)
    assert s.sustained_utility == pytest.approx(10.0 / 30.0)


# -- the session policy -----------------------------------------------------


def test_policy_defaults_are_admission_only():
    policy = SessionPolicy()
    assert not policy.operate
    assert policy.mobility in MOBILITY_MODES


@pytest.mark.parametrize("kwargs, match", [
    ({"keepalive": 0.0}, "keepalive"),
    ({"max_renegotiations": -1}, "max_renegotiations"),
    ({"failure_rate": -0.1}, "failure_rate"),
    ({"drain": -1.0}, "drain"),
    ({"duration_scale": 0.0}, "duration_scale"),
    ({"mobility": "teleport"}, "unknown mobility mode"),
    ({"mobility_speed": -1.0}, "mobility_speed"),
    ({"mobility_tick": 0.0}, "mobility_tick"),
])
def test_policy_validation(kwargs, match):
    with pytest.raises(ValueError, match=match):
        SessionPolicy(**kwargs)


def test_policy_replace_sweeps_without_mutating():
    base = SessionPolicy()
    swept = base.replace(operate=True, duration_scale=2.0)
    assert swept.operate and swept.duration_scale == 2.0
    assert not base.operate and base.duration_scale == 1.0


# -- the driver: clean close ------------------------------------------------


def test_unchurned_session_closes_at_admission_utility():
    topology, providers, _nodes = _streaming_cluster()
    service = workload.movie_playback_service(requester="requester")
    driver = SessionDriver(topology, providers, STREAMING)
    session = driver.submit(service, 0.0, duration=30.0)
    driver.run()
    assert session.state is SessionState.CLOSED
    assert session.ended_at == 30.0
    assert session.renegotiation_attempts == 0
    # No churn: sustained utility equals the admission utility exactly.
    from repro.metrics.utility import outcome_utility
    assert session.sustained_utility == pytest.approx(
        outcome_utility(session.admission)
    )
    assert driver.active == 0
    assert _all_released(providers)
    assert session.coalition.dissolved_at == 30.0


def test_duration_defaults_to_scaled_longest_task():
    topology, providers, _nodes = _streaming_cluster()
    service = workload.movie_playback_service(requester="requester")
    driver = SessionDriver(
        topology, providers, STREAMING.replace(duration_scale=2.0)
    )
    session = driver.submit(service, 0.0)
    nominal = max(t.duration for t in service.tasks)
    assert session.duration == pytest.approx(2.0 * nominal)


def test_admission_refused_lands_in_dropped():
    # A cluster of nothing but the phone requester cannot host movie
    # playback; the driver must reject cleanly, not strand reservations.
    nodes = [Node("requester", NodeClass.PHONE, position=(50.0, 50.0))]
    topology = Topology(nodes, DiscRadio(range_m=100.0))
    providers = {n.node_id: QoSProvider(n) for n in nodes}
    service = workload.movie_playback_service(requester="requester")
    driver = SessionDriver(topology, providers, STREAMING)
    session = driver.submit(service, 0.0, duration=30.0)
    driver.run()
    assert session.state is SessionState.DROPPED
    assert not session.admitted
    assert session.sustained_utility == 0.0
    assert _all_released(providers)


# -- the driver: churn and renegotiation ------------------------------------


def test_crash_degrades_then_renegotiates_in_place():
    topology, providers, _nodes = _streaming_cluster(extra_laptops=1)
    service = workload.movie_playback_service(requester="requester")
    driver = SessionDriver(topology, providers, STREAMING)
    session = driver.submit(service, 0.0, duration=30.0)
    crash, victims = _crash_holders(session, topology)
    driver.engine.schedule_at(6.0, crash)
    driver.run()
    assert session.state is SessionState.CLOSED
    assert session.renegotiations == 1
    assert session.failed_renegotiations == 0
    assert session.coalition.reconfigurations == 1
    # Detection happens at the next keepalive after the crash, not at
    # the crash instant: degraded at t=10, not t=6.
    states = dict((state, t) for t, state in session.transitions)
    assert states[SessionState.DEGRADED] == 10.0
    # Every replacement award avoids the dead victims.
    survivors = {a.node_id for a in session.coalition.awards.values()}
    assert survivors.isdisjoint(victims) and victims
    assert _all_released(providers)


def test_replacement_provider_dies_and_renegotiates_again():
    """Satellite case: a provider awarded *during* renegotiation dies
    too — the session must fold a second renegotiation, not wedge."""
    topology, providers, _nodes = _streaming_cluster(extra_laptops=1)
    service = workload.movie_playback_service(requester="requester")
    driver = SessionDriver(topology, providers, STREAMING)
    session = driver.submit(service, 0.0, duration=30.0)
    crash1, victims1 = _crash_holders(session, topology)
    crash2, victims2 = _crash_holders(session, topology)
    driver.engine.schedule_at(6.0, crash1)   # detected at t=10
    driver.engine.schedule_at(12.0, crash2)  # kills the replacements, t=15
    driver.run()
    assert session.state is SessionState.CLOSED
    assert session.renegotiations == 2
    assert victims1 and victims2
    assert set(victims1).isdisjoint(victims2)
    survivors = {a.node_id for a in session.coalition.awards.values()}
    assert survivors.isdisjoint(victims1 + victims2)
    assert _all_released(providers)


def test_dead_requester_drops_the_session():
    """A dead requester has an empty CFP audience — nobody is left to
    organize a renegotiation, so the session drops outright."""
    topology, providers, _nodes = _streaming_cluster()
    service = workload.movie_playback_service(requester="requester")
    driver = SessionDriver(topology, providers, STREAMING)
    session = driver.submit(service, 0.0, duration=30.0)
    driver.schedule_failure(6.0, "requester")
    driver.run()
    assert session.state is SessionState.DROPPED
    assert session.ended_at == 10.0  # next keepalive after the death
    assert session.renegotiation_attempts == 0
    # Utility accrued only until the drop: 10 s of a 30 s span.
    from repro.metrics.utility import outcome_utility
    assert session.sustained_utility == pytest.approx(
        outcome_utility(session.admission) * 10.0 / 30.0
    )
    assert driver.active == 0
    assert _all_released(providers)


def test_zero_admissible_replacement_drops_cleanly():
    """Every helper dead: renegotiation finds no admissible coalition
    and the retry budget drops the session with nothing stranded."""
    topology, providers, nodes = _streaming_cluster(extra_laptops=0)
    service = workload.movie_playback_service(requester="requester")
    policy = STREAMING.replace(max_renegotiations=1)
    driver = SessionDriver(topology, providers, policy)
    session = driver.submit(service, 0.0, duration=30.0)
    for node in nodes:
        if node.node_id != "requester":
            driver.schedule_failure(6.0, node.node_id)
    driver.run()
    assert session.state is SessionState.DROPPED
    assert session.renegotiations == 0
    assert session.failed_renegotiations == 1
    assert session.ended_at == 10.0
    assert driver.active == 0
    assert _all_released(providers)
    assert session.coalition.dissolved_at == 10.0


def test_drain_kills_serving_nodes_mid_session():
    """Streaming upkeep alone (no crash injection) can drain batteries,
    orphan tasks, and eventually exhaust the cluster."""
    topology, providers, nodes = _streaming_cluster(extra_laptops=0)
    service = workload.movie_playback_service(requester="requester")
    policy = STREAMING.replace(drain=1e9, max_renegotiations=1)
    driver = SessionDriver(topology, providers, policy)
    session = driver.submit(service, 0.0, duration=40.0)
    driver.run()
    assert session.state is SessionState.DROPPED
    assert session.renegotiation_attempts > 0
    assert any(not n.alive for n in nodes)  # drain killed someone
    assert 0.0 < session.sustained_utility < 1.0
    assert _all_released(providers)


def test_reputation_folds_mid_session_churn():
    """Crashed members are debited, surviving members credited on the
    clean close — later negotiations see the churn."""
    topology, providers, _nodes = _streaming_cluster(extra_laptops=1)
    service = workload.movie_playback_service(requester="requester")
    tracker = ReputationTracker()
    driver = SessionDriver(topology, providers, STREAMING, reputation=tracker)
    session = driver.submit(service, 0.0, duration=30.0)
    crash, victims = _crash_holders(session, topology)
    driver.engine.schedule_at(6.0, crash)
    driver.run()
    assert session.state is SessionState.CLOSED
    for victim in victims:
        successes, failures = tracker.observations(victim)
        assert failures >= 1 and successes == 0
        assert tracker.score(victim) < 0.5
    for award in session.coalition.awards.values():
        successes, _failures = tracker.observations(award.node_id)
        assert successes >= 1
        assert tracker.score(award.node_id) > 0.5


def test_concurrent_sessions_interleave_on_one_engine():
    topology, providers, _nodes = _streaming_cluster(extra_laptops=2)
    driver = SessionDriver(topology, providers, STREAMING)
    first = driver.submit(
        workload.movie_playback_service(requester="requester", name="first"),
        0.0, duration=30.0,
    )
    second = driver.submit(
        workload.surveillance_service(requester="requester", name="second"),
        10.0, duration=30.0,
    )
    driver.run()
    # The second request negotiated while the first held reservations.
    assert second.concurrent == 1 and first.concurrent == 0
    assert first.state is SessionState.CLOSED
    assert second.state is SessionState.CLOSED
    assert driver.active == 0
    assert _all_released(providers)


# -- run_contention: the config object --------------------------------------


def test_config_normalizes_arrival_and_validates():
    from repro.workloads.arrivals import PoissonProcess
    assert isinstance(ContentionConfig().arrival, PoissonProcess)
    with pytest.raises(ValueError, match="at least one requester"):
        ContentionConfig(n_requesters=0)
    with pytest.raises(KeyError, match="unknown service family"):
        ContentionConfig(families=("tetris",))
    with pytest.raises(KeyError, match="unknown fleet mix"):
        ContentionConfig(mix="all-mainframes")
    swept = ContentionConfig().replace(horizon=60.0)
    assert swept.horizon == 60.0 and ContentionConfig().horizon == 240.0


def test_streaming_mode_reports_lifecycle_metrics():
    config = ContentionConfig(
        n_requesters=2,
        horizon=120.0,
        sessions=SessionPolicy(
            operate=True, failure_rate=1.0 / 60.0, drain=30.0
        ),
    )
    result = run_contention(5, config)
    metrics = result.metrics()
    for key in ("sustained_utility", "renegotiation_rate", "drop_rate"):
        assert key in metrics
    for outcome in result.sessions:
        assert outcome.final_state in ("closed", "dropped", "rejected")
        assert (outcome.final_state == "rejected") == (not outcome.success)
        assert 0.0 <= outcome.sustained_utility <= 1.0
    # Streaming mode is a pure function of the seed like every run mode.
    again = run_contention(5, config)
    assert again.sessions == result.sessions


def test_streaming_mode_sees_the_same_arrivals_as_admission_only():
    """Flipping operate must never perturb the cluster or arrivals —
    the streams are independent by name."""
    base = ContentionConfig(n_requesters=2, horizon=120.0)
    admission = run_contention(9, base)
    streaming = run_contention(
        9, base.replace(sessions=SessionPolicy(operate=True))
    )
    assert [(s.requester, s.arrival, s.family) for s in admission.sessions] \
        == [(s.requester, s.arrival, s.family) for s in streaming.sessions]


# -- façade ------------------------------------------------------------------


def test_public_facade_exports_the_session_api():
    for name in ("Session", "SessionDriver", "SessionPolicy", "SessionState",
                 "ContentionConfig", "ContentionResult", "OperationReport",
                 "run_contention"):
        assert name in repro.__all__
        assert getattr(repro, name) is not None
    import repro.sessions as sessions
    assert sorted(sessions.__all__) == list(sessions.__all__)
