"""Regression tests for the narrowed exception handlers (PR 9).

Five sites used to catch blanket ``except Exception``; each now names
the exact type it intends to absorb. Every test here comes in pairs:

* the *absorbed* case — the narrow type is raised at the site and the
  surrounding machinery carries on exactly as before;
* the *propagated* case — an unrelated exception (``ValueError`` stands
  in for "a real bug") now escapes instead of being silently eaten.

The propagated case doubles as a vacuity guard: it proves the patched
``release`` really is invoked on the code path under test.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.negotiation import negotiate
from repro.core.operation import run_operation_phase
from repro.errors import UnknownReservationError
from repro.experiments import parallel
from repro.experiments.plan import WorkUnit
from repro.network.radio import DiscRadio
from repro.network.topology import Topology
from repro.resources.node import Node, NodeClass
from repro.resources.provider import QoSProvider
from repro.services import workload
from repro.sessions import SessionDriver, SessionPolicy, SessionState
from repro.sim.engine import Engine


def _raise_release_once(provider, exc_type):
    """First release on ``provider`` raises ``exc_type``; later calls
    delegate to the real manager. That models the absorbed scenario —
    "this reservation was already reclaimed" — without also breaking the
    (deliberately unguarded) release at coalition dissolution."""
    original = provider.release
    fired = []

    def release(reservation, now):
        if not fired:
            fired.append(True)
            raise exc_type("injected by test")
        return original(reservation, now)

    provider.release = release


# -- operation.py: _abandon (no-recovery orphan release) ---------------------


def _negotiated_movie(small_cluster, movie_service):
    topology, providers, _nodes = small_cluster
    outcome = negotiate(movie_service, topology, providers, commit=True)
    video_tid = movie_service.tasks[0].task_id
    victim = outcome.coalition.awards[video_tid].node_id
    return topology, providers, outcome, video_tid, victim


def test_abandon_absorbs_unknown_reservation(small_cluster, movie_service):
    topology, providers, outcome, video_tid, victim = _negotiated_movie(
        small_cluster, movie_service
    )
    _raise_release_once(providers[victim], UnknownReservationError)
    report = run_operation_phase(
        outcome.coalition, topology, providers, Engine(seed=5),
        failures=[(5.0, victim)], allow_reconfiguration=False,
    )
    # The double release is benign: the phase still runs to dissolution
    # and the orphaned task is recorded lost, same as the clean path.
    assert report.outcomes[video_tid].status == "lost"
    assert report.failures_injected == 1


def test_abandon_propagates_unrelated_errors(small_cluster, movie_service):
    topology, providers, outcome, _video_tid, victim = _negotiated_movie(
        small_cluster, movie_service
    )
    _raise_release_once(providers[victim], ValueError)
    with pytest.raises(ValueError, match="injected by test"):
        run_operation_phase(
            outcome.coalition, topology, providers, Engine(seed=5),
            failures=[(5.0, victim)], allow_reconfiguration=False,
        )


# -- operation.py: _reconfigure (orphan release before renegotiation) --------


def test_reconfigure_absorbs_unknown_reservation(small_cluster, movie_service):
    topology, providers, outcome, video_tid, victim = _negotiated_movie(
        small_cluster, movie_service
    )
    _raise_release_once(providers[victim], UnknownReservationError)
    report = run_operation_phase(
        outcome.coalition, topology, providers, Engine(seed=5),
        failures=[(5.0, victim)],
    )
    # Reconfiguration proceeds despite the stale ledger entry.
    assert report.reconfigurations == 1
    out = report.outcomes[video_tid]
    assert out.status == "completed" and out.node_id != victim


def test_reconfigure_propagates_unrelated_errors(small_cluster, movie_service):
    topology, providers, outcome, _video_tid, victim = _negotiated_movie(
        small_cluster, movie_service
    )
    _raise_release_once(providers[victim], ValueError)
    with pytest.raises(ValueError, match="injected by test"):
        run_operation_phase(
            outcome.coalition, topology, providers, Engine(seed=5),
            failures=[(5.0, victim)],
        )


# -- operation.py: quiescence sweep (blocked successors still hold awards) ---


def _blocked_pipeline():
    """Negotiate the precedence pipeline on a cluster of half-capacity
    laptops (so the stages cannot all co-locate), pick the fetch-stage
    node as the victim, and return the successor tasks that will sit
    blocked — award in hand — until quiescence because fetch never
    completes."""
    half = Node("x", NodeClass.LAPTOP).capacity.scaled(0.5)
    nodes = [
        Node("requester", NodeClass.PHONE, position=(50.0, 50.0)),
        Node("pda", NodeClass.PDA, position=(60.0, 50.0)),
    ] + [
        Node(f"lap{i}", NodeClass.LAPTOP, capacity=half,
             position=(40.0 + 10 * i, 55.0))
        for i in range(1, 5)
    ]
    topology = Topology(nodes, DiscRadio(range_m=100.0))
    providers = {n.node_id: QoSProvider(n) for n in nodes}
    service = workload.pipeline_service(requester="requester")
    outcome = negotiate(service, topology, providers, commit=True)
    awards = outcome.coalition.awards
    fetch_tid, decode_tid, enhance_tid = (t.task_id for t in service.tasks[:3])
    victim = awards[fetch_tid].node_id
    blocked = [
        tid for tid in (decode_tid, enhance_tid)
        if awards[tid].node_id != victim
    ]
    # The test is only meaningful if some successor survives the crash
    # on its own (alive) node and reaches the quiescence sweep.
    assert blocked, "pipeline placement put every stage on the victim"
    return topology, providers, outcome, victim, blocked


def _patch_release_for(providers, awards, task_ids, exc_type):
    """Make release raise for exactly the reservations of ``task_ids``;
    every other reservation (task completions, dissolution) releases
    normally, so only the quiescence-sweep calls are intercepted."""
    targeted = [awards[tid].reservation for tid in task_ids]
    for provider in providers.values():
        original = provider.release

        def release(reservation, now, _original=original):
            for i, t in enumerate(targeted):
                if reservation is t:
                    # Once per reservation: dissolution's (unguarded)
                    # retry afterwards must release normally.
                    targeted.pop(i)
                    raise exc_type("injected by test")
            return _original(reservation, now)

        provider.release = release


def test_quiescence_sweep_absorbs_unknown_reservation():
    topology, providers, outcome, victim, blocked = _blocked_pipeline()
    _patch_release_for(
        providers, outcome.coalition.awards, blocked, UnknownReservationError
    )
    report = run_operation_phase(
        outcome.coalition, topology, providers, Engine(seed=5),
        failures=[(2.0, victim)], allow_reconfiguration=False,
    )
    for tid in blocked:
        assert report.outcomes[tid].status == "lost"


def test_quiescence_sweep_propagates_unrelated_errors():
    topology, providers, outcome, victim, blocked = _blocked_pipeline()
    _patch_release_for(
        providers, outcome.coalition.awards, blocked, ValueError
    )
    with pytest.raises(ValueError, match="injected by test"):
        run_operation_phase(
            outcome.coalition, topology, providers, Engine(seed=5),
            failures=[(2.0, victim)], allow_reconfiguration=False,
        )


# -- sessions/driver.py: keepalive orphan release ----------------------------


def _streaming_cluster():
    nodes = [
        Node("requester", NodeClass.PHONE, position=(50.0, 50.0)),
        Node("pda", NodeClass.PDA, position=(60.0, 50.0)),
        Node("lap1", NodeClass.LAPTOP, position=(40.0, 50.0)),
        Node("lap2", NodeClass.LAPTOP, position=(50.0, 70.0)),
        Node("lap3", NodeClass.LAPTOP, position=(60.0, 60.0)),
    ]
    topology = Topology(nodes, DiscRadio(range_m=100.0))
    providers = {n.node_id: QoSProvider(n) for n in nodes}
    return topology, providers


def _run_session_with_crash(exc_type):
    """Crash every serving helper at t=6 and rig the dead nodes'
    providers so the keepalive's orphan release raises ``exc_type``."""
    topology, providers = _streaming_cluster()
    policy = SessionPolicy(keepalive=5.0, max_renegotiations=2)
    driver = SessionDriver(topology, providers, policy)
    service = workload.movie_playback_service(requester="requester")
    session = driver.submit(service, 0.0, duration=30.0)

    def crash(now):
        for task_id in sorted(session.live_tasks):
            node = topology.node(session.coalition.awards[task_id].node_id)
            if node.alive and node.node_id != service.requester:
                node.fail()
                _raise_release_once(providers[node.node_id], exc_type)
        topology.rebuild()

    driver.engine.schedule_at(6.0, crash)
    return driver, session


def test_keepalive_absorbs_unknown_reservation():
    driver, session = _run_session_with_crash(UnknownReservationError)
    driver.run()
    # The dead node's ledger having already reclaimed the reservation
    # must not stop the session from renegotiating and closing.
    assert session.state is SessionState.CLOSED
    assert session.renegotiations == 1


def test_keepalive_propagates_unrelated_errors():
    driver, _session = _run_session_with_crash(ValueError)
    with pytest.raises(ValueError, match="injected by test"):
        driver.run()


# -- experiments/parallel.py: worker exception round-trip --------------------


class _UnpicklableBoom(Exception):
    """Pickles fine but cannot be *unpickled*: the reduce path calls
    ``_UnpicklableBoom(<one message arg>)`` and this signature demands
    two, so ``pickle.loads`` raises ``TypeError`` — exactly the failure
    mode the worker's narrowed round-trip guard must absorb."""

    def __init__(self, left, right):
        super().__init__(f"{left}:{right}")


def _failing_run(exc):
    def run(seed):
        raise exc

    return run


def _run_one_unit(run_fn):
    """Run one unit the way a pool worker does; return what it raised."""
    unit = WorkUnit(suite="T", point_index=0, seed=123, run=run_fn)
    parallel._install_units([unit])
    try:
        parallel._run_installed(0)
    except Exception as exc:  # noqa: BLE001 - the relayed error
        return exc
    finally:
        parallel._install_units(())
    raise AssertionError("the unit did not fail")


def test_worker_wraps_unpicklable_exceptions():
    boom = _UnpicklableBoom("stage", 3)
    with pytest.raises(TypeError):
        pickle.loads(pickle.dumps(boom))  # the premise of the guard
    relayed = _run_one_unit(_failing_run(boom))
    assert isinstance(relayed, RuntimeError)
    assert "_UnpicklableBoom" in str(relayed) and "seed 123" in str(relayed)
    # The wrapper itself must survive the pool's pickling round-trip.
    assert isinstance(pickle.loads(pickle.dumps(relayed)), RuntimeError)
    units = [WorkUnit(suite="T", point_index=0, seed=seed, run=_failing_run(boom))
             for seed in (1, 2)]
    with pytest.raises(RuntimeError, match="unpicklable _UnpicklableBoom"):
        parallel.run_units(units, jobs=2)


def test_worker_relays_picklable_exceptions_untouched():
    relayed = _run_one_unit(_failing_run(ValueError("bad point")))
    assert isinstance(relayed, ValueError)
    assert str(relayed) == "bad point"
