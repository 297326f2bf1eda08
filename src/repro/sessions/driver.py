"""The session driver: streaming operation *inside* contention.

:func:`repro.core.operation.run_operation_phase` executes one coalition
to completion by running the engine to quiescence — which is exactly why
it cannot model contention: it owns the event loop, so nothing else can
arrive while a coalition streams. :class:`SessionDriver` inverts that
control. It is a purely event-driven organizer pool sharing one
:class:`~repro.sim.engine.Engine`: every admitted coalition's operation
phase — keepalive ticks, upkeep drain, crash detection, in-place
renegotiation — interleaves with later requesters' admission
negotiations on the same event queue, so renegotiations compete for the
*currently contended* cluster rather than an idle one.

Protocol shape (request → response, then a keepalive loop, mirroring
streaming-control protocols): a crash is *detected* at the victim
session's next keepalive tick, not at the instant of death. Between
death and detection the orphaned tasks stream nothing (their utility
contribution is zero from detection; the admission reservation on the
dead node is released at detection).

Determinism: the driver draws no randomness of its own. All RNG
(arrival times, crash draws, waypoints) is consumed by the *caller*
from named :class:`~repro.sim.rng.RngRegistry` streams before or
between events; the driver's behaviour is a pure function of the event
schedule, and event ordering is the engine's (time, priority, seq)
order — fixed by submission order. Same seed, same trace.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence

from repro.core.negotiation import negotiate, release_award, release_coalition
from repro.metrics.utility import allocation_utility
from repro.network.mobility import MobilityModel
from repro.network.topology import Topology
from repro.resources.node import Node
from repro.resources.provider import QoSProvider
from repro.services.service import Service
from repro.sessions.lifecycle import Session, SessionState
from repro.sessions.policy import SessionPolicy
from repro.sim.engine import Engine, EventHandle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector

#: Seconds between mobility ticks of an attached mobility model.
MOBILITY_TICK = 1.0


class SessionDriver:
    """Runs streaming sessions' whole life cycle on a shared engine.

    Args:
        topology: Live cluster topology (rebuilt after churn).
        providers: node id → QoS provider for every node.
        policy: The :class:`~repro.sessions.policy.SessionPolicy` knobs.
        engine: The shared event engine (a fresh ``Engine()`` if omitted).

    Admission and in-place renegotiation run the same Section 4.2
    protocol under the paper's default selection policy.
    """

    def __init__(
        self,
        topology: Topology,
        providers: Mapping[str, QoSProvider],
        policy: SessionPolicy,
        engine: Optional[Engine] = None,
    ) -> None:
        self.topology = topology
        self.providers = providers
        self.policy = policy
        self.engine = engine if engine is not None else Engine()
        self.sessions: List[Session] = []
        self.faults: Optional["FaultInjector"] = None
        """Fault context for negotiation rounds (set by
        :meth:`repro.faults.injector.FaultInjector.install`; ``None`` is
        the exact pre-fault path)."""
        self._active = 0
        self._pending = 0
        self._close_handles: Dict[int, EventHandle] = {}

    # -- submission --------------------------------------------------------

    def submit(
        self,
        service: Service,
        arrival: float,
        duration: Optional[float] = None,
    ) -> Session:
        """Enqueue one streaming request at ``arrival``.

        ``duration`` defaults to the service's longest task duration
        scaled by ``policy.duration_scale`` — the stream outlives its
        slowest component by the configured factor.
        """
        if duration is None:
            nominal = max(t.duration for t in service.tasks)
            duration = nominal * self.policy.duration_scale
        session = Session(service, arrival, duration)
        self.sessions.append(session)
        self._pending += 1
        self.engine.schedule_at(
            arrival, lambda now, s=session: self._admit(s, now)
        )
        return session

    def run(self) -> List[Session]:
        """Run the engine to quiescence; every submitted session ends in
        CLOSED or DROPPED. Returns the sessions in submission order."""
        self.engine.run()
        return self.sessions

    @property
    def active(self) -> int:
        """Sessions currently holding reservations."""
        return self._active

    # -- churn injection ---------------------------------------------------

    def schedule_failure(self, time: float, node_id: str) -> None:
        """Crash ``node_id`` at ``time`` (detected at each victim
        session's next keepalive tick)."""

        def _crash(now: float) -> None:
            node = self.topology.node(node_id)
            if not node.alive:
                return
            node.fail()
            self.topology.rebuild()
            self.engine.tracer.emit(now, "session", "crash", node=node_id)

        self.engine.schedule_at(time, _crash)

    def attach_mobility(self, mobility: MobilityModel, nodes: Sequence[Node]) -> None:
        """Advance ``mobility`` every :data:`MOBILITY_TICK` seconds
        through the topology's ``advance_mobility``, which brings its
        edges up to date. Ticking stops once no session is pending or
        active, so mobility never keeps an otherwise-quiescent run
        alive."""
        self.engine.schedule(
            MOBILITY_TICK, partial(self._tick_mobility, mobility, nodes)
        )

    def _tick_mobility(
        self, mobility: MobilityModel, nodes: Sequence[Node], now: float
    ) -> None:
        # A fresh callback per tick: a self-rescheduling closure would
        # hold itself through its own cell, and with it the driver and
        # the whole cluster, until the cyclic collector ran.
        if self._pending == 0 and self._active == 0:
            return
        self.topology.advance_mobility(mobility, nodes, MOBILITY_TICK)
        self.engine.schedule(
            MOBILITY_TICK, partial(self._tick_mobility, mobility, nodes)
        )

    # -- life cycle --------------------------------------------------------

    def _admit(self, session: Session, now: float) -> None:
        self._pending -= 1
        session.concurrent = self._active
        outcome = negotiate(
            session.service,
            self.topology,
            self.providers,
            commit=True,
            now=now,
            faults=self.faults,
        )
        session.admission = outcome
        session.award_retries += outcome.award_retries
        session.retry_delay += outcome.retry_delay
        if not outcome.success:
            # Admission refused: release the partial reservations an
            # incomplete negotiation left behind and reject the session.
            release_coalition(outcome.coalition, self.providers, now)
            session.transition(SessionState.DROPPED, now)
            return
        session.coalition = outcome.coalition
        session.coalition.start_operation(now)
        session.live_tasks = set(outcome.coalition.awards)
        self._active += 1
        session.transition(SessionState.OPERATING, now)
        session.set_utility(now, self._utility_of(session))
        self._close_handles[id(session)] = self.engine.schedule(
            session.duration, lambda t, s=session: self._close(s, t)
        )
        self.engine.schedule(
            self.policy.keepalive, lambda t, s=session: self._keepalive(s, t)
        )

    def _keepalive(self, session: Session, now: float) -> None:
        if session.state not in (SessionState.OPERATING, SessionState.DEGRADED):
            return  # closed or dropped since the last tick
        coalition = session.coalition
        assert coalition is not None
        requester = self.topology.node(session.service.requester)
        if not requester.alive:
            # Nobody is left to consume the stream — and a dead
            # requester cannot organize a renegotiation (its CFP
            # audience is empty), so the session drops outright.
            self._drop(session, now)
            return
        if self.policy.drain > 0:
            # Streaming upkeep: each held award draws keepalive-worth of
            # energy from its serving node, on top of the admission
            # reservation. Sorted task order keeps the draw sequence —
            # and therefore any drain-induced deaths — deterministic.
            upkeep = self.policy.drain * self.policy.keepalive
            died = False
            for task_id in sorted(session.live_tasks):
                node = self.topology.node(coalition.awards[task_id].node_id)
                if not node.alive:
                    continue
                node.consume_energy(upkeep)
                died = died or not node.alive
            if died:
                self.topology.rebuild()
        orphans = sorted(
            task_id
            for task_id in session.live_tasks
            if not self.topology.node(coalition.awards[task_id].node_id).alive
        )
        if orphans:
            for task_id in orphans:
                award = coalition.awards[task_id]
                # Idempotent: the dead node's ledger may have reclaimed it.
                release_award(self.providers, award, now, missing_ok=True)
                session.live_tasks.discard(task_id)
                session.suspended.pop(task_id, None)
            self.engine.tracer.emit(
                now, "session", "degraded",
                session=session.service.name, orphans=len(orphans),
            )
            if session.state is SessionState.OPERATING:
                session.transition(SessionState.DEGRADED, now)
            session.set_utility(now, self._utility_of(session))
            self._renegotiate(session, now)
        if self.policy.partition_grace > 0 and session.state in (
            SessionState.OPERATING, SessionState.DEGRADED
        ):
            self._probe_partitions(session, now)
        if session.state in (SessionState.OPERATING, SessionState.DEGRADED):
            self.engine.schedule(
                self.policy.keepalive, lambda t, s=session: self._keepalive(s, t)
            )

    def _probe_partitions(self, session: Session, now: float) -> None:
        """The reachability pass of one keepalive tick (partition grace).

        An *alive but unreachable* member (a network partition severed
        every route from the requester) is **suspended**, not lost: its
        task stops streaming (utility 0), the session degrades, and the
        member has ``policy.partition_grace`` seconds to become
        reachable again. A healed partition lifts the suspension — and
        once every task is live and unsuspended the session recovers in
        place (``DEGRADED → OPERATING``, same awards, no renegotiation).
        A suspension outliving the grace window is treated like a crash:
        award released, task renegotiated.
        """
        coalition = session.coalition
        assert coalition is not None
        requester = session.service.requester
        expired: List[str] = []
        for task_id in sorted(session.live_tasks):
            member = coalition.awards[task_id].node_id
            if member == requester:
                continue
            if self.topology.shortest_route(requester, member) is None:
                since = session.suspended.setdefault(task_id, now)
                if now - since > self.policy.partition_grace:
                    expired.append(task_id)
            elif task_id in session.suspended:
                del session.suspended[task_id]
        if expired:
            for task_id in expired:
                award = coalition.awards[task_id]
                release_award(self.providers, award, now, missing_ok=True)
                session.live_tasks.discard(task_id)
                session.suspended.pop(task_id, None)
            self.engine.tracer.emit(
                now, "session", "partition-expired",
                session=session.service.name, tasks=len(expired),
            )
        if session.suspended or expired:
            if session.state is SessionState.OPERATING:
                session.transition(SessionState.DEGRADED, now)
                self.engine.tracer.emit(
                    now, "session", "degraded",
                    session=session.service.name,
                    suspended=len(session.suspended),
                )
            session.set_utility(now, self._utility_of(session))
        if expired:
            self._renegotiate(session, now)
            return
        if (
            not session.suspended
            and session.state is SessionState.DEGRADED
            and len(session.live_tasks) == len(session.service.tasks)
        ):
            session.transition(SessionState.OPERATING, now)
            session.set_utility(now, self._utility_of(session))
            self.engine.tracer.emit(
                now, "session", "recovered", session=session.service.name
            )

    def _renegotiate(self, session: Session, now: float) -> None:
        """Re-run the Section 4.2 protocol in place for every task the
        session has lost, against the cluster as it stands *right now*
        (other sessions' reservations included)."""
        session.transition(SessionState.RENEGOTIATING, now)
        service = session.service
        missing = sorted(
            t.task_id for t in service.tasks if t.task_id not in session.live_tasks
        )
        attempt = session.renegotiation_attempts + 1
        sub_service = Service(
            name=f"{service.name}:reneg{attempt}",
            tasks=tuple(service.task(tid) for tid in missing),
            requester=service.requester,
        )
        outcome = negotiate(
            sub_service,
            self.topology,
            self.providers,
            commit=True,
            now=now,
            faults=self.faults,
        )
        session.award_retries += outcome.award_retries
        session.retry_delay += outcome.retry_delay
        coalition = session.coalition
        assert coalition is not None
        if outcome.success:
            for task_id, award in outcome.coalition.awards.items():
                coalition.add_award(award)
                session.live_tasks.add(task_id)
            coalition.reconfigurations += 1
            session.renegotiations += 1
            # A session with members still suspended behind a partition
            # is not whole: it lands back in DEGRADED and recovers only
            # when the partition heals (or the grace expires).
            if session.suspended:
                session.transition(SessionState.DEGRADED, now)
            else:
                session.transition(SessionState.OPERATING, now)
            session.set_utility(now, self._utility_of(session))
            self.engine.tracer.emit(
                now, "session", "renegotiated",
                session=service.name, tasks=len(missing),
            )
            return
        # Failed attempt: drop the partial reservations it grabbed and
        # spend one unit of the bounded retry budget.
        release_coalition(outcome.coalition, self.providers, now)
        session.failed_renegotiations += 1
        if session.failed_renegotiations >= self.policy.max_renegotiations:
            self._drop(session, now)
        else:
            session.transition(SessionState.DEGRADED, now)

    def _drop(self, session: Session, now: float) -> None:
        """Tear a mid-stream session down: release everything it holds,
        dissolve its coalition, and land in DROPPED."""
        coalition = session.coalition
        if coalition is not None:
            release_coalition(coalition, self.providers, now)
            coalition.dissolve(now)
            self._active -= 1
        handle = self._close_handles.pop(id(session), None)
        if handle is not None:
            handle.cancel()
        # Keep the machine strict: OPERATING reaches DROPPED only
        # through DEGRADED (a drop is always a degradation first).
        if session.state is SessionState.OPERATING:
            session.transition(SessionState.DEGRADED, now)
        session.transition(SessionState.DROPPED, now)
        self.engine.tracer.emit(
            now, "session", "dropped", session=session.service.name
        )

    def _close(self, session: Session, now: float) -> None:
        """The planned streaming span ended: a clean close."""
        if session.state not in (SessionState.OPERATING, SessionState.DEGRADED):
            return  # already dropped
        coalition = session.coalition
        assert coalition is not None
        release_coalition(coalition, self.providers, now)
        coalition.dissolve(now)
        self._active -= 1
        self._close_handles.pop(id(session), None)
        session.transition(SessionState.CLOSED, now)

    # -- metrics -----------------------------------------------------------

    def _utility_of(self, session: Session) -> float:
        """Instantaneous utility: mean per-task normalized utility of
        the awards the session currently holds (lost tasks count 0) —
        the same eq. 2 normalization as admission utility, so an
        unchurned session's sustained utility equals its admission
        utility up to the rounding of the time integral."""
        coalition = session.coalition
        if coalition is None:
            return 0.0
        tasks = session.service.tasks
        if not tasks:
            return 0.0
        total = 0.0
        for task in tasks:
            # Suspended tasks (alive member, severed route) stream
            # nothing while the partition lasts.
            if (
                task.task_id in session.live_tasks
                and task.task_id not in session.suspended
            ):
                award = coalition.awards[task.task_id]
                total += allocation_utility(task.request, award.distance)
        return total / len(tasks)
