"""The QoS Provider agent: answers CFPs, honours awards.

Step 2 of the paper's algorithm: *"Each QoS Provider contact its Resource
Managers and reply with a multi-attribute proposal."* On a CFP the agent
runs the Section 5 formulation heuristic against its node's current
headroom and replies with one proposal per servable task. On an AWARD it
re-checks admission (headroom may have moved) and reserves, confirming or
refusing.
"""

from __future__ import annotations

from repro.agents.base import Agent
from repro.agents.messages import (
    AWARD,
    CFP,
    CONFIRM,
    PROPOSE,
    REFUSE,
    AwardPayload,
    CFPPayload,
    ConfirmPayload,
    ProposePayload,
    RefusePayload,
)
from repro.core.negotiation import formulate_node_proposals
from repro.errors import CapacityExceededError
from repro.network.messaging import Message, NetworkService
from repro.resources.kinds import ResourceKind
from repro.resources.node import Node
from repro.resources.provider import QoSProvider
from repro.sim.engine import Engine
from repro.sim.events import weak_callback


class ProviderAgent(Agent):
    """Per-node negotiation responder.

    Args:
        engine: Simulation engine.
        node: The node this agent serves.
        network: Message delivery service.
    """

    HANDLERS = {CFP: "_handle_cfp", AWARD: "_handle_award"}

    #: Simulated think-time before replying to a CFP (models the
    #: Resource-Manager consultation latency).
    propose_delay = 0.005
    #: Seconds an awarded grant stays reserved without being released: if
    #: the CONFIRM is lost and the organizer moves on, the resources come
    #: back at lease expiry.
    award_lease = 120.0

    def __init__(self, engine: Engine, node: Node, network: NetworkService) -> None:
        super().__init__(engine, node, network)
        self.provider = QoSProvider(node)
        self.leases_reclaimed = 0
        self.cfps_seen = 0
        self.cfps_relayed = 0
        self.awards_confirmed = 0
        self.awards_refused = 0
        self._sessions_heard: set[str] = set()

    # -- CFP → PROPOSE ------------------------------------------------------

    def _handle_cfp(self, message: Message, now: float) -> None:
        payload: CFPPayload = message.payload
        if payload.session_id in self._sessions_heard:
            return  # duplicate copy from another relay path
        self._sessions_heard.add(payload.session_id)
        self.cfps_seen += 1
        organizer = payload.organizer or message.sender

        # Relayed-CFP extension: flood with a hop budget and dedupe.
        if payload.hops_remaining > 1 and self.node.willing:
            relayed = CFPPayload(
                session_id=payload.session_id,
                service=payload.service,
                reply_by=payload.reply_by,
                organizer=organizer,
                hops_remaining=payload.hops_remaining - 1,
            )
            self.cfps_relayed += self.broadcast(
                CFP, relayed, size_kb=message.size_kb
            )

        if not self.node.willing:
            return

        def reply(at: float) -> None:
            if not self.node.alive:
                return
            proposals = formulate_node_proposals(
                self.provider, payload.service.tasks, now=at
            )
            if not proposals:
                return  # nothing servable: stay silent, as the paper implies
            self.network.send_routed(
                self.node_id,
                organizer,
                PROPOSE,
                ProposePayload(session_id=payload.session_id, proposals=tuple(proposals)),
                size_kb=0.5 * len(proposals),
            )

        self.engine.schedule(self.propose_delay, reply)

    # -- AWARD → CONFIRM / REFUSE ---------------------------------------------

    def _handle_award(self, message: Message, now: float) -> None:
        payload: AwardPayload = message.payload
        holder = f"{payload.session_id}:{payload.task_id}"
        try:
            # The proposal froze its demand at formulation time; re-check
            # against *current* headroom (earlier awards may have taken
            # it) and reserve through the Resource Manager.
            demand = payload.proposal.demand
            if not self.provider.can_serve(demand):
                raise CapacityExceededError("headroom changed since proposal")
            reservation = self.node.manager.reserve(
                holder, demand, now, ttl=self.award_lease
            )
            self._schedule_lease_sweep(self.award_lease)
        except CapacityExceededError as exc:
            self.awards_refused += 1
            self.network.send_routed(
                self.node_id,
                message.sender,
                REFUSE,
                RefusePayload(
                    session_id=payload.session_id,
                    task_id=payload.task_id,
                    reason=str(exc),
                ),
            )
            return
        # Energy commit (rate kinds are held by the manager until release).
        joules = demand.get(ResourceKind.ENERGY)
        if joules > 0:
            self.node.consume_energy(joules)
        self.awards_confirmed += 1
        self.network.send_routed(
            self.node_id,
            message.sender,
            CONFIRM,
            ConfirmPayload(
                session_id=payload.session_id,
                task_id=payload.task_id,
                reservation_id=reservation.rid,
            ),
        )

    # -- lease maintenance -----------------------------------------------

    def _schedule_lease_sweep(self, delay: float) -> None:
        # A sweep is often still pending when the agent's system is
        # dropped; holding the agent weakly keeps that event from tying
        # the agent and its engine into a cycle.
        self.engine.schedule(delay + 1e-9, weak_callback(self._sweep_leases))

    def _sweep_leases(self, now: float) -> None:
        reclaimed = self.node.manager.release_expired(now)
        if reclaimed:
            self.leases_reclaimed += reclaimed
            self.engine.emit(
                "provider", "lease_reclaimed",
                node=self.node_id, count=reclaimed,
            )
        nxt = self.node.manager.next_expiry()
        if nxt is not None:
            self._schedule_lease_sweep(max(nxt - now, 0.0))
