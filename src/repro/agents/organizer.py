"""The Negotiation Organizer agent.

Paper Section 4.2: *"When a user requests a service, with its specific QoS
preferences, on a particular node the QoS Provider starts and guides all
the negotiation process. It plays the role of Negotiation Organizer."*

One :class:`NegotiationSession` per requested service:

1. broadcast the CFP (service description + preferences) to the one-hop
   neighborhood, with a proposal deadline;
2. collect PROPOSE replies until the deadline (late/duplicate replies are
   dropped);
3. per task, in service order: rank admissible proposals with the paper's
   selection triple, AWARD the best, await CONFIRM/REFUSE (with a
   timeout treated as refusal — the award or its reply may have been
   lost on the lossy channel), falling through the ranking on refusal;
4. finish with a :class:`~repro.core.negotiation.NegotiationOutcome`
   delivered to the ``on_complete`` callback.

The organizer's own node also answers the CFP: the requester can be a
coalition member ("may include the node that starts the negotiation"),
and its PROPOSE travels the loopback path at zero latency/loss.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set

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
from repro.core.admissibility import is_admissible
from repro.core.coalition import Coalition, TaskAward
from repro.core.evaluation import ProposalEvaluator
from repro.core.negotiation import (
    NegotiationOutcome,
    formulate_node_proposals,
    score_admissible,
)
from repro.core.proposal import Proposal
from repro.errors import NotConnectedError
from repro.core.selection import ScoredProposal, SelectionPolicy
from repro.network.messaging import Message, NetworkService
from repro.network.topology import Topology
from repro.resources.node import Node
from repro.resources.provider import QoSProvider
from repro.services.service import Service
from repro.sim.engine import Engine
from repro.sim.events import EventHandle, Priority
from repro.sim.sequences import Sequence

_session_seq = Sequence()

CompletionCallback = Callable[[NegotiationOutcome], None]


class NegotiationSession:
    """State of one in-flight negotiation (one service)."""

    def __init__(
        self,
        session_id: str,
        service: Service,
        deadline: float,
        on_complete: Optional[CompletionCallback],
    ) -> None:
        self.session_id = session_id
        self.service = service
        self.deadline = deadline
        self.on_complete = on_complete
        self.proposals: Dict[str, List[Proposal]] = {
            t.task_id: [] for t in service.tasks
        }
        # Evaluators compiled per request (keyed by identity;
        # the service keeps every request alive for the session).
        self.evaluators: Dict[int, ProposalEvaluator] = {}
        self.responded: Set[str] = set()
        self.coalition = Coalition(service)
        self.unallocated: List[str] = []
        self.task_index = 0
        self.ranked: List[ScoredProposal] = []
        self.rank_pos = 0
        self.award_timer: Optional[EventHandle] = None
        self.closed = False
        self.proposals_received = 0
        self.protocol_messages = 0


class OrganizerAgent(Agent):
    """Negotiation Organizer running on the requester's node.

    Args:
        engine: Simulation engine.
        node: The requester's device.
        network: Message service.
        topology: Current topology (for communication costs).
        selection: Winner-selection policy (default: the paper's triple).
    """

    HANDLERS = {
        PROPOSE: "_handle_propose",
        CONFIRM: "_handle_confirm",
        REFUSE: "_handle_refuse",
    }

    #: Seconds the organizer waits for proposals after broadcasting the CFP.
    proposal_window = 0.5
    #: Seconds to wait for CONFIRM/REFUSE before treating an award as
    #: refused (covers lost messages), before the input-transfer budget.
    award_timeout = 0.25

    def __init__(
        self,
        engine: Engine,
        node: Node,
        network: NetworkService,
        topology: Topology,
        selection: Optional[SelectionPolicy] = None,
        max_hops: int = 1,
    ) -> None:
        super().__init__(engine, node, network)
        self.topology = topology
        self.selection = selection if selection is not None else SelectionPolicy()
        self.max_hops = max(1, int(max_hops))
        self.provider = QoSProvider(node)
        self.sessions: Dict[str, NegotiationSession] = {}

    # -- public API -----------------------------------------------------------

    def request_service(
        self,
        service: Service,
        on_complete: Optional[CompletionCallback] = None,
    ) -> NegotiationSession:
        """Start a negotiation for ``service`` (step 1: broadcast CFP)."""
        session_id = f"sess-{_session_seq.next()}"
        deadline = self.engine.now + self.proposal_window
        session = NegotiationSession(
            session_id=session_id,
            service=service,
            deadline=deadline,
            on_complete=on_complete,
        )
        self.sessions[session_id] = session
        payload = CFPPayload(
            session_id=session_id, service=service, reply_by=deadline,
            organizer=self.node_id, hops_remaining=self.max_hops,
        )
        copies = self.broadcast(CFP, payload, size_kb=2.0 + 0.5 * len(service.tasks))
        session.protocol_messages += copies

        # The organizer's own node answers the CFP locally (zero latency).
        local = formulate_node_proposals(self.provider, service.tasks, now=self.engine.now)
        if local:
            self._accept_proposals(session, self.node_id, local)

        self.engine.schedule(
            self.proposal_window,
            lambda now, sid=session_id: self._deadline(sid),
            priority=Priority.TIMER,
        )
        self.engine.emit(
            "negotiation", "cfp",
            session=session_id, service=service.name, copies=copies,
        )
        return session

    # -- proposal collection ------------------------------------------------

    def _handle_propose(self, message: Message, now: float) -> None:
        payload: ProposePayload = message.payload
        session = self.sessions.get(payload.session_id)
        if session is None or session.closed:
            return
        if now > session.deadline or message.sender in session.responded:
            return  # late or duplicate — dropped
        self._accept_proposals(session, message.sender, payload.proposals)

    def _accept_proposals(
        self, session: NegotiationSession, sender: str, proposals: Sequence[Proposal]
    ) -> None:
        session.responded.add(sender)
        if sender != self.node_id:
            # One PROPOSE radio message carried this node's offers; the
            # organizer's own reply is local. Counting it here keeps
            # ``message_count`` aligned with the synchronous driver's.
            session.protocol_messages += 1
        for proposal in proposals:
            if proposal.task_id in session.proposals:
                session.proposals[proposal.task_id].append(proposal)
                session.proposals_received += 1

    # -- awarding -----------------------------------------------------------

    def _deadline(self, session_id: str) -> None:
        session = self.sessions.get(session_id)
        if session is None or session.closed:
            return
        self.engine.emit(
            "negotiation", "deadline",
            session=session_id, proposals=session.proposals_received,
        )
        self._next_task(session)

    def _comm_cost(self, service: Service, node_id: str) -> float:
        try:
            if self.max_hops > 1:
                return self.topology.multihop_cost(service.requester, node_id)
            return self.topology.communication_cost(service.requester, node_id)
        except NotConnectedError:
            # The node drifted out of range since it proposed: its offer
            # is unreachable. Unknown node ids and other errors are bugs
            # and propagate.
            return float("inf")

    def _next_task(self, session: NegotiationSession) -> None:
        """Advance to awarding the next task (step 3 per task)."""
        if session.task_index >= len(session.service.tasks):
            self._finish(session)
            return
        task = session.service.tasks[session.task_index]
        admissible = [
            p for p in session.proposals[task.task_id]
            if is_admissible(task.request, p)
        ]
        scored = score_admissible(
            task.request, admissible, session.evaluators,
            lambda nid: self._comm_cost(session.service, nid),
            set(session.coalition.members),
        )
        session.ranked = list(self.selection.rank(scored))
        session.rank_pos = 0
        self._try_next_candidate(session)

    def _try_next_candidate(self, session: NegotiationSession) -> None:
        task = session.service.tasks[session.task_index]
        if session.rank_pos >= len(session.ranked):
            session.unallocated.append(task.task_id)
            session.task_index += 1
            self._next_task(session)
            return
        scored = session.ranked[session.rank_pos]
        proposal = scored.proposal
        payload = AwardPayload(
            session_id=session.session_id, task_id=task.task_id, proposal=proposal
        )
        if proposal.node_id == self.node_id:
            # Local award: reserve directly, no messages.
            self._award_local(session, task, scored)
            return
        self.network.send_routed(
            self.node_id, proposal.node_id, AWARD, payload, size_kb=task.input_kb
        )
        session.protocol_messages += 1
        # The AWARD ships the task's input data; budget the timeout for
        # its transmission time across the hop budget (conservatively at
        # a quarter of nominal link rate) on top of the base timeout.
        transfer_budget = (task.input_kb / 1250.0) * max(self.max_hops, 1)
        session.award_timer = self.engine.schedule(
            self.award_timeout + transfer_budget,
            lambda now, sid=session.session_id: self._award_timeout(sid),
            priority=Priority.TIMER,
        )

    def _award_local(self, session: NegotiationSession, task, scored: ScoredProposal) -> None:
        from repro.errors import CapacityExceededError

        try:
            reservation, demand = self.provider.reserve_for(
                f"{session.session_id}:{task.task_id}",
                task.demand_model,
                scored.proposal.values,
                self.engine.now,
            )
        except CapacityExceededError:
            session.rank_pos += 1
            self._try_next_candidate(session)
            return
        self._record_award(session, task.task_id, scored, reservation, demand)

    def _record_award(self, session, task_id, scored, reservation, demand) -> None:
        session.coalition.add_award(
            TaskAward(
                task_id=task_id,
                node_id=scored.proposal.node_id,
                proposal=scored.proposal,
                distance=scored.distance,
                comm_cost=scored.comm_cost,
                demand=demand,
                reservation=reservation,
            )
        )
        session.task_index += 1
        self._next_task(session)

    def _cancel_timer(self, session: NegotiationSession) -> None:
        if session.award_timer is not None:
            session.award_timer.cancel()
            session.award_timer = None

    def _award_timeout(self, session_id: str) -> None:
        session = self.sessions.get(session_id)
        if session is None or session.closed:
            return
        session.award_timer = None
        self.engine.emit(
            "negotiation", "award_timeout",
            session=session_id,
            node=session.ranked[session.rank_pos].proposal.node_id,
        )
        session.rank_pos += 1
        self._try_next_candidate(session)

    def _handle_confirm(self, message: Message, now: float) -> None:
        payload: ConfirmPayload = message.payload
        session = self.sessions.get(payload.session_id)
        if session is None or session.closed or session.task_index >= len(session.service.tasks):
            return
        task = session.service.tasks[session.task_index]
        if payload.task_id != task.task_id:
            return  # stale confirm for an already-resolved award
        scored = session.ranked[session.rank_pos]
        if scored.proposal.node_id != message.sender:
            return
        self._cancel_timer(session)
        # The remote reservation lives on the provider's manager; the
        # organizer records the demand it was promised.
        self._record_award(session, task.task_id, scored, None, scored.proposal.demand)

    def _handle_refuse(self, message: Message, now: float) -> None:
        payload: RefusePayload = message.payload
        session = self.sessions.get(payload.session_id)
        if session is None or session.closed or session.task_index >= len(session.service.tasks):
            return
        task = session.service.tasks[session.task_index]
        if payload.task_id != task.task_id:
            return
        scored = session.ranked[session.rank_pos]
        if scored.proposal.node_id != message.sender:
            return
        self._cancel_timer(session)
        session.rank_pos += 1
        self._try_next_candidate(session)

    # -- completion -----------------------------------------------------------

    def _finish(self, session: NegotiationSession) -> None:
        session.closed = True
        outcome = NegotiationOutcome(
            service=session.service,
            coalition=session.coalition,
            unallocated=session.unallocated,
            candidates=tuple(sorted(session.responded)),
            proposals_received=session.proposals_received,
            message_count=session.protocol_messages,
        )
        self.engine.emit(
            "negotiation", "complete",
            session=session.session_id, success=outcome.success,
            members=len(session.coalition.members),
        )
        if session.on_complete is not None:
            session.on_complete(outcome)
