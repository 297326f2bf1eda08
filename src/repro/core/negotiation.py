"""The Section 4.2 negotiation algorithm — synchronous driver.

The paper's four steps:

1. *The Negotiation Organizer broadcasts the description of each service,
   as well as user's preferences on each QoS dimension.*
2. *Each QoS Provider contacts its Resource Managers and replies with a
   multi-attribute proposal.*
3. *The Negotiation Organizer, using a multi-attribute function, evaluates
   all received proposals and selects the one that offers the best
   utility.*
4. *Relevant data for task execution is sent to winning node.*

This module runs those steps directly over
:class:`~repro.resources.provider.QoSProvider` objects and a
:class:`~repro.network.topology.Topology` — no message passing, no
latency. It is the reference implementation used by baselines, unit tests
and algorithm-level benchmarks; :mod:`repro.agents` runs the identical
logic as an asynchronous message protocol over the simulated network.

Award semantics: providers formulate per-task proposals *independently*
(a provider does not know which subset of tasks it will win), so the
organizer re-checks admission at award time; if the winner can no longer
serve the level it proposed (its headroom went to an earlier award), the
organizer falls through to the next-ranked proposal. This mirrors the
reservation-at-award behaviour the paper assigns to Resource Managers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.admissibility import is_admissible
from repro.core.coalition import Coalition, TaskAward
from repro.core.evaluation import ProposalEvaluator
from repro.core.formulation import first_fit
from repro.core.proposal import Proposal
from repro.core.reputation import ReputationTracker
from repro.core.selection import ScoredProposal, SelectionPolicy
from repro.errors import (
    CapacityExceededError,
    NotConnectedError,
    UnknownReservationError,
)
from repro.network.topology import Topology
from repro.qos.levels import QualityAssignment
from repro.resources.capacity import Capacity, Row
from repro.resources.provider import QoSProvider
from repro.services.service import Service
from repro.services.task import Task

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector

@dataclass
class NegotiationOutcome:
    """Everything a negotiation run produced.

    Attributes:
        service: The negotiated service.
        coalition: The formed coalition (phase FORMING; empty on failure).
        unallocated: Task ids no admissible+servable proposal covered.
        candidates: Node ids that were asked for proposals.
        proposals_received: Count of proposals received across tasks.
        message_count: Radio messages the run would have cost: 1 CFP copy
            per provider-backed candidate other than the requester, 1
            reply per remote node that proposes (a PROPOSE bundles all of
            that node's per-task proposals), and 1 per award to a remote
            node — matching what the agent-based organizer sends (its
            own node answers the CFP and receives awards locally,
            costing no radio traffic).
        award_retries: Award-handshake retransmissions spent recovering
            lost AWARD/ACK rounds (0 without fault injection).
        retry_delay: Total simulated backoff delay those retries cost.
    """

    service: Service
    coalition: Coalition
    unallocated: List[str] = field(default_factory=list)
    candidates: Tuple[str, ...] = ()
    proposals_received: int = 0
    message_count: int = 0
    award_retries: int = 0
    retry_delay: float = 0.0

    @property
    def success(self) -> bool:
        """Whether every task was allocated."""
        return not self.unallocated and self.coalition.complete

    def award(self, task_id: str) -> TaskAward:
        return self.coalition.awards[task_id]

    def total_distance(self) -> float:
        return self.coalition.total_distance()

    def summary(self) -> str:
        """One-line human-readable result."""
        state = "OK" if self.success else f"FAILED({len(self.unallocated)} unallocated)"
        return (
            f"{self.service.name}: {state} members={sorted(self.coalition.members)} "
            f"distance={self.total_distance():.4f} msgs={self.message_count}"
        )


class _Ledger:
    """Scratch admission accounting for dry runs (``commit=False``).

    Tracks hypothetical demand per node on top of the real Resource
    Manager state without mutating it: a node admits a demand when it
    could serve that demand plus everything booked on it so far.
    """

    def __init__(self, providers: Mapping[str, QoSProvider]) -> None:
        self.providers = providers
        self.extra: Dict[str, Capacity] = {}

    def can_admit(self, node_id: str, demand: Capacity) -> bool:
        booked = self.extra.get(node_id, Capacity.zero())
        return self.providers[node_id].can_serve(booked + demand)

    def admit(self, node_id: str, demand: Capacity) -> None:
        self.extra[node_id] = self.extra.get(node_id, Capacity.zero()) + demand


def candidate_nodes(
    service: Service, topology: Topology, max_hops: int = 1
) -> Tuple[str, ...]:
    """Step 1's audience: the requester plus its live k-hop neighborhood.

    The paper's coalitions are opportunistic — formed from whoever is in
    range when the request happens ("may include the node that starts the
    negotiation"). ``max_hops=1`` is the paper's one-hop broadcast;
    larger values model the relayed-CFP extension (the fixed-cluster
    scope of §1).

    A dead requester cannot broadcast a CFP at all, so its audience is
    empty — previously its (possibly stale) neighborhood was still
    polled, letting a crashed node negotiate.
    """
    requester = service.requester
    if not topology.node(requester).alive:
        return ()
    ids = [requester]
    if max_hops <= 1:
        ids.extend(topology.neighbors(requester))
    else:
        ids.extend(topology.khop_neighbors(requester, max_hops))
    return tuple(dict.fromkeys(ids))  # preserve order, dedupe


def collect_proposals(
    service: Service,
    audience: Sequence[str],
    providers: Mapping[str, QoSProvider],
    now: float = 0.0,
) -> Tuple[Dict[str, List[Proposal]], int]:
    """Steps 1–2 bookkeeping shared by :func:`negotiate` and the
    baselines: gather every audience node's proposals per task and count
    the radio messages so far — one CFP copy per provider-backed
    candidate other than the requester, one bundled reply per responding
    remote node (the single home of those counting rules; step 4's
    remote-award count lives in :func:`remote_award_messages`).
    """
    requester = service.requester
    messages = sum(
        1 for nid in audience if nid != requester and nid in providers
    )
    by_task: Dict[str, List[Proposal]] = {t.task_id: [] for t in service.tasks}
    for node_id in audience:
        provider = providers.get(node_id)
        if provider is None:
            continue
        node_proposals = formulate_node_proposals(provider, service.tasks, now=now)
        if node_id != requester and node_proposals:
            messages += 1
        for proposal in node_proposals:
            by_task[proposal.task_id].append(proposal)
    return by_task, messages


def remote_award_messages(coalition: Coalition, requester: str) -> int:
    """Step 4's radio messages: one per award to a remote node (an award
    to the requester itself is local and costs nothing)."""
    return sum(
        1 for award in coalition.awards.values() if award.node_id != requester
    )


def admission_limits(provider: QoSProvider) -> Optional[Tuple[Row, float]]:
    """:meth:`QoSProvider.can_serve` read once, as :func:`first_fit`'s
    limits.

    ``can_serve(demand)`` holds when the node is alive and willing, the
    demand's ENERGY is at most the battery, and the headroom covers the
    demand (:meth:`Capacity.covers`). Returns the headroom's
    :meth:`Capacity.limits` and the battery, or ``None`` for a node that
    serves nothing.
    """
    node = provider.node
    if not node.alive or not node.willing:
        return None
    return provider.headroom().limits(), node.battery


def formulate_node_proposals(
    provider: QoSProvider,
    tasks: Sequence[Task],
    now: float = 0.0,
) -> List[Proposal]:
    """Step 2 for one node: formulate proposals for the servable tasks.

    Faithful to Section 5, the node first runs the heuristic over *the
    set of tasks* jointly ("while the set of tasks is not schedulable
    ..."), so its proposals are guaranteed co-awardable on its current
    headroom. When even the fully degraded set does not fit, the node
    falls back to independent per-task formulation — it can still
    usefully offer the subset of tasks it could carry individually, and
    the organizer's award-time admission check resolves conflicts.
    Tasks the node cannot serve even alone produce no proposal (the node
    stays silent for them).

    Both are the :func:`first_fit` of the node's headroom on the walk
    every provider shares: the joint walk of ``tasks``, then each task's
    own.
    """
    proposals: List[Proposal] = []
    admission = admission_limits(provider)
    if admission is None:
        return proposals
    limits, battery = admission
    node_id = provider.node.node_id

    def propose(task: Task, assignment: QualityAssignment) -> Proposal:
        values = assignment.values()
        return Proposal(
            task_id=task.task_id,
            node_id=node_id,
            values=values,
            demand=task.demand_at(values),
            formulated_at=now,
        )

    joint = first_fit(tasks, limits, battery)
    if joint is not None:
        return [propose(task, a) for task, a in zip(tasks, joint)]
    for task in tasks:
        solo = first_fit((task,), limits, battery)
        if solo is not None:
            proposals.append(propose(task, solo[0]))
    return proposals


def score_admissible(
    request,
    admissible: Sequence[Proposal],
    evaluator_cache: Dict[int, ProposalEvaluator],
    comm_cost,
    members: set,
    reputation=None,
    battery=None,
) -> Tuple[ScoredProposal, ...]:
    """Step-3 scoring of one task's admissible proposals (both drivers).

    Distances come from a :class:`ProposalEvaluator` compiled once per
    request — ``evaluator_cache`` is keyed by request identity and owned
    by the caller (one negotiation run / one organizer session), so
    tasks sharing a request reuse the compiled tables.
    """
    evaluator = evaluator_cache.get(id(request))
    if evaluator is None:
        evaluator = ProposalEvaluator(request)
        evaluator_cache[id(request)] = evaluator
    return SelectionPolicy.score(
        admissible,
        [float(d) for d in evaluator.distances(admissible)],
        comm_cost, members, reputation=reputation, battery=battery,
    )


def negotiate(
    service: Service,
    topology: Topology,
    providers: Mapping[str, QoSProvider],
    selection: Optional[SelectionPolicy] = None,
    commit: bool = True,
    now: float = 0.0,
    candidates: Optional[Sequence[str]] = None,
    max_hops: int = 1,
    reputation: Optional["ReputationTracker"] = None,
    faults: Optional["FaultInjector"] = None,
) -> NegotiationOutcome:
    """Run the full Section 4.2 negotiation for one service.

    Args:
        service: The service (tasks + requester) to allocate.
        topology: Current network topology (audience + comm costs).
        providers: node id → QoS Provider for every node in the topology.
        selection: Winner-selection policy (default: the paper's triple).
        commit: When ``True`` award-time admission reserves real
            resources; when ``False`` a scratch ledger is used and no
            state is mutated (dry run for baselines/what-ifs).
        now: Simulated time stamped on proposals/reservations.
        candidates: Override the audience (default:
            :func:`candidate_nodes`).
        max_hops: CFP reach in hops. 1 = the paper's one-hop broadcast;
            > 1 enables the relayed extension, with communication costs
            computed over the best multi-hop route.
        reputation: Optional reliability tracker; its scores reach the
            selection policy (only used when the policy enables
            ``use_reputation``).
        faults: Optional fault injector
            (:class:`~repro.faults.injector.FaultInjector`): PROPOSE
            bundles may be dropped or arrive stale, and committed remote
            awards run the hardened AWARD/ACK handshake — lost rounds
            retry with bounded deterministic exponential backoff before
            the organizer falls through down the ranking. ``None`` (the
            default) is the exact pre-fault path, draw for draw.

    Returns:
        A :class:`NegotiationOutcome`; the coalition is left in phase
        FORMING so callers can start the operation phase.
    """
    selection = selection if selection is not None else SelectionPolicy()
    coalition = Coalition(service, formed_at=now)
    audience = (
        tuple(candidates) if candidates is not None
        else candidate_nodes(service, topology, max_hops)
    )
    # Steps 1–2: broadcast the CFP and collect per-task proposals; the
    # helper also tallies the radio messages those steps cost.
    by_task, messages = collect_proposals(service, audience, providers, now=now)
    stale: frozenset = frozenset()
    if faults is not None:
        # Link/agent faults hit the PROPOSE leg: dropped bundles vanish
        # before evaluation, stale ones are scored but refused at award.
        by_task, stale = faults.filter_proposals(
            service.requester, audience, by_task
        )
    proposals_received = sum(len(v) for v in by_task.values())
    ledger = _Ledger(providers) if not commit else None

    # The synchronous driver never advances the engine, so the topology
    # cannot change mid-run: memoize the per-node cost on top of the
    # topology's own per-epoch route cache (scoring consults it once per
    # proposal, and popular providers propose for every task).
    comm_cache: Dict[str, float] = {}

    def comm_cost(node_id: str) -> float:
        cached = comm_cache.get(node_id)
        if cached is not None:
            return cached
        try:
            if max_hops > 1:
                cost = topology.multihop_cost(service.requester, node_id)
            else:
                cost = topology.communication_cost(service.requester, node_id)
        except NotConnectedError:
            # No direct link: the offer is unreachable, not erroneous.
            # Anything else (unknown node ids, ...) is a caller bug and
            # propagates instead of masquerading as "unreachable".
            cost = float("inf")
        comm_cache[node_id] = cost
        return cost

    # Step 3 + 4: evaluate, select, award with admission re-check.
    # Evaluators compile per *request*, not per task: tasks sharing a
    # request (common in generated workloads) reuse one compiled set of
    # weights/denominators and its dif caches.
    evaluators: Dict[int, ProposalEvaluator] = {}
    unallocated: List[str] = []
    handshake_stats = {"retries": 0, "delay": 0.0}
    for task in service.tasks:
        admissible = [
            p for p in by_task[task.task_id] if is_admissible(task.request, p)
        ]

        def battery(node_id: str) -> float:
            provider = providers.get(node_id)
            return provider.node.battery_fraction if provider else 0.0

        scored = score_admissible(
            task.request, admissible, evaluators, comm_cost,
            set(coalition.members),
            reputation=reputation.score if reputation is not None else None,
            battery=battery,
        )
        ranked = selection.rank(scored)
        awarded = _try_award(
            task, ranked, coalition, providers, ledger, commit, now,
            faults=faults, stale=stale, stats=handshake_stats,
        )
        if awarded is None:
            unallocated.append(task.task_id)
        else:
            coalition.add_award(awarded)

    messages += remote_award_messages(coalition, service.requester)
    return NegotiationOutcome(
        service=service,
        coalition=coalition,
        unallocated=unallocated,
        candidates=audience,
        proposals_received=proposals_received,
        message_count=messages,
        award_retries=handshake_stats["retries"],
        retry_delay=handshake_stats["delay"],
    )


def _try_award(
    task: Task,
    ranked: Sequence[ScoredProposal],
    coalition: Coalition,
    providers: Mapping[str, QoSProvider],
    ledger: Optional[_Ledger],
    commit: bool,
    now: float,
    faults: Optional["FaultInjector"] = None,
    stale: frozenset = frozenset(),
    stats: Optional[Dict[str, float]] = None,
) -> Optional[TaskAward]:
    """Walk the ranked proposals; first one that passes admission wins.

    Under fault injection, nodes whose PROPOSE arrived stale are refused
    here (their offer no longer reflects their state), and a committed
    remote award must survive the AWARD/ACK handshake — an unacked award
    releases its reservation (idempotently: the winner may have crashed
    and released already) and the walk falls through down the ranking.
    """
    holder = f"{coalition.service.name}:{task.task_id}"
    requester = coalition.service.requester
    for scored in ranked:
        proposal = scored.proposal
        if proposal.node_id in stale:
            continue
        provider = providers.get(proposal.node_id)
        if provider is None:
            continue
        if commit:
            try:
                reservation, demand = provider.reserve_for(
                    holder, task.demand_model, proposal.values, now
                )
            except CapacityExceededError:
                continue
            if faults is not None and proposal.node_id != requester:
                acked, retries, delay = faults.award_handshake(
                    requester, proposal.node_id
                )
                if stats is not None:
                    stats["retries"] += retries
                    stats["delay"] += delay
                if not acked:
                    release_award(
                        providers,
                        TaskAward(
                            task_id=task.task_id,
                            node_id=proposal.node_id,
                            proposal=proposal,
                            distance=scored.distance,
                            comm_cost=scored.comm_cost,
                            demand=demand,
                            reservation=reservation,
                        ),
                        now,
                        missing_ok=True,
                    )
                    continue
            return TaskAward(
                task_id=task.task_id,
                node_id=proposal.node_id,
                proposal=proposal,
                distance=scored.distance,
                comm_cost=scored.comm_cost,
                demand=demand,
                reservation=reservation,
            )
        else:
            assert ledger is not None
            demand = task.demand_at(proposal.values)
            if not ledger.can_admit(proposal.node_id, demand):
                continue
            ledger.admit(proposal.node_id, demand)
            return TaskAward(
                task_id=task.task_id,
                node_id=proposal.node_id,
                proposal=proposal,
                distance=scored.distance,
                comm_cost=scored.comm_cost,
                demand=demand,
                reservation=None,
            )
    return None


def release_award(
    providers: Mapping[str, QoSProvider],
    award: TaskAward,
    now: float = 0.0,
    missing_ok: bool = False,
) -> bool:
    """Release one award's reservation; returns whether anything was
    released.

    With ``missing_ok`` the release is *idempotent*: a reservation the
    manager no longer knows (already released by a crash sweep, a
    duplicate RELEASE after a lost ack, ...) is absorbed instead of
    raising :class:`~repro.errors.UnknownReservationError`. Managers
    raise that error from a single guarded lookup before mutating, so
    absorbing it cannot mask partial state changes; genuinely malformed
    releases (``ValueError``) still propagate either way.
    """
    if award.reservation is None or not award.reservation.live:
        return False
    try:
        providers[award.node_id].release(award.reservation, now)
    except UnknownReservationError:
        if not missing_ok:
            raise
        return False
    return True


def release_coalition(
    coalition: Coalition,
    providers: Mapping[str, QoSProvider],
    now: float = 0.0,
    missing_ok: bool = False,
) -> int:
    """Release every live reservation held by a coalition's awards.

    Returns the number of reservations released. Used at dissolution and
    by tests to restore manager state. ``missing_ok`` makes each
    per-award release idempotent (see :func:`release_award`); dissolution
    keeps the strict default so double-releases stay loud.
    """
    released = 0
    for award in coalition.awards.values():
        if release_award(providers, award, now, missing_ok=missing_ok):
            released += 1
    return released
