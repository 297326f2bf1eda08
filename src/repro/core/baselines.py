"""Baseline allocators: the ladder every allocation paper is judged against.

The paper names no quantitative comparators. The experiments compare the
protocol with one of these; the tests hold it against all four:

* :func:`single_node` — no cooperation: the requester serves everything
  itself (the paper's "by default, the responsibility associated with
  data processing is on the mobile device"). E1, E7, E10 and E17 use it;
* :func:`random_admissible` — cooperation without intelligence: each task
  goes to a uniformly random candidate whose offer is admissible and
  servable;
* :func:`greedy_centralized` — an omniscient greedy allocator minimizing
  eq. 2 distance only (no comm-cost / coalition-size tie-breaks);
* :func:`exhaustive_optimal` — exact minimum-total-distance allocation by
  enumeration (small instances only), the quality upper bound.

All return :class:`~repro.core.negotiation.NegotiationOutcome` and mutate
no Resource Manager, so they can be compared on the same initial state.
A node admits a task through :meth:`QoSProvider.can_serve
<repro.resources.provider.QoSProvider.can_serve>`, on top of what the
allocation has booked on it so far.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.admissibility import is_admissible
from repro.core.coalition import Coalition, TaskAward
from repro.core.evaluation import ProposalEvaluator
from repro.core.formulation import first_fit
from repro.core.negotiation import (
    NegotiationOutcome,
    _Ledger,
    admission_limits,
    candidate_nodes,
    collect_proposals,
    formulate_node_proposals,
    negotiate,
    remote_award_messages,
)
from repro.core.proposal import Proposal
from repro.core.selection import SelectionPolicy
from repro.errors import NotConnectedError
from repro.network.topology import Topology
from repro.resources.provider import QoSProvider
from repro.services.service import Service


def single_node(
    service: Service,
    topology: Topology,
    providers: Mapping[str, QoSProvider],
    now: float = 0.0,
) -> NegotiationOutcome:
    """Allocate every task to the requester alone (no coalition).

    The requester formulates all tasks *jointly* (they must be
    schedulable together on the one device — exactly the Section 5 "while
    the set of tasks is not schedulable" loop): the :func:`first_fit` of
    its headroom on the tasks' joint walk, with no per-task fallback.
    """
    requester = service.requester
    provider = providers[requester]
    coalition = Coalition(service, formed_at=now)
    unallocated: List[str] = [t.task_id for t in service.tasks]

    admission = admission_limits(provider)
    state = None if admission is None else first_fit(service.tasks, *admission)
    if state is not None:
        unallocated = []
        for task, assignment in zip(service.tasks, state):
            values = assignment.values()
            evaluator = ProposalEvaluator(task.request)
            proposal = Proposal(
                task_id=task.task_id, node_id=requester,
                values=values, demand=task.demand_at(values),
                formulated_at=now,
            )
            coalition.add_award(
                TaskAward(
                    task_id=task.task_id,
                    node_id=requester,
                    proposal=proposal,
                    distance=evaluator.distance(proposal),
                    comm_cost=0.0,
                    demand=proposal.demand,
                    reservation=None,
                )
            )

    return NegotiationOutcome(
        service=service,
        coalition=coalition,
        unallocated=unallocated,
        candidates=(requester,),
        proposals_received=len(service.tasks) - len(unallocated),
        message_count=0,
    )


def random_admissible(
    service: Service,
    topology: Topology,
    providers: Mapping[str, QoSProvider],
    rng: np.random.Generator,
    now: float = 0.0,
) -> NegotiationOutcome:
    """Each task to a uniformly random admissible+servable offer."""
    audience = candidate_nodes(service, topology)
    requester = service.requester
    coalition = Coalition(service, formed_at=now)
    ledger = _Ledger(providers)
    unallocated: List[str] = []

    # Same radio-message bookkeeping as negotiate (shared helpers), so
    # baseline-vs-protocol message comparisons stay apples to apples.
    by_task, messages = collect_proposals(service, audience, providers, now=now)
    proposals_received = sum(len(v) for v in by_task.values())

    for task in service.tasks:
        evaluator = ProposalEvaluator(task.request)
        pool = [p for p in by_task[task.task_id] if is_admissible(task.request, p)]
        # Random order, then first that fits — uniform among feasible.
        order = list(rng.permutation(len(pool)))
        awarded = False
        for idx in order:
            proposal = pool[int(idx)]
            demand = task.demand_at(proposal.values)
            if not ledger.can_admit(proposal.node_id, demand):
                continue
            ledger.admit(proposal.node_id, demand)
            try:
                comm = topology.communication_cost(service.requester, proposal.node_id)
            except NotConnectedError:
                comm = float("inf")  # out of range, not an error
            coalition.add_award(
                TaskAward(
                    task_id=task.task_id,
                    node_id=proposal.node_id,
                    proposal=proposal,
                    distance=evaluator.distance(proposal),
                    comm_cost=comm,
                    demand=demand,
                    reservation=None,
                )
            )
            awarded = True
            break
        if not awarded:
            unallocated.append(task.task_id)

    messages += remote_award_messages(coalition, requester)
    return NegotiationOutcome(
        service=service,
        coalition=coalition,
        unallocated=unallocated,
        candidates=audience,
        proposals_received=proposals_received,
        message_count=messages,
    )


def greedy_centralized(
    service: Service,
    topology: Topology,
    providers: Mapping[str, QoSProvider],
    now: float = 0.0,
) -> NegotiationOutcome:
    """Omniscient greedy: pure distance minimization per task.

    Equivalent to the paper's protocol with both tie-breaks disabled and
    no messaging — isolates the value of the distance function itself.
    """
    outcome = negotiate(
        service,
        topology,
        providers,
        selection=SelectionPolicy(use_comm_cost=False, use_coalition_size=False),
        commit=False,
        now=now,
    )
    outcome.message_count = 0  # centralized: no protocol traffic
    return outcome


def exhaustive_optimal(
    service: Service,
    topology: Topology,
    providers: Mapping[str, QoSProvider],
    now: float = 0.0,
    max_combinations: int = 200_000,
) -> Optional[NegotiationOutcome]:
    """Exact minimum-total-distance allocation by enumeration.

    Enumerates every task→node mapping over the candidate set, using each
    node's per-task formulated proposal, and keeps the feasible mapping
    with (lowest total distance, fewest members, lowest comm cost) — the
    paper's triple applied globally instead of greedily.

    Returns ``None`` if the instance exceeds ``max_combinations``
    (exponential blow-up guard).
    """
    audience = candidate_nodes(service, topology)
    n_tasks = len(service.tasks)
    if len(audience) ** n_tasks > max_combinations:
        return None

    # Pre-formulate every (node, task) proposal once.
    offers: Dict[Tuple[str, str], Proposal] = {}
    proposals_received = 0
    for node_id in audience:
        provider = providers.get(node_id)
        if provider is None:
            continue
        for proposal in formulate_node_proposals(provider, service.tasks, now=now):
            if is_admissible(service.task(proposal.task_id).request, proposal):
                offers[(node_id, proposal.task_id)] = proposal
                proposals_received += 1

    evaluators = {
        t.task_id: ProposalEvaluator(t.request) for t in service.tasks
    }

    best_key: Optional[Tuple[float, int, float]] = None
    best_awards: Optional[List[TaskAward]] = None

    for mapping in itertools.product(audience, repeat=n_tasks):
        ledger = _Ledger(providers)
        awards: List[TaskAward] = []
        feasible = True
        for task, node_id in zip(service.tasks, mapping):
            proposal = offers.get((node_id, task.task_id))
            if proposal is None:
                feasible = False
                break
            demand = task.demand_at(proposal.values)
            if not ledger.can_admit(node_id, demand):
                feasible = False
                break
            ledger.admit(node_id, demand)
            try:
                comm = topology.communication_cost(service.requester, node_id)
            except NotConnectedError:
                feasible = False  # out of range, not an error
                break
            awards.append(
                TaskAward(
                    task_id=task.task_id, node_id=node_id, proposal=proposal,
                    distance=evaluators[task.task_id].distance(proposal),
                    comm_cost=comm, demand=demand, reservation=None,
                )
            )
        if not feasible:
            continue
        total_distance = sum(a.distance for a in awards)
        members = len({a.node_id for a in awards})
        total_comm = sum(a.comm_cost for a in awards)
        key = (total_distance, members, total_comm)
        if best_key is None or key < best_key:
            best_key = key
            best_awards = awards

    coalition = Coalition(service, formed_at=now)
    unallocated = [t.task_id for t in service.tasks]
    if best_awards is not None:
        unallocated = []
        for award in best_awards:
            coalition.add_award(award)

    return NegotiationOutcome(
        service=service,
        coalition=coalition,
        unallocated=unallocated,
        candidates=audience,
        proposals_received=proposals_received,
        message_count=0,
    )
