"""User-perceived utility.

The paper's objective is to "maximize user's perceived utility" by
minimizing the eq. 2 distance. We report utility as the normalized
complement of that distance::

    utility = 1 - distance / max_distance   ∈ [0, 1]

where ``max_distance`` is the evaluator's upper bound over in-domain
proposals (:meth:`~repro.core.evaluation.ProposalEvaluator.max_distance`).
Utility 1 means every attribute at the user's preferred value; 0 means
maximally distant (yet admissible) values everywhere. Unallocated tasks
contribute utility 0 — a service the user does not get has no value.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.core.evaluation import ProposalEvaluator
from repro.core.negotiation import NegotiationOutcome
from repro.core.proposal import Proposal
from repro.qos.request import ServiceRequest


def proposal_utility(request: ServiceRequest, proposal: Proposal) -> float:
    """Normalized utility of one proposal under a request."""
    evaluator = ProposalEvaluator(request)
    bound = evaluator.max_distance()
    if bound <= 0:
        return 1.0
    value = 1.0 - evaluator.distance(proposal) / bound
    return max(0.0, min(1.0, value))


def assignment_utility(request: ServiceRequest, values: Mapping[str, Any]) -> float:
    """Utility of a concrete attribute→value assignment."""
    proposal = Proposal(task_id="_", node_id="_", values=dict(values))
    return proposal_utility(request, proposal)


def allocation_utility(request: ServiceRequest, distance: float) -> float:
    """Utility from a pre-computed eq. 2 distance."""
    bound = ProposalEvaluator(request).max_distance()
    if bound <= 0:
        return 1.0
    return max(0.0, min(1.0, 1.0 - distance / bound))


def outcome_utility(outcome: NegotiationOutcome) -> float:
    """Mean per-task utility of a negotiation outcome.

    Allocated tasks contribute their award's normalized utility;
    unallocated tasks contribute 0.
    """
    tasks = outcome.service.tasks
    if not tasks:
        return 0.0
    total = 0.0
    for task in tasks:
        award = outcome.coalition.awards.get(task.task_id)
        if award is None:
            continue
        total += allocation_utility(task.request, award.distance)
    return total / len(tasks)
