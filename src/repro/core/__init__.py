"""The paper's primary contribution: QoS-aware coalition formation.

Layout mirrors the paper:

* :mod:`repro.core.proposal` — multi-attribute proposals (Section 4.2);
* :mod:`repro.core.reward` — the local reward of eq. 1 (Section 5);
* :mod:`repro.core.formulation` — the proposal-formulation degradation
  heuristic (Section 5);
* :mod:`repro.core.evaluation` — the distance evaluator of eqs. 2–5
  (Section 6);
* :mod:`repro.core.admissibility` — the admissible-proposal predicate
  (Section 6);
* :mod:`repro.core.selection` — winner selection with the paper's
  tie-breaking triple (Section 4.2);
* :mod:`repro.core.negotiation` — the four-step negotiation algorithm
  (Section 4.2), synchronous driver;
* :mod:`repro.core.coalition` — coalition object and life cycle
  (Section 4);
* :mod:`repro.core.operation` — operation-phase monitoring and failure
  reconfiguration (Section 4's "Operation" phase), run-to-quiescence
  driver for one coalition at a time (for the operation phase *under
  contention* — many coalitions on one shared engine — see
  :mod:`repro.sessions`);
* :mod:`repro.core.baselines` — comparison allocators (single node,
  random, centralized greedy, exhaustive optimal).
"""

from repro.core.proposal import Proposal
from repro.core.reward import local_reward
from repro.core.formulation import FormulationResult, formulate
from repro.core.evaluation import ProposalEvaluator, WeightScheme
from repro.core.admissibility import is_admissible, admissibility_failures
from repro.core.reputation import ReputationTracker
from repro.core.selection import SelectionPolicy, ScoredProposal
from repro.core.negotiation import (
    NegotiationOutcome,
    TaskAward,
    negotiate,
    release_coalition,
)
from repro.core.coalition import Coalition, CoalitionPhase
from repro.core.operation import OperationReport, run_operation_phase
from repro.core import baselines

__all__ = [
    "Proposal",
    "local_reward",
    "FormulationResult",
    "formulate",
    "ProposalEvaluator",
    "WeightScheme",
    "is_admissible",
    "admissibility_failures",
    "SelectionPolicy",
    "ScoredProposal",
    "ReputationTracker",
    "NegotiationOutcome",
    "TaskAward",
    "negotiate",
    "release_coalition",
    "Coalition",
    "CoalitionPhase",
    "OperationReport",
    "run_operation_phase",
    "baselines",
]
