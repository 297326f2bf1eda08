"""Winner selection with the paper's tie-breaking triple (Section 4.2).

*"The coalition is formed based on the set of proposals that presents:
lowest evaluation value … lowest communication cost … lowest number of
distinct nodes in coalition."*

:class:`SelectionPolicy` ranks the admissible proposals for one task
lexicographically by

1. eq. 2 distance (quantized to :data:`DISTANCE_RESOLUTION` so that
   numerically indistinguishable offers fall through to the secondary
   criteria — with exact floats the tie-breaks would almost never fire);
2. communication cost between requester and offering node;
3. whether the node would be a *new* coalition member (preferring reuse
   keeps the member count low — the greedy per-task analogue of the
   paper's coalition-level "lowest number of distinct nodes");
4. node id (pure determinism, no semantic content).

Each criterion can be disabled for the E6 ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Set, Tuple

from repro.core.proposal import Proposal
from repro.errors import NoAdmissibleProposalError
from repro.sim.rng import derive_seed

CommCost = Callable[[str], float]
"""Maps an offering node id to the cost of talking to the requester."""

DISTANCE_RESOLUTION = 1e-6
"""Quantum for distance comparison: distances within one quantum tie."""

REPUTATION_RESOLUTION = 0.1
"""Quantum for the reputation criterion."""

BATTERY_RESOLUTION = 0.2
"""Quantum for the battery criterion."""


@dataclass(frozen=True)
class ScoredProposal:
    """A proposal with its selection-relevant scores attached.

    Attributes:
        proposal: The underlying offer.
        distance: eq. 2 evaluation (lower = better).
        comm_cost: Communication cost to the requester (lower = better).
        new_member: Whether awarding it would grow the coalition.
        reputation: Reliability estimate of the offering node in [0, 1]
            (extension; 0.5 = unknown, higher = better).
        battery_fraction: Remaining battery of the offering node in
            [0, 1] (extension; higher = better).
    """

    proposal: Proposal
    distance: float
    comm_cost: float
    new_member: bool
    reputation: float = 0.5
    battery_fraction: float = 1.0


class SelectionPolicy:
    """Configurable lexicographic winner selection.

    Two extension criteria, both **off by default** (the paper's triple):

    * ``use_reputation`` — after distance, prefer nodes with a higher
      task-completion reliability estimate (quantized to
      :data:`REPUTATION_RESOLUTION` so that small estimate noise does not
      override the operational tie-breaks);
    * ``use_battery`` — after reputation but before the operational
      tie-breaks, prefer nodes with more remaining battery (quantized to
      :data:`BATTERY_RESOLUTION` buckets; within a bucket comm cost still
      decides). Placing it above comm cost is deliberate: its purpose is
      *network lifetime*, which a cheaper link cannot buy back once the
      nearest helper's battery is gone.

    Args:
        use_comm_cost: Apply tie-break (2). Disabled in ablations.
        use_coalition_size: Apply tie-break (3). Disabled in ablations.
        use_reputation: Apply the reliability extension criterion.
        use_battery: Apply the battery extension criterion.
    """

    def __init__(
        self,
        use_comm_cost: bool = True,
        use_coalition_size: bool = True,
        use_reputation: bool = False,
        use_battery: bool = False,
    ) -> None:
        self.use_comm_cost = use_comm_cost
        self.use_coalition_size = use_coalition_size
        self.use_reputation = use_reputation
        self.use_battery = use_battery

    def _key(self, scored: ScoredProposal) -> Tuple:
        quantized = round(scored.distance / DISTANCE_RESOLUTION)
        key: list = [quantized]
        if self.use_reputation:
            # Negated (higher reliability first), quantized.
            key.append(-round(scored.reputation / REPUTATION_RESOLUTION))
        if self.use_battery:
            key.append(-round(scored.battery_fraction / BATTERY_RESOLUTION))
        if self.use_comm_cost:
            key.append(scored.comm_cost)
        if self.use_coalition_size:
            key.append(1 if scored.new_member else 0)
        # Final determinism tie-break: a stable hash of (task, node) rather
        # than the bare node id — a lexicographic node-id break would
        # systematically concentrate all residual ties on one node, which
        # is an artifact, not a policy.
        key.append(derive_seed(0, f"{scored.proposal.task_id}:{scored.proposal.node_id}"))
        key.append(scored.proposal.node_id)
        return tuple(key)

    def rank(self, scored: Sequence[ScoredProposal]) -> Tuple[ScoredProposal, ...]:
        """All proposals, best first."""
        return tuple(sorted(scored, key=self._key))

    def select(self, scored: Sequence[ScoredProposal]) -> ScoredProposal:
        """The winning proposal.

        Raises:
            NoAdmissibleProposalError: If ``scored`` is empty.
        """
        if not scored:
            raise NoAdmissibleProposalError("no admissible proposals to select from")
        return min(scored, key=self._key)

    @staticmethod
    def score(
        proposals: Iterable[Proposal],
        distances: Sequence[float],
        comm_cost: CommCost,
        members: Set[str],
        reputation: Optional[Callable[[str], float]] = None,
        battery: Optional[Callable[[str], float]] = None,
    ) -> Tuple[ScoredProposal, ...]:
        """Attach scores to raw proposals.

        Args:
            proposals: Admissible proposals for one task.
            distances: eq. 2 distances aligned with ``proposals``
                (:meth:`~repro.core.evaluation.ProposalEvaluator.distances`).
            comm_cost: node id → communication cost to the requester.
            members: Node ids already in the forming coalition.
            reputation: Optional node id → reliability estimate.
            battery: Optional node id → remaining battery fraction.
        """
        return tuple(
            ScoredProposal(
                proposal=p,
                distance=d,
                comm_cost=comm_cost(p.node_id),
                new_member=p.node_id not in members,
                reputation=reputation(p.node_id) if reputation else 0.5,
                battery_fraction=battery(p.node_id) if battery else 1.0,
            )
            for p, d in zip(proposals, distances)
        )
