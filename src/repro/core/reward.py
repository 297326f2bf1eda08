"""The local reward of eq. 1 (paper Section 5).

.. math::

    r = \\begin{cases}
        n & \\text{if the task is served at } Q_{k1}
            \\text{ for all dimensions} \\\\
        n - \\sum_{j=1}^{n} \\text{penalty}_j & \\text{if } Q_{kj} > Q_{k1}
        \\end{cases}

The paper leaves ``penalty`` open: *"this parameter can be defined
according to user's own criteria and its value increases with the distance
for user's preferred value."* We take ``n`` to be the number of attributes
in the request (each attribute contributes one penalty term; serving every
attribute at its preferred level yields the maximal reward ``n``), and fix
one penalty that satisfies the paper's monotonicity rule::

    penalty_j = index_j / (depth_j - 1)

where ``index_j`` is attribute ``j``'s degradation-ladder index (0 = the
user's preferred value) and ``depth_j`` its ladder length; a one-level
ladder cannot degrade and costs 0. Normalizing by ladder depth makes one
full degradation of any attribute cost exactly 1 however many levels the
user listed, so attribute importance comes only from the request order,
not from ladder granularity.
"""

from __future__ import annotations

from repro.qos.levels import QualityAssignment


def local_reward(assignment: QualityAssignment) -> float:
    """Evaluate eq. 1 for a quality assignment.

    Returns:
        ``n`` (the attribute count) when the assignment is at the top
        level everywhere, otherwise ``n - Σ penalty_j``.
    """
    ladders = assignment.ladder_set.ladders
    n = len(ladders)
    if assignment.at_top:
        return float(n)
    total_penalty = 0.0
    for attr, ladder in ladders.items():
        depth = len(ladder)
        if depth > 1:
            total_penalty += assignment.index(attr) / (depth - 1)
    return float(n) - total_penalty
