"""One fit rule: a node's proposals are what ``can_serve`` accepts.

:func:`formulate_node_proposals` tests the walk's summed-demand rows
against the headroom's limits and the battery, read once per node; the
rule they restate is :meth:`QoSProvider.can_serve`. The oracle runs the
Section 5 loop with ``can_serve`` of each state's summed demand as the
schedulability test: the joint state first, else each task's own state,
else silence.

Headrooms sit on the boundary where the two could part: each is the
family's own summed demand at one of its walk states, joint or per-task,
with each component moved by -1e-9, 0 or +1e-9 and some set to 0.0.
Batteries are drawn the same way around the summed ENERGY.
``pytest --hypothesis-profile=deep`` runs the property at the loaded
profile's budget.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.formulation import formulate
from repro.core.negotiation import formulate_node_proposals
from repro.resources.capacity import SLACK, Capacity
from repro.resources.kinds import KINDS, ResourceKind
from repro.resources.node import Node
from repro.resources.provider import QoSProvider
from repro.services.task import Task
from repro.workloads.services import SERVICE_FAMILIES, build_service
from tests.conftest import budget


def _summed(tasks: Sequence[Task], assignment) -> Capacity:
    total = Capacity.zero()
    for task in tasks:
        total = total + task.demand_at(assignment[task.task_id].values())
    return total


@lru_cache(maxsize=None)
def _family(family: str) -> Tuple[Tuple[Task, ...], Tuple[Capacity, ...]]:
    """The family's tasks, and the summed demand of every state of its
    joint walk and of each task's own walk."""
    tasks = build_service(family, requester="n").tasks
    sums: List[Capacity] = []

    def record(walked):
        def never(assignment) -> bool:
            sums.append(_summed(walked, assignment))
            return False
        formulate(walked, never)

    record(tasks)
    for task in tasks:
        record((task,))
    return tasks, tuple(sums)


NUDGE = st.sampled_from((-SLACK, 0.0, SLACK) * 3 + (None,))
"""A component's move off the drawn sum; ``None`` (one draw in ten) sets
it to 0.0."""


def _nudged(amount: float, nudge) -> float:
    return 0.0 if nudge is None else max(amount + nudge, 0.0)


def _accepted(provider: QoSProvider, tasks: Sequence[Task]):
    """What the loop accepts under ``can_serve``: (task id, values)."""
    def fits(walked):
        return lambda assignment: provider.can_serve(_summed(walked, assignment))

    joint = formulate(tasks, fits(tasks))
    if joint.feasible:
        return [(task.task_id, joint.values(task.task_id)) for task in tasks]
    accepted = []
    for task in tasks:
        solo = formulate((task,), fits((task,)))
        if solo.feasible:
            accepted.append((task.task_id, solo.values(task.task_id)))
    return accepted


@pytest.mark.parametrize("family", list(SERVICE_FAMILIES))
@settings(derandomize=True, deadline=None, max_examples=budget(40))
@given(data=st.data())
def test_node_proposals_are_what_can_serve_accepts(family, data):
    tasks, sums = _family(family)
    drawn = data.draw(st.sampled_from(sums))
    nudges = data.draw(st.lists(NUDGE, min_size=len(KINDS), max_size=len(KINDS)))
    headroom = Capacity({
        kind: _nudged(amount, nudge)
        for kind, amount, nudge in zip(KINDS, drawn.row, nudges)
    })
    energy = data.draw(st.sampled_from(sums)).get(ResourceKind.ENERGY)
    node = Node("n", capacity=headroom)
    node.battery = _nudged(energy, data.draw(NUDGE))
    provider = QoSProvider(node)

    proposals = formulate_node_proposals(provider, tasks)

    assert [(p.task_id, p.values) for p in proposals] == _accepted(provider, tasks)
    by_id = {task.task_id: task for task in tasks}
    for proposal in proposals:
        assert proposal.node_id == "n"
        assert proposal.demand.row == by_id[proposal.task_id].demand_at(proposal.values).row
