"""Section 5 formulation against recorded answers.

``tests/data/formulation_golden.json`` records what the per-node degrade
loop answered for random headroom: per service family, 40 nodes drawn
from ``RngRegistry(2026).stream("formulation-golden:<family>")``, each
of a class uniform over :class:`NodeClass`, with capacity equal to the
class profile scaled by U(0.05, 2.0) and a finite battery drained by
U(0, 1). Per node it holds

* the :func:`formulate_node_proposals` answer: the task index and the
  sorted values of each proposal (joint proposals, the per-task
  fallback, or silence);
* the joint :func:`formulate` result under the summed-demand test:
  ``feasible``, ``degradations`` and the per-task eq. 1 rewards.

Any rewrite of the degrade loop must reproduce every draw exactly
(``==`` on the floats) — the fixture is the oracle the loop itself
would otherwise have to stay around as.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping, Optional

import pytest

from repro.core.formulation import formulate
from repro.core.negotiation import formulate_node_proposals
from repro.qos.levels import QualityAssignment
from repro.resources.capacity import Capacity
from repro.resources.kinds import ResourceKind
from repro.resources.node import NODE_CLASS_PROFILES, Node, NodeClass
from repro.resources.provider import QoSProvider
from repro.sim.rng import RngRegistry
from repro.workloads.services import SERVICE_FAMILIES, build_service

DRAWS = 40

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "formulation_golden.json").read_text()
)


def _providers(family: str):
    """The family's random nodes, each behind a fresh provider."""
    rng = RngRegistry(2026).stream(f"formulation-golden:{family}")
    classes = list(NodeClass)
    for i in range(DRAWS):
        node_class = classes[int(rng.integers(len(classes)))]
        capacity = NODE_CLASS_PROFILES[node_class].scaled(
            float(rng.uniform(0.05, 2.0))
        )
        node = Node(f"n{i}", node_class, capacity=capacity)
        drain = float(rng.uniform(0.0, 1.0))
        node.battery = capacity.get(ResourceKind.ENERGY) * (1.0 - drain)
        yield QoSProvider(node)


def _answers(family: str) -> list:
    """What the current code answers for every draw of ``family``."""
    tasks = list(build_service(family, requester="r").tasks)
    by_id = {task.task_id: task for task in tasks}
    index = {task.task_id: i for i, task in enumerate(tasks)}
    answers = []
    for provider in _providers(family):
        proposals = formulate_node_proposals(provider, tasks)

        def summed_demand_fits(
            assignments: Mapping[str, QualityAssignment],
        ) -> bool:
            total: Optional[Capacity] = None
            for tid, assignment in assignments.items():
                demand = by_id[tid].demand_at(assignment.values())
                total = demand if total is None else total + demand
            return True if total is None else provider.can_serve(total)

        joint = formulate(tasks, summed_demand_fits)
        answers.append({
            "proposals": [
                [index[p.task_id], [list(kv) for kv in sorted(p.values.items())]]
                for p in proposals
            ],
            "feasible": joint.feasible,
            "degradations": joint.degradations,
            "rewards": [joint.rewards[task.task_id] for task in tasks],
        })
    return answers


@pytest.mark.parametrize("family", list(SERVICE_FAMILIES))
def test_node_proposals_match_recorded(family):
    recorded = GOLDEN[family]
    assert len(recorded) == DRAWS
    for draw, (got, expected) in enumerate(zip(_answers(family), recorded)):
        assert got == expected, (family, draw)
