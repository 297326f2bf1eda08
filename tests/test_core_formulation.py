"""Unit tests for the Section 5 proposal-formulation heuristic."""

from __future__ import annotations

from typing import Mapping

import pytest

from repro.core.formulation import formulate
from repro.core.reward import local_reward
from repro.errors import InfeasibleTaskError
from repro.qos import catalog
from repro.qos.catalog import CODEC, COLOR_DEPTH, FRAME_RATE
from repro.services import workload
from repro.services.task import Task


def _video_task() -> Task:
    return Task(
        task_id="video",
        request=catalog.surveillance_request(),
        demand_model=workload.video_decode_demand(),
    )


def _cpu_budget_test(budget: float, task: Task):
    """Schedulability = total CPU demand fits the budget."""
    from repro.resources.kinds import ResourceKind

    def check(assignments) -> bool:
        total = 0.0
        for tid, a in assignments.items():
            total += task.demand_at(a.values()).get(ResourceKind.CPU)
        return total <= budget

    return check


def test_no_degradation_when_preferred_fits():
    task = _video_task()
    result = formulate([task], lambda a: True)
    assert result.feasible
    assert result.degradations == 0
    assert result.assignments["video"].at_top
    assert result.rewards["video"] == 4.0


def test_degrades_until_schedulable():
    task = _video_task()
    # Preferred level: cpu = 10 + 6*10 + 4*3 = 82. Budget 75 forces work.
    result = formulate([task], _cpu_budget_test(75.0, task))
    assert result.feasible
    assert result.degradations > 0
    assert not result.assignments["video"].at_top
    from repro.resources.kinds import ResourceKind

    final = task.demand_at(result.values("video")).get(ResourceKind.CPU)
    assert final <= 75.0


def test_minimum_reward_decrease_is_chosen():
    """With the surveillance request, one frame-rate step costs 1/9 reward
    while one color-depth step costs 1/1, so frame rate degrades first."""
    task = _video_task()
    result = formulate([task], _cpu_budget_test(78.0, task))
    a = result.assignments["video"]
    assert a.index(FRAME_RATE) > 0
    assert a.index(COLOR_DEPTH) == 0


def test_reward_never_increases_along_path():
    """Each degradation step weakly decreases eq. 1 reward; the final
    reward is <= the top reward."""
    task = _video_task()
    result = formulate([task], _cpu_budget_test(40.0, task))
    ladder = task.ladder()
    assert local_reward(result.assignments["video"]) <= local_reward(ladder.top())


def test_infeasible_returns_feasible_false():
    task = _video_task()
    result = formulate([task], lambda a: False)
    assert not result.feasible
    # Fully degraded everywhere degradable.
    assert result.assignments["video"].at_bottom


def test_multi_task_degrades_cheapest_task_first():
    t1 = _video_task()
    t2 = Task(
        task_id="audio",
        request=catalog.surveillance_request(),
        demand_model=workload.audio_decode_demand(),
    )
    from repro.resources.kinds import ResourceKind

    def check(assignments) -> bool:
        total = sum(
            (t1 if tid == "video" else t2).demand_at(a.values()).get(ResourceKind.CPU)
            for tid, a in assignments.items()
        )
        return total <= 95.0

    result = formulate([t1, t2], check)
    assert result.feasible
    # Audio attributes have single-value ladders and cannot degrade, so
    # video's frame rate absorbs all degradations.
    assert result.assignments["audio"].at_top


def test_duplicate_task_ids_rejected():
    t = _video_task()
    with pytest.raises(InfeasibleTaskError):
        formulate([t, t], lambda a: True)


def test_termination_bound():
    """Degradation count never exceeds the total ladder volume."""
    task = _video_task()
    result = formulate([task], lambda a: False)
    ladder = task.ladder()
    volume = sum(ladder.depth(attr) - 1 for attr in ladder.ladders)
    assert result.degradations <= volume


def test_dependency_repair_at_start():
    """The conference spec's preferred level (wavelet @ 20fps) satisfies
    Deps, but a request preferring 30 fps would not; the formulation
    must repair it before degrading for schedulability."""
    from repro.qos.request import (
        AttributePreference,
        DimensionPreference,
        ServiceRequest,
        ValueInterval,
    )
    from repro.qos.catalog import (
        AUDIO_QUALITY, CODING, RESOLUTION, SAMPLING_RATE, VIDEO_QUALITY,
    )

    spec = catalog.video_conference_spec()
    req = ServiceRequest(
        spec,
        dimensions=(
            DimensionPreference(
                VIDEO_QUALITY,
                (
                    AttributePreference(FRAME_RATE, (ValueInterval(30, 10),)),
                    AttributePreference(RESOLUTION, ("720p", "480p")),
                ),
            ),
            DimensionPreference(
                AUDIO_QUALITY, (AttributePreference(SAMPLING_RATE, (16, 8)),)
            ),
            DimensionPreference(
                CODING, (AttributePreference(CODEC, ("wavelet", "dct")),)
            ),
        ),
    )
    task = Task(task_id="conf", request=req,
                demand_model=workload.conference_demand())
    result = formulate([task], lambda a: True)
    assert result.feasible
    values = result.values("conf")
    # Deps hold: wavelet implies fps <= 20.
    assert values[CODEC] != "wavelet" or values[FRAME_RATE] <= 20


def test_degradation_steps_never_violate_dependencies():
    task = Task(
        task_id="conf",
        request=catalog.video_conference_request(),
        demand_model=workload.conference_demand(),
    )
    from repro.resources.kinds import ResourceKind

    for budget in (400.0, 300.0, 200.0, 120.0):
        result = formulate(
            [task],
            lambda a: task.demand_at(a["conf"].values()).get(ResourceKind.CPU) <= budget,
        )
        assert task.request.spec.dependencies.satisfied(result.values("conf"))


def test_formulation_result_values_helper():
    task = _video_task()
    result = formulate([task], lambda a: True)
    values = result.values("video")
    assert values[FRAME_RATE] == 10 and values[COLOR_DEPTH] == 3


def test_single_step_can_break_dependencies():
    """A ``Deps`` entry that one degradation step can break: with the
    extra rule "dct needs at least 15 fps", moving wavelet→dct below
    15 fps, or dropping dct below 15 fps, is a step the heuristic must
    skip. Every state of a full walk, and every proposal a laptop makes
    at any headroom, must satisfy ``Deps``."""
    from repro.core.negotiation import formulate_node_proposals
    from repro.qos.catalog import (
        AUDIO_QUALITY, CODING, RESOLUTION, SAMPLING_RATE, VIDEO_QUALITY,
    )
    from repro.qos.dependencies import Dependency, DependencySet
    from repro.qos.request import (
        AttributePreference,
        DimensionPreference,
        ServiceRequest,
        ValueInterval,
    )
    from repro.qos.spec import QoSSpec
    from repro.resources.node import NODE_CLASS_PROFILES, Node, NodeClass
    from repro.resources.provider import QoSProvider

    base = catalog.video_conference_spec()
    spec = QoSSpec(
        name=base.name,
        dimensions=base.dimensions,
        attributes=[base.attribute(name) for name in base.attribute_names],
        dependencies=DependencySet((
            *base.dependencies,
            Dependency(
                name="dct-fps-floor",
                attributes=(CODEC, FRAME_RATE),
                predicate=lambda v: v[CODEC] != "dct" or v[FRAME_RATE] >= 15,
            ),
        )),
    )
    request = ServiceRequest(
        spec,
        dimensions=(
            DimensionPreference(
                VIDEO_QUALITY,
                (
                    AttributePreference(FRAME_RATE, (ValueInterval(20, 5),)),
                    AttributePreference(RESOLUTION, ("720p", "480p", "240p")),
                ),
            ),
            DimensionPreference(
                AUDIO_QUALITY, (AttributePreference(SAMPLING_RATE, (16, 8)),)
            ),
            DimensionPreference(
                CODING,
                (AttributePreference(CODEC, ("wavelet", "dct", "none")),),
            ),
        ),
    )
    tasks = [
        Task(task_id=f"conf-{i}", request=request,
             demand_model=workload.conference_demand())
        for i in range(2)
    ]

    visited = []

    def record(assignments: Mapping) -> bool:
        visited.append({tid: a.values() for tid, a in assignments.items()})
        return False

    result = formulate(tasks, record)
    assert not result.feasible
    assert len(visited) == result.degradations + 1
    # The walk reaches frame rates below 15 with a codec step left,
    # where taking that step would break the new rule.
    assert any(
        values[FRAME_RATE] < 15 and values[CODEC] != "none"
        for state in visited for values in state.values()
    )
    for state in visited:
        for values in state.values():
            assert spec.dependencies.satisfied(values), values

    profile = NODE_CLASS_PROFILES[NodeClass.LAPTOP]
    proposed = 0
    for i in range(20):
        scale = 0.05 + 0.05 * i
        provider = QoSProvider(
            Node(f"lap{i}", NodeClass.LAPTOP, capacity=profile.scaled(scale))
        )
        for proposal in formulate_node_proposals(provider, tasks):
            assert spec.dependencies.satisfied(proposal.values), (scale, proposal)
            proposed += 1
    assert proposed > 0
