"""Unit tests for the synchronous Section 4.2 negotiation driver."""

from __future__ import annotations

import pytest

from repro.core.coalition import CoalitionPhase
from repro.core.negotiation import (
    candidate_nodes,
    formulate_node_proposals,
    negotiate,
    release_coalition,
)
from repro.metrics.utility import outcome_utility
from repro.network.radio import DiscRadio
from repro.network.topology import Topology
from repro.resources.capacity import Capacity
from repro.resources.node import Node, NodeClass
from repro.resources.provider import QoSProvider
from repro.services import workload


def test_candidate_nodes_is_requester_plus_neighbors(small_cluster, movie_service):
    topology, providers, nodes = small_cluster
    audience = candidate_nodes(movie_service, topology)
    assert audience[0] == "requester"
    assert set(audience) == {"requester", "pda", "lap1", "lap2"}


def test_candidate_nodes_excludes_out_of_range(movie_service):
    nodes = [
        Node("requester", NodeClass.PHONE, position=(0, 0)),
        Node("near", NodeClass.LAPTOP, position=(10, 0)),
        Node("far", NodeClass.LAPTOP, position=(500, 0)),
    ]
    topology = Topology(nodes, DiscRadio(range_m=100.0))
    assert set(candidate_nodes(movie_service, topology)) == {"requester", "near"}


def test_formulate_node_proposals_per_task(small_cluster, movie_service):
    topology, providers, nodes = small_cluster
    proposals = formulate_node_proposals(providers["lap1"], movie_service.tasks)
    assert len(proposals) == 2  # laptop can serve both tasks
    assert {p.task_id for p in proposals} == {t.task_id for t in movie_service.tasks}
    for p in proposals:
        assert p.node_id == "lap1"
        assert not p.demand.is_zero


def test_unwilling_node_stays_silent(small_cluster, movie_service):
    topology, providers, nodes = small_cluster
    topology.node("lap1").willing = False
    assert formulate_node_proposals(providers["lap1"], movie_service.tasks) == []


def test_phone_cannot_propose_video(small_cluster, movie_service):
    """The movie video task needs >= 114 CPU even fully degraded; a phone
    (50 CPU) must stay silent for it."""
    topology, providers, nodes = small_cluster
    proposals = formulate_node_proposals(providers["requester"], movie_service.tasks)
    task_ids = {p.task_id for p in proposals}
    video = movie_service.tasks[0].task_id
    audio = movie_service.tasks[1].task_id
    assert video not in task_ids
    assert audio in task_ids


def test_negotiate_allocates_all_tasks(small_cluster, movie_service):
    topology, providers, nodes = small_cluster
    outcome = negotiate(movie_service, topology, providers, commit=False)
    assert outcome.success
    assert outcome.coalition.complete
    assert outcome.coalition.phase is CoalitionPhase.FORMING
    assert outcome.unallocated == []
    # Full quality available from the laptops.
    assert outcome_utility(outcome) == pytest.approx(1.0)


def test_negotiate_commit_reserves_resources(small_cluster, movie_service):
    topology, providers, nodes = small_cluster
    outcome = negotiate(movie_service, topology, providers, commit=True)
    assert outcome.success
    reserved = {
        nid: p.node.manager.reserved for nid, p in providers.items()
        if not p.node.manager.reserved.is_zero
    }
    assert set(reserved) == set(outcome.coalition.members)
    released = release_coalition(outcome.coalition, providers)
    assert released == len(outcome.coalition.awards)
    assert all(p.node.manager.reserved.is_zero for p in providers.values())


def test_negotiate_dry_run_leaves_no_state(small_cluster, movie_service):
    topology, providers, nodes = small_cluster
    batteries = {nid: p.node.battery for nid, p in providers.items()}
    negotiate(movie_service, topology, providers, commit=False)
    assert all(p.node.manager.reserved.is_zero for p in providers.values())
    assert {nid: p.node.battery for nid, p in providers.items()} == batteries


def test_negotiate_isolated_requester_fails_video(movie_service):
    nodes = [Node("requester", NodeClass.PHONE, position=(0, 0))]
    topology = Topology(nodes, DiscRadio(range_m=100.0))
    providers = {"requester": QoSProvider(nodes[0])}
    outcome = negotiate(movie_service, topology, providers, commit=False)
    assert not outcome.success
    video = movie_service.tasks[0].task_id
    assert video in outcome.unallocated


def test_award_falls_through_when_headroom_taken():
    """One laptop exactly fitting one video task: the second task must go
    elsewhere even though the laptop proposed for both."""
    # The movie video task needs >= 114 CPU even fully degraded, so a
    # 150-CPU helper cannot jointly formulate two copies (228 > 150) and
    # falls back to per-task offers; whichever node wins the first task
    # cannot admit the second at award time, forcing the fall-through.
    tight_cap = Capacity.of(
        cpu=150.0, memory=256.0, bus_bandwidth=100.0,
        net_bandwidth=4000.0, energy=50_000.0,
    )
    nodes = [
        Node("requester", NodeClass.PHONE, position=(0, 0)),
        Node("tight", capacity=tight_cap, position=(10, 0)),
        Node("backup", capacity=tight_cap, position=(20, 0)),
    ]
    topology = Topology(nodes, DiscRadio(range_m=100.0))
    providers = {n.node_id: QoSProvider(n) for n in nodes}
    service = workload.movie_playback_service(requester="requester", name="m")
    # Two video-heavy tasks: duplicate the video task.
    from repro.services.service import Service

    t0 = service.tasks[0]
    from repro.services.task import Task

    t1 = Task(task_id="video-2", request=t0.request,
              demand_model=t0.demand_model, input_kb=t0.input_kb,
              output_kb=t0.output_kb, duration=t0.duration)
    double = Service(name="double", tasks=(t0, t1), requester="requester")
    outcome = negotiate(double, topology, providers, commit=True)
    assert outcome.success
    assert outcome.coalition.size == 2  # tight cannot hold both videos
    release_coalition(outcome.coalition, providers)


def test_message_count_accounting(small_cluster, movie_service):
    """Radio messages only, counted like the agent-based protocol: CFP
    copies to remote candidates, one bundled PROPOSE per responding
    remote node, one award message per remote award. The requester's
    own copy/proposals/awards are local and cost nothing."""
    topology, providers, nodes = small_cluster
    outcome = negotiate(movie_service, topology, providers, commit=False)
    remote_candidates = [c for c in outcome.candidates if c != "requester"]
    remote_responders = [
        c for c in remote_candidates
        if formulate_node_proposals(providers[c], movie_service.tasks)
    ]
    remote_awards = sum(
        1 for a in outcome.coalition.awards.values() if a.node_id != "requester"
    )
    assert outcome.message_count == (
        len(remote_candidates) + len(remote_responders) + remote_awards
    )


def test_message_count_skips_provider_less_candidates(small_cluster, movie_service):
    """Audience ids with no provider entry are skipped in step 2, so no
    broadcast copy may be counted for them either."""
    topology, providers, nodes = small_cluster
    baseline = negotiate(movie_service, topology, providers, commit=False)
    with_ghosts = negotiate(
        movie_service, topology, providers, commit=False,
        candidates=list(baseline.candidates) + ["ghost-1", "ghost-2"],
    )
    assert with_ghosts.message_count == baseline.message_count
    assert with_ghosts.proposals_received == baseline.proposals_received


def test_dead_requester_has_no_audience(small_cluster, movie_service):
    """A dead requester cannot broadcast a CFP: empty audience, every
    task unallocated, zero messages — even while the topology still
    holds its (stale) neighbor list."""
    topology, providers, nodes = small_cluster
    topology.node("requester").fail()
    assert candidate_nodes(movie_service, topology) == ()
    assert candidate_nodes(movie_service, topology, max_hops=3) == ()
    outcome = negotiate(movie_service, topology, providers, commit=False)
    assert not outcome.success
    assert outcome.candidates == ()
    assert sorted(outcome.unallocated) == sorted(
        t.task_id for t in movie_service.tasks
    )
    assert outcome.message_count == 0
    assert outcome.proposals_received == 0
    assert outcome.coalition.size == 0


def test_explicit_candidates_override(small_cluster, movie_service):
    topology, providers, nodes = small_cluster
    outcome = negotiate(
        movie_service, topology, providers, commit=False,
        candidates=["lap1"],
    )
    assert outcome.candidates == ("lap1",)
    assert outcome.coalition.members <= {"lap1"}


def test_summary_format(small_cluster, movie_service):
    topology, providers, nodes = small_cluster
    outcome = negotiate(movie_service, topology, providers, commit=False)
    text = outcome.summary()
    assert movie_service.name in text and "OK" in text


def test_unreached_levels_are_never_priced():
    """Demand is priced only for the levels a node's degrade walk
    reaches: a conference task whose codec table lacks ``"dct"`` is
    served by a roomy laptop at its preferred levels, while a cramped
    laptop, whose walk reaches ``"dct"``, raises ``MappingError``."""
    from repro.errors import MappingError
    from repro.qos import catalog
    from repro.qos.catalog import CODEC
    from repro.resources.mapping import CompositeDemandModel, TabularDemandModel
    from repro.resources.node import NODE_CLASS_PROFILES
    from repro.services.task import Task

    linear, codec = workload.conference_demand().models
    partial = TabularDemandModel(
        base=Capacity.zero(),
        tables={CODEC: {
            value: demand for value, demand in codec.tables[CODEC].items()
            if value != "dct"
        }},
    )
    task = Task(
        task_id="conf",
        request=catalog.video_conference_request(),
        demand_model=CompositeDemandModel(linear, partial),
    )
    profile = NODE_CLASS_PROFILES[NodeClass.LAPTOP]

    def laptop(scale: float) -> QoSProvider:
        return QoSProvider(
            Node(f"lap-{scale}", NodeClass.LAPTOP, capacity=profile.scaled(scale))
        )

    (proposal,) = formulate_node_proposals(laptop(2.0), [task])
    assert proposal.values[CODEC] == "wavelet"
    with pytest.raises(MappingError):
        formulate_node_proposals(laptop(0.05), [task])
