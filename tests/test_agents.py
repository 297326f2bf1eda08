"""Unit/integration tests for the agent-based protocol."""

from __future__ import annotations

import pytest

from repro.agents.system import AgentSystem
from repro.core.negotiation import negotiate, release_coalition
from repro.errors import UnknownNodeError
from repro.experiments import ClusterConfig, build_agent_system
from repro.metrics.utility import outcome_utility
from repro.network.mobility import StaticPlacement
from repro.network.topology import Topology
from repro.resources.capacity import Capacity
from repro.resources.node import Node, NodeClass
from repro.services import workload
from repro.sim.rng import RngRegistry


def _system(n_laptops=3, seed=42, **kwargs):
    nodes = [Node("me", NodeClass.PHONE)] + [
        Node(f"lap{i}", NodeClass.LAPTOP) for i in range(n_laptops)
    ]
    placement = StaticPlacement(
        60.0, 60.0, RngRegistry(seed).stream("placement")
    )
    return AgentSystem(nodes, seed=seed, mobility=placement, **kwargs)


def test_agent_negotiation_succeeds():
    system = _system(reliable_channel=True)
    service = workload.movie_playback_service(requester="me")
    outcome = system.negotiate(service)
    assert outcome is not None
    assert outcome.success
    assert outcome_utility(outcome) == pytest.approx(1.0)
    assert system.engine.now > 0  # simulated time actually passed


def test_agent_awards_reserve_on_winners():
    system = _system(reliable_channel=True)
    service = workload.movie_playback_service(requester="me")
    outcome = system.negotiate(service)
    for award in outcome.coalition.awards.values():
        manager = system.nodes[award.node_id].manager
        assert not manager.reserved.is_zero


def test_agent_negotiation_matches_sync_result():
    """Agent-based and synchronous negotiation agree on the winners when
    the channel is reliable (same inputs, same selection logic)."""
    system = _system(reliable_channel=True, seed=7)
    service = workload.movie_playback_service(requester="me", name="m1")
    agent_outcome = system.negotiate(service)
    assert agent_outcome is not None
    release_coalition(agent_outcome.coalition, system.providers, 0.0)

    sync_outcome = negotiate(
        service, system.topology, system.providers, commit=False
    )
    agent_awards = {
        tid: a.node_id for tid, a in agent_outcome.coalition.awards.items()
    }
    sync_awards = {
        tid: a.node_id for tid, a in sync_outcome.coalition.awards.items()
    }
    assert agent_awards == sync_awards


def test_agent_negotiation_with_lossy_channel_still_terminates():
    system = _system(seed=3)  # default lossy channel
    service = workload.movie_playback_service(requester="me")
    outcome = system.negotiate(service)
    assert outcome is not None  # may or may not fully succeed, must finish


def test_unwilling_nodes_do_not_propose():
    system = _system(reliable_channel=True)
    for nid in ("lap0", "lap1", "lap2"):
        system.nodes[nid].willing = False
    service = workload.movie_playback_service(requester="me")
    outcome = system.negotiate(service)
    assert outcome is not None
    assert not outcome.success  # phone alone cannot decode video
    assert outcome.coalition.members <= {"me"}


def test_dead_requester_yields_nothing():
    system = _system(reliable_channel=True)
    system.nodes["me"].fail()
    system.topology.rebuild()
    service = workload.movie_playback_service(requester="me")
    outcome = system.negotiate(service)
    # Organizer node is dead: broadcast goes nowhere, no proposals, the
    # deadline fires and yields an empty-coalition outcome.
    assert outcome is not None
    assert not outcome.success


def test_provider_agent_counters():
    system = _system(reliable_channel=True)
    service = workload.movie_playback_service(requester="me")
    system.negotiate(service)
    seen = sum(a.cfps_seen for a in system.provider_agents.values())
    assert seen >= 3  # every laptop heard the CFP
    confirmed = sum(a.awards_confirmed for a in system.provider_agents.values())
    assert confirmed == 2  # both tasks awarded remotely


def test_duplicate_node_ids_rejected():
    with pytest.raises(ValueError):
        AgentSystem([Node("x"), Node("x")])


def test_organizer_unknown_node_rejected():
    system = _system()
    with pytest.raises(UnknownNodeError):
        system.organizer("ghost")


def test_sequential_services_share_system():
    system = _system(reliable_channel=True)
    for i in range(3):
        service = workload.surveillance_service(requester="me", name=f"s{i}")
        outcome = system.negotiate(service)
        assert outcome is not None and outcome.success
        release_coalition(outcome.coalition, system.providers, system.engine.now)


def test_award_falls_through_on_refuse():
    """Two capacity-tight helpers: the AWARD to the first winner for task
    2 must be refused (headroom gone) and fall through to the other.

    150 CPU fits one degraded movie video (>= 114) but not two, and is
    below the joint-formulation floor (228), so each helper offers both
    tasks via the per-task fallback and can honour only one award."""
    tight_cap = Capacity.of(
        cpu=150.0, memory=256.0, bus_bandwidth=100.0,
        net_bandwidth=4000.0, energy=50_000.0,
    )
    nodes = [
        Node("me", NodeClass.PHONE, position=(0, 0)),
        Node("t1", capacity=tight_cap, position=(10, 0)),
        Node("t2", capacity=tight_cap, position=(20, 0)),
    ]
    placement = StaticPlacement(
        60.0, 60.0, RngRegistry(1).stream("p"),
        positions={"me": (0, 0), "t1": (10, 0), "t2": (20, 0)},
    )
    system = AgentSystem(nodes, seed=1, mobility=placement, reliable_channel=True)
    service = workload.movie_playback_service(requester="me", name="m")
    from repro.services.service import Service
    from repro.services.task import Task

    t0 = service.tasks[0]
    t1 = Task(task_id="video-2", request=t0.request, demand_model=t0.demand_model)
    double = Service(name="double", tasks=(t0, t1), requester="me")
    outcome = system.negotiate(double)
    assert outcome is not None and outcome.success
    assert outcome.coalition.size == 2
    refused = sum(a.awards_refused for a in system.provider_agents.values())
    assert refused == 1


def test_step_mobility_rebuilds_topology():
    system = _system()
    before = system.topology.average_degree()
    system.nodes["lap0"].move_to(5000, 5000)
    system.step_mobility(0.0)
    assert system.topology.neighbors("lap0") == ()
    assert system.topology.average_degree() < before


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_an_e18_negotiation_routes_without_searching(seed, monkeypatch):
    """E18's 128-node negotiation (the perf benchmark's
    e18-negotiate-128 replication) routes every message over a route of
    one or two hops that ``Topology._certified_route`` proves, so the
    bidirectional search never runs. Counted, not timed: the count is
    the same on any host."""
    calls = {"route": 0, "search": 0}
    route, search = Topology.shortest_route, Topology._bidirectional_dijkstra

    def counted_route(self, a, b):
        calls["route"] += 1
        return route(self, a, b)

    def counted_search(self, a, b):
        calls["search"] += 1
        return search(self, a, b)

    monkeypatch.setattr(Topology, "shortest_route", counted_route)
    monkeypatch.setattr(Topology, "_bidirectional_dijkstra", counted_search)
    system = build_agent_system(ClusterConfig(n_nodes=128, area=100.0), seed,
                                reliable_channel=True)
    outcome = system.negotiate(workload.movie_playback_service(requester="requester"))
    assert outcome is not None
    assert calls["route"] > 0
    assert calls["search"] == 0
