"""End-to-end integration tests across all subsystems."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.agents.system import AgentSystem
from repro.core import baselines
from repro.core.negotiation import negotiate, release_coalition
from repro.core.operation import run_operation_phase
from repro.experiments.config import ClusterConfig
from repro.experiments.scenario import build_agent_system, build_cluster
from repro.metrics.utility import outcome_utility
from repro.network.mobility import RandomWaypoint
from repro.resources.node import Node, NodeClass
from repro.services import workload
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry


def test_full_lifecycle_formation_operation_dissolution():
    """Form a coalition, operate it with a failure, dissolve cleanly."""
    topology, providers, nodes, _ = build_cluster(ClusterConfig(n_nodes=10), seed=11)
    service = workload.movie_playback_service(requester="requester")
    outcome = negotiate(service, topology, providers, commit=True)
    assert outcome.success

    engine = Engine(seed=11)
    victim = sorted(outcome.coalition.members - {"requester"})
    failures = [(3.0, victim[0])] if victim else []
    report = run_operation_phase(
        outcome.coalition, topology, providers, engine, failures=failures
    )
    assert report.completed + report.lost == len(service.tasks)
    # Every rate reservation is gone after dissolution.
    for provider in providers.values():
        assert provider.node.manager.reserved.is_zero


def test_multiple_concurrent_services_compete_for_capacity():
    """Two heavy services drain the neighborhood; both negotiations see
    consistent accounting (no over-commitment anywhere)."""
    topology, providers, nodes, _ = build_cluster(
        ClusterConfig(n_nodes=6, area=80.0), seed=21
    )
    s1 = workload.movie_playback_service(requester="requester", name="m1")
    s2 = workload.movie_playback_service(requester="requester", name="m2")
    o1 = negotiate(s1, topology, providers, commit=True)
    o2 = negotiate(s2, topology, providers, commit=True)
    for provider in providers.values():
        manager = provider.node.manager
        assert manager.capacity.covers(manager.reserved)
    release_coalition(o1.coalition, providers)
    release_coalition(o2.coalition, providers)


def test_quality_degrades_as_neighborhood_saturates():
    """Repeated admissions push later services to lower quality."""
    topology, providers, nodes, _ = build_cluster(
        ClusterConfig(n_nodes=5, area=60.0), seed=33
    )
    utilities = []
    for i in range(4):
        service = workload.movie_playback_service(
            requester="requester", name=f"m{i}"
        )
        outcome = negotiate(service, topology, providers, commit=True)
        utilities.append(outcome_utility(outcome))
    assert utilities[0] >= utilities[-1]


def test_agent_system_with_mobility_end_to_end():
    registry = RngRegistry(5)
    mobility = RandomWaypoint(150, 150, 0.5, 3.0, 1.0, registry.stream("mob"))
    system = build_agent_system(
        ClusterConfig(n_nodes=10, area=150.0), seed=5, mobility=mobility
    )
    system.start_mobility_process(tick=1.0, until=120.0)
    successes = 0
    for i in range(3):
        service = workload.surveillance_service(requester="requester", name=f"s{i}")
        outcome = system.negotiate(service)
        if outcome and outcome.success:
            successes += 1
            release_coalition(outcome.coalition, system.providers, system.engine.now)
        system.engine.run(until=system.engine.now + 20.0)
    # Mobility may cost some requests; at least the system never wedges.
    assert system.engine.now >= 40.0


def test_same_seed_reproduces_identical_outcome():
    def run():
        system = build_agent_system(
            ClusterConfig(n_nodes=8), seed=99, reliable_channel=False
        )
        service = workload.movie_playback_service(requester="requester", name="m")
        outcome = system.negotiate(service)
        assert outcome is not None
        # Task ids carry a process-global counter, so compare by task
        # *position* in the service, not by id.
        winner_by_position = tuple(
            outcome.coalition.awards[t.task_id].node_id
            if t.task_id in outcome.coalition.awards else None
            for t in service.tasks
        )
        return (
            winner_by_position,
            outcome.message_count,
            round(system.engine.now, 9),
        )

    assert run() == run()


def test_baseline_ladder_ordering():
    """optimal >= protocol >= random on utility; single <= coalition."""
    topology, providers, nodes, registry = build_cluster(
        ClusterConfig(n_nodes=8), seed=17
    )
    service = workload.movie_playback_service(requester="requester")
    protocol = outcome_utility(negotiate(service, topology, providers, commit=False))
    single = outcome_utility(baselines.single_node(service, topology, providers))
    optimal_outcome = baselines.exhaustive_optimal(service, topology, providers)
    rand = outcome_utility(baselines.random_admissible(
        service, topology, providers, registry.stream("rand")
    ))
    assert single <= protocol + 1e-9
    if optimal_outcome is not None:
        assert protocol <= outcome_utility(optimal_outcome) + 1e-9
    assert rand <= protocol + 1e-9 or rand == pytest.approx(protocol)


def test_trace_records_full_protocol():
    system = AgentSystem(
        [Node("me", NodeClass.PDA, position=(0, 0)),
         Node("n1", NodeClass.LAPTOP, position=(10, 0))],
        seed=4, reliable_channel=True,
    )
    # Pin positions (mobility placement would scatter them).
    system.nodes["me"].move_to(0, 0)
    system.nodes["n1"].move_to(10, 0)
    system.topology.rebuild()
    records = []
    system.engine.trace = records.append
    service = workload.surveillance_service(requester="me")
    outcome = system.negotiate(service)
    assert outcome is not None and outcome.success
    events = Counter((r.category, r.event) for r in records)
    assert events["negotiation", "cfp"] == 1
    assert events["negotiation", "complete"] == 1
    assert events["net", "sent"] > 0


def test_battery_depletion_disables_node():
    """A node that spends its battery on awards stops proposing."""
    from repro.resources.capacity import Capacity

    # Movie playback costs ~410 J at full quality (video 338 + audio 72),
    # so a 900 J pack funds two services; the third finds the battery
    # unable to cover even a degraded video decode.
    weak = Node("helper", capacity=Capacity.of(
        cpu=2000.0, memory=1024.0, bus_bandwidth=500.0,
        net_bandwidth=8000.0, energy=900.0,
    ), position=(10, 0))
    me = Node("me", NodeClass.PHONE, position=(0, 0))
    from repro.network.radio import DiscRadio
    from repro.network.topology import Topology
    from repro.resources.provider import QoSProvider

    topology = Topology([me, weak], DiscRadio())
    providers = {"me": QoSProvider(me), "helper": QoSProvider(weak)}
    count = 0
    for i in range(6):
        service = workload.movie_playback_service(requester="me", name=f"m{i}")
        outcome = negotiate(service, topology, providers, commit=True)
        if outcome.success:
            count += 1
        else:
            break
    # Movie video+audio costs ~2961 J; one service drains the 3000 J pack.
    assert count <= 2
    assert weak.battery < 3000.0
