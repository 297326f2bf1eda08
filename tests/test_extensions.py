"""Unit tests for the extension features: leases, multi-hop, reputation,
battery-aware selection."""

from __future__ import annotations

import pytest

from repro.core.negotiation import candidate_nodes, negotiate
from repro.core.operation import run_operation_phase
from repro.core.proposal import Proposal
from repro.core.reputation import ReputationTracker
from repro.core.selection import ScoredProposal, SelectionPolicy
from repro.network.channel import ChannelModel
from repro.network.messaging import NetworkService
from repro.network.radio import DiscRadio
from repro.network.topology import Topology
from repro.resources.capacity import Capacity
from repro.resources.manager import ResourceManager
from repro.resources.node import Node, NodeClass
from repro.resources.provider import QoSProvider
from repro.services import workload
from repro.sim.engine import Engine


# -- reservation leases ------------------------------------------------------


def test_lease_expiry_and_reclaim():
    mgr = ResourceManager(Capacity.of(cpu=100.0))
    r = mgr.reserve("h", Capacity.of(cpu=40.0), now=0.0, ttl=10.0)
    assert not r.expired(9.9)
    assert r.expired(10.0)
    assert mgr.release_expired(5.0) == 0
    assert mgr.release_expired(10.0) == 1
    assert mgr.reserved.is_zero
    assert not r.live


def test_lease_renewal():
    mgr = ResourceManager(Capacity.of(cpu=100.0))
    r = mgr.reserve("h", Capacity.of(cpu=40.0), now=0.0, ttl=10.0)
    r.renew(until=100.0)
    assert mgr.release_expired(50.0) == 0
    assert r.live
    mgr.release(r)
    with pytest.raises(ValueError):
        r.renew(200.0)


def test_untimed_reservations_never_expire():
    mgr = ResourceManager(Capacity.of(cpu=100.0))
    mgr.reserve("h", Capacity.of(cpu=40.0))
    assert mgr.release_expired(1e12) == 0
    assert mgr.next_expiry() is None


def test_next_expiry_is_earliest():
    mgr = ResourceManager(Capacity.of(cpu=100.0))
    mgr.reserve("a", Capacity.of(cpu=10.0), now=0.0, ttl=30.0)
    mgr.reserve("b", Capacity.of(cpu=10.0), now=0.0, ttl=10.0)
    assert mgr.next_expiry() == 10.0


# -- multi-hop topology ------------------------------------------------------


def _chain():
    nodes = [Node(f"n{i}", position=(70.0 * i, 0.0)) for i in range(5)]
    return Topology(nodes, DiscRadio(range_m=100.0)), nodes


def test_khop_neighbors():
    topo, _ = _chain()
    assert set(topo.khop_neighbors("n0", 1)) == {"n1"}
    assert set(topo.khop_neighbors("n0", 2)) == {"n1", "n2"}
    assert set(topo.khop_neighbors("n0", 4)) == {"n1", "n2", "n3", "n4"}
    assert topo.khop_neighbors("n0", 0) == ()


def test_shortest_route_and_cost():
    topo, _ = _chain()
    assert topo.shortest_route("n0", "n0") == ("n0",)
    assert topo.shortest_route("n0", "n2") == ("n0", "n1", "n2")
    cost_1hop = topo.multihop_cost("n0", "n1")
    cost_2hop = topo.multihop_cost("n0", "n2")
    assert cost_2hop == pytest.approx(2 * cost_1hop)
    assert topo.multihop_cost("n0", "n0") == 0.0


def test_route_none_when_partitioned():
    topo, nodes = _chain()
    nodes[2].fail()
    topo.rebuild()
    assert topo.shortest_route("n0", "n4") is None
    assert topo.multihop_cost("n0", "n4") == float("inf")


def test_candidate_nodes_multihop():
    topo, _ = _chain()
    service = workload.surveillance_service(requester="n0")
    object.__setattr__(service, "requester", "n0")
    assert set(candidate_nodes(service, topo, max_hops=1)) == {"n0", "n1"}
    assert set(candidate_nodes(service, topo, max_hops=3)) == {"n0", "n1", "n2", "n3"}


def test_negotiate_multihop_reaches_far_laptop():
    """The only capable node is two hops away: 1-hop fails, 2-hop wins."""
    nodes = [
        Node("requester", NodeClass.PHONE, position=(0, 0)),
        Node("relay", NodeClass.PHONE, position=(80, 0)),
        Node("far-laptop", NodeClass.LAPTOP, position=(160, 0)),
    ]
    topology = Topology(nodes, DiscRadio(range_m=100.0))
    providers = {n.node_id: QoSProvider(n) for n in nodes}
    service = workload.movie_playback_service(requester="requester")
    one_hop = negotiate(service, topology, providers, commit=False, max_hops=1)
    assert not one_hop.success
    two_hop = negotiate(service, topology, providers, commit=False, max_hops=2)
    assert two_hop.success
    assert "far-laptop" in two_hop.coalition.members


# -- routed messaging ------------------------------------------------------


def _routed_net():
    topo, nodes = _chain()
    eng = Engine(seed=3)
    channel = ChannelModel(topo, eng.rng.stream("c"), reliable=True, jitter=0.0)
    return NetworkService(eng, topo, channel), eng, topo, nodes


def test_send_routed_direct_falls_back_to_send():
    net, eng, topo, _ = _routed_net()
    got = []
    net.register("n1", lambda m, t: got.append(m))
    assert net.send_routed("n0", "n1", "X", None) is not None
    eng.run()
    assert len(got) == 1


def test_send_routed_multihop_delivery_and_latency():
    net, eng, topo, _ = _routed_net()
    got = []
    net.register("n3", lambda m, t: got.append((m, t)))
    net.send_routed("n0", "n3", "X", None, size_kb=10.0)
    direct = []
    net.register("n1", lambda m, t: direct.append((m, t)))
    net.send("n0", "n1", "X", None, size_kb=10.0)
    eng.run()
    assert len(got) == 1
    msg, t3 = got[0]
    assert msg.sender == "n0"  # original sender preserved end-to-end
    _, t1 = direct[0]
    assert t3 > t1  # three hops take longer than one


def test_send_routed_unroutable_lost():
    net, eng, topo, nodes = _routed_net()
    nodes[1].fail()
    topo.rebuild()
    assert net.send_routed("n0", "n4", "X", None) is None
    assert net.lost_count >= 1


def test_send_routed_counts_per_hop_transmissions():
    net, eng, topo, _ = _routed_net()
    net.register("n2", lambda m, t: None)
    before = net.sent_count
    net.send_routed("n0", "n2", "X", None)
    assert net.sent_count - before == 2  # two hops


# -- CFP relaying in the agent layer ---------------------------------------


def test_agent_relayed_cfp_reaches_two_hops():
    from repro.agents.system import AgentSystem
    from repro.network.mobility import StaticPlacement
    from repro.sim.rng import RngRegistry

    nodes = [
        Node("me", NodeClass.PHONE),
        Node("relay", NodeClass.PHONE),
        Node("far", NodeClass.LAPTOP),
    ]
    placement = StaticPlacement(
        300.0, 300.0, RngRegistry(1).stream("p"),
        positions={"me": (0, 0), "relay": (80, 0), "far": (160, 0)},
    )
    one_hop = AgentSystem(nodes, seed=1, mobility=placement,
                          reliable_channel=True, max_hops=1)
    service = workload.movie_playback_service(requester="me", name="m1")
    outcome = one_hop.negotiate(service)
    assert outcome is not None and not outcome.success

    nodes2 = [
        Node("me", NodeClass.PHONE),
        Node("relay", NodeClass.PHONE),
        Node("far", NodeClass.LAPTOP),
    ]
    two_hop = AgentSystem(nodes2, seed=1, mobility=placement,
                          reliable_channel=True, max_hops=2)
    service2 = workload.movie_playback_service(requester="me", name="m2")
    outcome2 = two_hop.negotiate(service2)
    assert outcome2 is not None and outcome2.success
    assert "far" in outcome2.coalition.members
    assert two_hop.provider_agents["relay"].cfps_relayed >= 1


def test_cfp_duplicates_deduped():
    """In a dense neighborhood a 2-hop flood produces duplicate copies;
    each provider must process a session once."""
    from repro.agents.system import AgentSystem
    from repro.network.mobility import StaticPlacement
    from repro.sim.rng import RngRegistry

    nodes = [Node("me", NodeClass.PDA)] + [
        Node(f"n{i}", NodeClass.LAPTOP) for i in range(4)
    ]
    placement = StaticPlacement(50.0, 50.0, RngRegistry(2).stream("p"))
    system = AgentSystem(nodes, seed=2, mobility=placement,
                         reliable_channel=True, max_hops=2)
    service = workload.surveillance_service(requester="me")
    outcome = system.negotiate(service)
    assert outcome is not None and outcome.success
    for agent in system.provider_agents.values():
        assert agent.cfps_seen <= 1


# -- reputation ----------------------------------------------------------------


def test_reputation_scores():
    t = ReputationTracker()
    assert t.score("x") == pytest.approx(0.5)  # unknown = neutral
    t.record_success("x")
    assert t.score("x") == pytest.approx(2 / 3)
    t.record_failure("x")
    assert t.score("x") == pytest.approx(0.5)
    t.record_failure("x")
    t.record_failure("x")
    assert t.score("x") < 0.5
    assert t.observations("x") == (1, 3)
    assert t.known_nodes() == ("x",)


def test_reputation_invalid_priors():
    with pytest.raises(ValueError):
        ReputationTracker(prior_successes=0)


def test_reputation_observe_operation_debits_rescued_crash(small_cluster, movie_service):
    topology, providers, nodes = small_cluster
    outcome = negotiate(movie_service, topology, providers, commit=True)
    video_tid = movie_service.tasks[0].task_id
    victim = outcome.coalition.awards[video_tid].node_id
    engine = Engine(seed=5)
    report = run_operation_phase(
        outcome.coalition, topology, providers, engine,
        failures=[(5.0, victim)],
    )
    assert report.dropped_awards  # the crash is recorded
    tracker = ReputationTracker()
    tracker.observe_operation(report, outcome.coalition)
    successes, failures = tracker.observations(victim)
    assert failures >= 1  # crash debited even though the task was rescued
    rescuer = report.outcomes[video_tid].node_id
    assert tracker.observations(rescuer)[0] >= 1


def test_selection_reputation_criterion():
    def scored(node, rep):
        return ScoredProposal(
            proposal=Proposal(task_id="t", node_id=node, values={}),
            distance=0.1, comm_cost=1.0, new_member=True, reputation=rep,
        )

    policy = SelectionPolicy(use_reputation=True)
    best = policy.select([scored("flaky", 0.2), scored("solid", 0.9)])
    assert best.proposal.node_id == "solid"
    # Without the flag, reputation is ignored entirely.
    off = SelectionPolicy()
    ranked_off = off.rank([scored("flaky", 0.2), scored("solid", 0.9)])
    ranked_off2 = off.rank([scored("flaky", 0.9), scored("solid", 0.2)])
    assert [s.proposal.node_id for s in ranked_off] == \
        [s.proposal.node_id for s in ranked_off2]


def test_selection_reputation_quantization_falls_through():
    def scored(node, rep, comm):
        return ScoredProposal(
            proposal=Proposal(task_id="t", node_id=node, values={}),
            distance=0.1, comm_cost=comm, new_member=True, reputation=rep,
        )

    policy = SelectionPolicy(use_reputation=True)
    # Reputations in the same 0.1 bucket: comm cost decides.
    best = policy.select([scored("a", 0.81, 5.0), scored("b", 0.79, 1.0)])
    assert best.proposal.node_id == "b"


# -- battery-aware selection ------------------------------------------------


def test_selection_battery_criterion():
    def scored(node, battery, comm):
        return ScoredProposal(
            proposal=Proposal(task_id="t", node_id=node, values={}),
            distance=0.1, comm_cost=comm, new_member=True,
            battery_fraction=battery,
        )

    aware = SelectionPolicy(use_battery=True)
    # Battery outranks comm cost when enabled.
    best = aware.select([scored("full-far", 1.0, 9.0), scored("empty-near", 0.1, 0.1)])
    assert best.proposal.node_id == "full-far"
    # Same battery bucket: comm cost decides.
    best2 = aware.select([scored("a", 0.95, 9.0), scored("b", 0.92, 0.1)])
    assert best2.proposal.node_id == "b"
    # Disabled (paper default): comm wins.
    paper = SelectionPolicy()
    best3 = paper.select([scored("full-far", 1.0, 9.0), scored("empty-near", 0.1, 0.1)])
    assert best3.proposal.node_id == "empty-near"


def test_negotiate_battery_aware_prefers_charged_node(movie_service):
    drained = Node("drained", NodeClass.LAPTOP, position=(10, 0))
    drained.consume_energy(drained.battery * 0.9)
    fresh = Node("fresh", NodeClass.LAPTOP, position=(11, 0))
    requester = Node("requester", NodeClass.PHONE, position=(0, 0))
    topology = Topology([requester, drained, fresh], DiscRadio(range_m=100.0))
    providers = {n.node_id: QoSProvider(n) for n in [requester, drained, fresh]}
    outcome = negotiate(
        movie_service, topology, providers, commit=False,
        selection=SelectionPolicy(use_battery=True),
    )
    assert outcome.success
    assert outcome.coalition.members == {"fresh"}
