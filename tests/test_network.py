"""Unit tests for geometry, radio, mobility, topology, channel, messaging."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import NotConnectedError, UnknownNodeError
from repro.network.channel import ChannelModel
from repro.network.geometry import clamp_to_area, distance, heading, lerp
from repro.network.messaging import NetworkService
from repro.network.mobility import GroupMobility, RandomWaypoint, StaticPlacement
from repro.network.radio import DiscRadio
from repro.network.topology import Topology
from repro.resources.node import Node
from repro.sim.engine import Engine


# -- geometry ----------------------------------------------------------------


def test_distance_and_lerp():
    assert distance((0, 0), (3, 4)) == 5.0
    assert lerp((0, 0), (10, 0), 0.25) == (2.5, 0.0)


def test_clamp_to_area():
    assert clamp_to_area((-5, 300), 100, 200) == (0.0, 200.0)


def test_heading_unit_vector():
    hx, hy = heading((0, 0), (0, 7))
    assert (hx, hy) == (0.0, 1.0)
    assert heading((1, 1), (1, 1)) == (0.0, 0.0)


# -- radio ------------------------------------------------------------------


def test_disc_radio_range():
    r = DiscRadio(range_m=100.0)
    assert r.in_range((0, 0), (0, 100))
    assert not r.in_range((0, 0), (0, 100.001))


def test_disc_radio_bandwidth_profile():
    r = DiscRadio(range_m=100.0, nominal_bandwidth=1000.0, min_rate_fraction=0.2)
    assert r.bandwidth((0, 0), (0, 10)) == 1000.0   # inside half range: full
    assert r.bandwidth((0, 0), (0, 50)) == 1000.0
    edge = r.bandwidth((0, 0), (0, 100))
    assert edge == pytest.approx(200.0)             # floor at the edge
    mid = r.bandwidth((0, 0), (0, 75))
    assert 200.0 < mid < 1000.0
    assert r.bandwidth((0, 0), (0, 150)) == 0.0


def test_disc_radio_loss_profile():
    r = DiscRadio(range_m=100.0, base_loss=0.0, edge_loss=0.1)
    assert r.loss_probability((0, 0), (0, 0)) == 0.0
    assert r.loss_probability((0, 0), (0, 100)) == pytest.approx(0.1)
    assert r.loss_probability((0, 0), (0, 200)) == 1.0


def test_disc_radio_validation():
    with pytest.raises(ValueError):
        DiscRadio(range_m=0)
    with pytest.raises(ValueError):
        DiscRadio(min_rate_fraction=2.0)
    with pytest.raises(ValueError):
        DiscRadio(edge_loss=1.5)


# -- mobility ----------------------------------------------------------------


def _nodes(n):
    return [Node(f"n{i}") for i in range(n)]


def test_static_placement_in_bounds_and_explicit():
    rng = np.random.default_rng(1)
    nodes = _nodes(5)
    m = StaticPlacement(50, 60, rng, positions={"n0": (1.0, 2.0)})
    m.place(nodes)
    assert nodes[0].position == (1.0, 2.0)
    for n in nodes:
        assert 0 <= n.position[0] <= 50 and 0 <= n.position[1] <= 60
    before = [n.position for n in nodes]
    m.advance(nodes, 100.0)
    assert [n.position for n in nodes] == before


def test_random_waypoint_moves_within_bounds():
    rng = np.random.default_rng(2)
    nodes = _nodes(4)
    m = RandomWaypoint(100, 100, speed_min=1.0, speed_max=5.0, pause=0.5, rng=rng)
    m.place(nodes)
    start = [n.position for n in nodes]
    m.advance(nodes, 10.0)
    moved = sum(1 for n, s in zip(nodes, start) if n.position != s)
    assert moved == len(nodes)
    for n in nodes:
        assert 0 <= n.position[0] <= 100 and 0 <= n.position[1] <= 100


def test_random_waypoint_zero_speed_is_static():
    rng = np.random.default_rng(3)
    nodes = _nodes(3)
    m = RandomWaypoint(100, 100, speed_min=0.0, speed_max=0.0, pause=0.0, rng=rng)
    m.place(nodes)
    start = [n.position for n in nodes]
    m.advance(nodes, 50.0)
    assert [n.position for n in nodes] == start


def test_random_waypoint_speed_bounds():
    """Displacement over dt cannot exceed speed_max * dt."""
    rng = np.random.default_rng(4)
    nodes = _nodes(6)
    m = RandomWaypoint(500, 500, speed_min=2.0, speed_max=4.0, pause=0.0, rng=rng)
    m.place(nodes)
    start = {n.node_id: n.position for n in nodes}
    dt = 5.0
    m.advance(nodes, dt)
    for n in nodes:
        assert distance(start[n.node_id], n.position) <= 4.0 * dt + 1e-6


def test_random_waypoint_invalid_speeds():
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError):
        RandomWaypoint(10, 10, speed_min=5.0, speed_max=1.0, pause=0, rng=rng)


def test_group_mobility_keeps_members_near_leader():
    rng = np.random.default_rng(6)
    leader = RandomWaypoint(200, 200, 1.0, 2.0, 0.0, np.random.default_rng(7))
    m = GroupMobility(leader, spread=10.0, rng=rng)
    nodes = _nodes(5)
    m.place(nodes)
    m.advance(nodes, 3.0)
    center = m._leader.position
    for n in nodes:
        assert distance(center, n.position) <= 10.0 + 1e-9


# -- topology ----------------------------------------------------------------


def _line_topology():
    nodes = [
        Node("a", position=(0, 0)),
        Node("b", position=(50, 0)),
        Node("c", position=(120, 0)),
    ]
    return Topology(nodes, DiscRadio(range_m=80.0)), nodes


def test_topology_edges_match_distances():
    topo, nodes = _line_topology()
    assert topo.connected("a", "b")
    assert topo.connected("b", "c")  # 70 m
    assert not topo.connected("a", "c")  # 120 m
    assert set(topo.neighbors("b")) == {"a", "c"}


def test_topology_symmetry():
    topo, _ = _line_topology()
    for x, y in [("a", "b"), ("b", "c")]:
        assert topo.connected(x, y) == topo.connected(y, x)
        assert topo.link_bandwidth(x, y) == topo.link_bandwidth(y, x)


def test_topology_rebuild_after_move():
    topo, nodes = _line_topology()
    nodes[2].move_to(60, 0)
    topo.rebuild()
    assert topo.connected("a", "c")


def test_topology_excludes_dead_nodes():
    topo, nodes = _line_topology()
    nodes[1].fail()
    topo.rebuild()
    assert topo.neighbors("a") == ()
    assert topo.component_count() == 2  # a alone, c alone (b dead, excluded)


def test_topology_unknown_node():
    topo, _ = _line_topology()
    with pytest.raises(UnknownNodeError):
        topo.neighbors("ghost")
    with pytest.raises(UnknownNodeError):
        topo.node("ghost")


def test_topology_link_queries_require_link():
    topo, _ = _line_topology()
    with pytest.raises(NotConnectedError):
        topo.link_bandwidth("a", "c")


def test_communication_cost_properties():
    topo, _ = _line_topology()
    assert topo.communication_cost("a", "a") == 0.0
    near = topo.communication_cost("a", "b")   # 50 m
    far = topo.communication_cost("b", "c")    # 70 m: lower bandwidth
    assert 0 < near < far


def test_topology_membership_management():
    topo, _ = _line_topology()
    assert len(topo) == 3 and "a" in topo
    topo.add_node(Node("d", position=(10, 0)))
    topo.rebuild()
    assert topo.connected("a", "d")
    topo.remove_node("d")
    assert "d" not in topo
    with pytest.raises(ValueError):
        topo.add_node(Node("a"))


def test_reachable_set_multihop():
    topo, _ = _line_topology()
    assert topo.reachable_set("a") == {"a", "b", "c"}  # a-b-c chain


def test_average_degree():
    topo, _ = _line_topology()
    assert topo.average_degree() == pytest.approx(4 / 3)


# -- channel ----------------------------------------------------------------


def test_channel_local_delivery_free():
    topo, _ = _line_topology()
    ch = ChannelModel(topo, np.random.default_rng(1))
    assert ch.transmit("a", "a", 100.0) == 0.0


def test_channel_unconnected_always_lost():
    topo, _ = _line_topology()
    ch = ChannelModel(topo, np.random.default_rng(1), reliable=True)
    assert ch.transmit("a", "c", 1.0) is None


def test_channel_latency_includes_transmission_time():
    topo, _ = _line_topology()
    ch = ChannelModel(topo, np.random.default_rng(1),
                      propagation_delay=0.01, jitter=0.0, reliable=True)
    bw = topo.link_bandwidth("a", "b")
    latency = ch.transmit("a", "b", 100.0)
    assert latency == pytest.approx(0.01 + 100.0 / bw)


def test_channel_reliable_never_loses_connected():
    topo, _ = _line_topology()
    ch = ChannelModel(topo, np.random.default_rng(1), reliable=True)
    assert all(ch.transmit("a", "b", 1.0) is not None for _ in range(50))


def test_channel_lossy_loses_sometimes():
    nodes = [Node("a", position=(0, 0)), Node("b", position=(99, 0))]
    topo = Topology(nodes, DiscRadio(range_m=100.0, edge_loss=0.5))
    ch = ChannelModel(topo, np.random.default_rng(1))
    results = [ch.transmit("a", "b", 1.0) for _ in range(200)]
    losses = sum(1 for r in results if r is None)
    assert 40 < losses < 160  # ~49.5% expected


def test_channel_validation():
    topo, _ = _line_topology()
    with pytest.raises(ValueError):
        ChannelModel(topo, np.random.default_rng(1), propagation_delay=-1.0)


# -- messaging ----------------------------------------------------------------


def _network():
    topo, nodes = _line_topology()
    eng = Engine(seed=9)
    ch = ChannelModel(topo, eng.rng.stream("chan"), reliable=True, jitter=0.0)
    return NetworkService(eng, topo, ch), eng, topo, nodes


def test_unicast_delivery():
    net, eng, topo, _ = _network()
    inbox = []
    net.register("b", lambda msg, now: inbox.append((msg.kind, msg.payload, now)))
    net.send("a", "b", "PING", {"x": 1}, size_kb=1.0)
    eng.run()
    assert len(inbox) == 1
    kind, payload, now = inbox[0]
    assert kind == "PING" and payload == {"x": 1} and now > 0
    assert net.delivered_count == 1


def test_broadcast_reaches_neighbors_only():
    net, eng, topo, _ = _network()
    got = {"a": [], "b": [], "c": []}
    for nid in got:
        net.register(nid, lambda msg, now, n=nid: got[n].append(msg))
    net.broadcast("b", "CFP", None)
    eng.run()
    assert len(got["a"]) == 1 and len(got["c"]) == 1
    assert got["b"] == []  # no self-delivery
    assert all(m.broadcast for m in got["a"] + got["c"])


def test_message_to_dead_node_lost():
    net, eng, topo, nodes = _network()
    inbox = []
    net.register("b", lambda msg, now: inbox.append(msg))
    nodes[1].fail()
    net.send("a", "b", "PING", None)
    eng.run()
    assert inbox == [] and net.lost_count >= 1


def test_message_without_handler_counts_lost():
    net, eng, topo, _ = _network()
    net.send("a", "b", "PING", None)
    eng.run()
    assert net.delivered_count == 0 and net.lost_count == 1


def test_unregister_stops_delivery():
    net, eng, topo, _ = _network()
    inbox = []
    net.register("b", lambda msg, now: inbox.append(msg))
    net.unregister("b")
    net.send("a", "b", "PING", None)
    eng.run()
    assert inbox == []


def test_send_traces_emitted():
    net, eng, topo, _ = _network()
    records = []
    eng.trace = records.append
    net.register("b", lambda msg, now: None)
    net.send("a", "b", "PING", None)
    eng.run()
    assert [(r.category, r.event) for r in records] == [
        ("net", "sent"), ("net", "delivered"),
    ]


def test_register_unknown_node_rejected():
    net, eng, topo, _ = _network()
    with pytest.raises(UnknownNodeError):
        net.register("ghost", lambda m, t: None)
