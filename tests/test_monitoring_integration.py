"""Integration tests: state sampled over live negotiations, group mobility."""

from __future__ import annotations

from repro.agents.system import AgentSystem
from repro.core.negotiation import release_coalition
from repro.network.mobility import GroupMobility, RandomWaypoint
from repro.network.geometry import distance
from repro.resources.node import Node, NodeClass
from repro.services import workload
from repro.sim.events import Priority
from repro.sim.rng import RngRegistry


def sample_every(engine, probe, period):
    """Read ``probe()`` now and every ``period`` simulated seconds after,
    at MONITOR priority (after same-instant events settle); returns the
    list the readings append to."""
    readings = []

    def tick(now):
        readings.append(probe())
        engine.schedule(period, tick, priority=Priority.MONITOR)

    engine.schedule(0.0, tick, priority=Priority.MONITOR)
    return readings


def test_monitor_tracks_reservation_utilization():
    """Sampling a helper's utilization sees it idle before the CFP, the
    award land, and the reservation still held two seconds later."""
    from repro.network.mobility import StaticPlacement

    nodes = [Node("me", NodeClass.PHONE), Node("lap", NodeClass.LAPTOP)]
    placement = StaticPlacement(
        100.0, 100.0, RngRegistry(3).stream("p"),
        positions={"me": (0, 0), "lap": (10, 0)},
    )
    system = AgentSystem(nodes, seed=3, mobility=placement, reliable_channel=True)
    lap_manager = system.nodes["lap"].manager
    utilization = sample_every(system.engine, lap_manager.utilization, 0.5)
    service = workload.movie_playback_service(requester="me")
    outcome = system.negotiate(service)
    assert outcome is not None and outcome.success
    system.engine.run(until=system.engine.now + 2.0)
    assert utilization[0] == 0.0            # idle before the CFP
    assert max(utilization) > 0.0           # the award reserved resources
    assert utilization[-1] > 0.0            # still held (lease not expired)


def test_group_mobility_agent_system_end_to_end():
    """A group of devices moving together stays mutually connected and
    keeps serving requests while the group wanders."""
    registry = RngRegistry(8)
    leader = RandomWaypoint(400, 400, 1.0, 3.0, pause=1.0,
                            rng=registry.stream("leader"))
    mobility = GroupMobility(leader, spread=30.0, rng=registry.stream("jitter"))
    nodes = [Node("me", NodeClass.PHONE)] + [
        Node(f"buddy{i}", NodeClass.LAPTOP) for i in range(3)
    ]
    system = AgentSystem(nodes, seed=8, mobility=mobility, reliable_channel=True)
    system.start_mobility_process(tick=1.0, until=200.0)
    successes = 0
    for i in range(4):
        service = workload.movie_playback_service(requester="me", name=f"g{i}")
        outcome = system.negotiate(service)
        if outcome is not None and outcome.success:
            successes += 1
            release_coalition(outcome.coalition, system.providers,
                              system.engine.now)
        system.engine.run(until=system.engine.now + 40.0)
    # The group moves as a unit within 2×spread of each other: every
    # request should find the laptops in range.
    assert successes == 4
    positions = [n.position for n in nodes]
    for p in positions[1:]:
        assert distance(positions[0], p) <= 120.0  # still clustered


def test_energy_drain_visible_in_monitor():
    """Battery fraction of a busy helper decreases monotonically."""
    from repro.network.mobility import StaticPlacement

    nodes = [Node("me", NodeClass.PHONE), Node("lap", NodeClass.LAPTOP)]
    placement = StaticPlacement(
        100.0, 100.0, RngRegistry(4).stream("p"),
        positions={"me": (0, 0), "lap": (10, 0)},
    )
    system = AgentSystem(nodes, seed=4, mobility=placement, reliable_channel=True)
    lap = system.nodes["lap"]
    values = sample_every(system.engine, lambda: lap.battery_fraction, 0.5)
    for i in range(3):
        service = workload.movie_playback_service(requester="me", name=f"e{i}")
        outcome = system.negotiate(service)
        assert outcome is not None
        release_coalition(outcome.coalition, system.providers, system.engine.now)
    assert values[-1] < values[0]
    assert all(values[i + 1] <= values[i] + 1e-12 for i in range(len(values) - 1))
