"""Protocol edge cases: late/duplicate proposals, timeouts, concurrency."""

from __future__ import annotations

from repro.agents.messages import CFP, PROPOSE, ProposePayload
from repro.agents.system import AgentSystem
from repro.core.proposal import Proposal
from repro.network.mobility import StaticPlacement
from repro.resources.capacity import Capacity
from repro.resources.node import Node, NodeClass
from repro.services import workload
from repro.sim.rng import RngRegistry


def _line_system(n_helpers=2, seed=5, max_hops=1, **organizer_timings):
    nodes = [Node("me", NodeClass.PDA)] + [
        Node(f"h{i}", NodeClass.LAPTOP) for i in range(n_helpers)
    ]
    # h0 sits inside half radio range (full bandwidth); later helpers sit
    # progressively farther, so comm cost strictly prefers h0.
    positions = {"me": (0.0, 0.0)}
    positions.update({f"h{i}": (20.0 + 40.0 * i, 0.0) for i in range(n_helpers)})
    placement = StaticPlacement(
        300.0, 300.0, RngRegistry(seed).stream("p"), positions=positions
    )
    system = AgentSystem(nodes, seed=seed, mobility=placement,
                         reliable_channel=True, max_hops=max_hops)
    organizer = system.organizer("me")
    for name, value in organizer_timings.items():
        setattr(organizer, name, value)
    return system


def test_late_proposal_is_dropped():
    """A proposal arriving after the deadline is ignored."""
    system = _line_system(proposal_window=0.2)
    # Make h1 think far too long.
    system.provider_agents["h1"].propose_delay = 1.0
    service = workload.movie_playback_service(requester="me")
    outcome = system.negotiate(service)
    assert outcome is not None and outcome.success
    assert "h1" not in outcome.coalition.members
    assert "h1" not in outcome.candidates  # never responded in time


def test_duplicate_propose_from_same_sender_dropped():
    system = _line_system()
    organizer = system.organizer("me")
    service = workload.movie_playback_service(requester="me")
    session = organizer.request_service(service)
    # Craft a duplicate PROPOSE injection from h0 after its real one.
    system.engine.run(until=system.engine.now + 0.1)
    first_count = session.proposals_received
    fake = Proposal(task_id=service.tasks[0].task_id, node_id="h0",
                    values=dict(service.tasks[0].ladder().top().values()))
    from repro.network.messaging import Message

    msg = Message(sender="h0", recipient="me", kind=PROPOSE,
                  payload=ProposePayload(session.session_id, (fake,)))
    organizer._handle_propose(msg, system.engine.now)
    assert session.proposals_received == first_count  # dup ignored
    system.engine.run(until=system.engine.now + 2.0)


def test_unknown_session_messages_ignored():
    system = _line_system()
    organizer = system.organizer("me")
    from repro.network.messaging import Message

    msg = Message(sender="h0", recipient="me", kind=PROPOSE,
                  payload=ProposePayload("sess-ghost", ()))
    organizer._handle_propose(msg, 0.0)  # must not raise


def test_no_proposals_yields_failed_outcome():
    """Unwilling neighborhood: the deadline closes an empty session."""
    system = _line_system()
    for nid in ("h0", "h1"):
        system.nodes[nid].willing = False
    # Weak requester also can't serve video itself.
    system.nodes["me"].capacity = Capacity.of(cpu=10.0, energy=100.0)
    system.nodes["me"].manager.capacity = system.nodes["me"].capacity
    service = workload.movie_playback_service(requester="me")
    outcome = system.negotiate(service)
    assert outcome is not None
    assert not outcome.success
    assert len(outcome.unallocated) == len(service.tasks)


def test_two_concurrent_organizers_share_providers():
    """Two different requesters negotiate simultaneously; sessions stay
    isolated and admission arbitrates the shared helper."""
    nodes = [
        Node("a", NodeClass.PHONE),
        Node("b", NodeClass.PHONE),
        Node("helper", NodeClass.LAPTOP),
    ]
    placement = StaticPlacement(
        300.0, 300.0, RngRegistry(9).stream("p"),
        positions={"a": (0, 0), "b": (20, 0), "helper": (10, 0)},
    )
    system = AgentSystem(nodes, seed=9, mobility=placement, reliable_channel=True)
    org_a = system.organizer("a")
    org_b = system.organizer("b")
    results = {}
    org_a.request_service(
        workload.movie_playback_service(requester="a", name="svc-a"),
        on_complete=lambda o: results.__setitem__("a", o),
    )
    org_b.request_service(
        workload.movie_playback_service(requester="b", name="svc-b"),
        on_complete=lambda o: results.__setitem__("b", o),
    )
    # Run just past both negotiations but before lease expiry.
    system.engine.run(until=5.0)
    assert set(results) == {"a", "b"}
    # The laptop has capacity for both movies (2 × ~343 CPU < 1000), so
    # both sessions should have succeeded against the same helper.
    assert results["a"].success and results["b"].success
    reserved = system.nodes["helper"].manager.reserved
    assert not reserved.is_zero


def test_organizer_is_also_provider_for_others():
    """A node acting as organizer still answers other organizers' CFPs."""
    nodes = [
        Node("a", NodeClass.LAPTOP),
        Node("b", NodeClass.PHONE),
    ]
    placement = StaticPlacement(
        300.0, 300.0, RngRegistry(4).stream("p"),
        positions={"a": (0, 0), "b": (10, 0)},
    )
    system = AgentSystem(nodes, seed=4, mobility=placement, reliable_channel=True)
    # 'a' becomes an organizer first (its inbox is replaced + chained).
    system.organizer("a")
    service = workload.movie_playback_service(requester="b")
    outcome = system.negotiate(service)
    assert outcome is not None and outcome.success
    assert "a" in outcome.coalition.members  # laptop 'a' answered b's CFP


def test_award_timeout_falls_through_to_next():
    """A winner that never answers awards is skipped after the timeout."""
    system = _line_system(n_helpers=2, award_timeout=0.1)
    service = workload.movie_playback_service(requester="me")
    organizer = system.organizer("me")

    # Sabotage h0: it proposes but then drops all AWARD handling.
    h0_agent = system.provider_agents["h0"]
    h0_agent.on("AWARD", lambda msg, now: None)

    records = []
    system.engine.trace = records.append
    outcome_box = []
    organizer.request_service(service, on_complete=outcome_box.append)
    system.engine.run()
    assert outcome_box
    outcome = outcome_box[0]
    assert outcome.success
    assert "h0" not in outcome.coalition.members
    assert any(r.event == "award_timeout" for r in records)


def test_unhandled_message_kinds_counted():
    system = _line_system()
    agent = system.provider_agents["h0"]
    system.network.send("me", "h0", "GIBBERISH", None)
    system.engine.run()
    assert agent.unhandled_count == 1


def test_dead_agent_ignores_messages():
    system = _line_system()
    system.nodes["h0"].fail()
    before = system.provider_agents["h0"].cfps_seen
    # Force-deliver directly (bypassing the dead-node drop in transit).
    system.provider_agents["h0"]._receive(
        __import__("repro.network.messaging", fromlist=["Message"]).Message(
            sender="me", recipient="h0", kind=CFP, payload=None
        ),
        0.0,
    )
    assert system.provider_agents["h0"].cfps_seen == before


def test_lease_reclaim_after_lost_confirm():
    """Sabotaged CONFIRM: the provider's reservation is leased and comes
    back automatically after expiry."""
    system = _line_system(n_helpers=2, award_timeout=0.1)
    h0_agent = system.provider_agents["h0"]
    h0_agent.award_lease = 5.0
    # h0 reserves on AWARD but its CONFIRM never sends.
    original = h0_agent._handle_award

    def award_then_silence(msg, now):
        original(msg, now)
        # Undo the CONFIRM by monkey-ignoring further organizer inbox...
        # simpler: drop all CONFIRMs from h0 by breaking the route:
    h0_sends = []
    real_send_routed = system.network.send_routed

    def filtering_send_routed(sender, recipient, kind, payload, size_kb=1.0):
        if sender == "h0" and kind == "CONFIRM":
            h0_sends.append(kind)
            return None  # swallowed by the void
        return real_send_routed(sender, recipient, kind, payload, size_kb)

    system.network.send_routed = filtering_send_routed
    service = workload.movie_playback_service(requester="me")
    outcome = system.negotiate(service)
    assert outcome is not None
    # If h0 won anything, its CONFIRM was swallowed; run past the lease.
    system.engine.run(until=system.engine.now + 10.0)
    if h0_sends:
        assert system.nodes["h0"].manager.reserved.is_zero
        assert h0_agent.leases_reclaimed >= 1
