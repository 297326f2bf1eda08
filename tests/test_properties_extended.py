"""Extended property-based tests: negotiation invariants, lease safety,
and selection-policy coherence."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.admissibility import is_admissible
from repro.core.negotiation import negotiate
from repro.core.proposal import Proposal
from repro.core.selection import (
    DISTANCE_RESOLUTION,
    ScoredProposal,
    SelectionPolicy,
)
from repro.experiments.config import ClusterConfig
from repro.experiments.scenario import build_cluster
from repro.resources.capacity import Capacity
from repro.resources.manager import ResourceManager
from repro.services import workload


# -- negotiation invariants over random clusters ------------------------------


@given(seed=st.integers(0, 10_000), n_nodes=st.integers(2, 10))
@settings(max_examples=15, deadline=None)
def test_negotiation_dry_run_purity(seed, n_nodes):
    """A dry-run negotiation never mutates provider state."""
    topology, providers, nodes, _ = build_cluster(
        ClusterConfig(n_nodes=n_nodes), seed=seed
    )
    batteries = {nid: p.node.battery for nid, p in providers.items()}
    service = workload.movie_playback_service(requester="requester",
                                              name=f"m{seed}")
    negotiate(service, topology, providers, commit=False)
    assert all(p.node.manager.reserved.is_zero for p in providers.values())
    assert {nid: p.node.battery for nid, p in providers.items()} == batteries


@given(seed=st.integers(0, 10_000), n_nodes=st.integers(2, 10))
@settings(max_examples=15, deadline=None)
def test_awarded_proposals_always_admissible_and_within_capacity(seed, n_nodes):
    """Every award satisfies admissibility and fits its node's capacity."""
    topology, providers, nodes, _ = build_cluster(
        ClusterConfig(n_nodes=n_nodes), seed=seed
    )
    service = workload.movie_playback_service(requester="requester",
                                              name=f"m{seed}")
    outcome = negotiate(service, topology, providers, commit=True)
    for task in service.tasks:
        award = outcome.coalition.awards.get(task.task_id)
        if award is None:
            continue
        assert is_admissible(task.request, award.proposal)
        node = providers[award.node_id].node
        assert node.capacity.covers(node.manager.reserved)
    # Winners are always drawn from the audience.
    assert outcome.coalition.members <= set(outcome.candidates)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_negotiation_deterministic_given_state(seed):
    """Same cluster state + same service object => identical awards.

    (The service is built once: task ids carry a process-global counter
    that participates in the final determinism tie-break, so two
    *different* service objects with identical content may legitimately
    break exact distance ties differently.)
    """
    service = workload.movie_playback_service(requester="requester",
                                              name="fixed")

    def winners():
        topology, providers, nodes, _ = build_cluster(
            ClusterConfig(n_nodes=6), seed=seed
        )
        outcome = negotiate(service, topology, providers, commit=False)
        return tuple(
            outcome.coalition.awards[t.task_id].node_id
            if t.task_id in outcome.coalition.awards else None
            for t in service.tasks
        )

    assert winners() == winners()


# -- lease safety -------------------------------------------------------------


@given(
    ttls=st.lists(st.one_of(st.none(), st.floats(0.1, 50.0)), min_size=1, max_size=20),
    sweep_time=st.floats(0.0, 100.0),
)
def test_lease_sweep_only_reclaims_lapsed(ttls, sweep_time):
    mgr = ResourceManager(Capacity.of(cpu=1e6))
    reservations = [
        mgr.reserve(f"h{i}", Capacity.of(cpu=1.0), now=0.0, ttl=ttl)
        for i, ttl in enumerate(ttls)
    ]
    mgr.release_expired(sweep_time)
    for r, ttl in zip(reservations, ttls):
        should_live = ttl is None or sweep_time < ttl
        assert r.live == should_live
    assert mgr.reserved + mgr.available == mgr.capacity


# -- selection coherence --------------------------------------------------------


scored_proposals = st.builds(
    lambda node, dist, comm, new, rep, bat: ScoredProposal(
        proposal=Proposal(task_id="t", node_id=f"n{node}", values={}),
        distance=dist, comm_cost=comm, new_member=new,
        reputation=rep, battery_fraction=bat,
    ),
    st.integers(0, 50),
    st.floats(0.0, 2.0),
    st.floats(0.0, 10.0),
    st.booleans(),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
)


@given(st.lists(scored_proposals, min_size=1, max_size=12))
def test_select_equals_rank_head(pool):
    for policy in (
        SelectionPolicy(),
        SelectionPolicy(use_reputation=True),
        SelectionPolicy(use_battery=True),
        SelectionPolicy(use_comm_cost=False, use_coalition_size=False),
    ):
        assert policy.select(pool) is policy.rank(pool)[0]


@given(st.lists(scored_proposals, min_size=2, max_size=12))
def test_rank_is_total_and_stable(pool):
    policy = SelectionPolicy(use_reputation=True, use_battery=True)
    ranked = policy.rank(pool)
    assert len(ranked) == len(pool)
    assert set(id(s) for s in ranked) == set(id(s) for s in pool)
    # Ranking twice (and from reversed input) gives the same order.
    assert [s.proposal.node_id for s in policy.rank(list(reversed(pool)))] == \
        [s.proposal.node_id for s in ranked]


@given(st.lists(scored_proposals, min_size=1, max_size=12))
def test_strictly_lower_distance_always_wins(pool):
    """No tie-break may override a strictly lower (non-tied) distance:
    the winner sits in the lowest distance quantum."""
    policy = SelectionPolicy(use_reputation=True, use_battery=True)
    winner = policy.select(pool)

    def bucket(distance: float) -> int:
        return round(distance / DISTANCE_RESOLUTION)

    assert bucket(winner.distance) == min(bucket(s.distance) for s in pool)
