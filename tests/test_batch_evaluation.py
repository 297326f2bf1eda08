"""Eqs. 2–5 scoring against recorded answers, plus the message-count pin.

``tests/data/evaluation_golden.json`` records what the original scalar
evaluator (one eq. 5 ``dif`` per attribute per call, no compiled
tables) answered: eq. 2 distances of randomized proposals against the
request of every service-family task and two catalog requests, for
each :class:`WeightScheme`; each request's eq. 3 weights and
``max_distance``; whole synchronous negotiations; and the quick E4
(agent path) and E15 (contention path) tables. The compiled evaluator must reproduce every
recorded float **exactly** (``==``, not approx) — the fixture is the
oracle the scalar implementation used to be.

The message-count pin: the synchronous driver's ``message_count`` must
equal what the agent-based organizer actually sends.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.agents.system import AgentSystem
from repro.core.evaluation import ProposalEvaluator, WeightScheme
from repro.core.negotiation import negotiate
from repro.core.proposal import Proposal
from repro.errors import DomainError, UnknownNodeError
from repro.experiments.config import ClusterConfig, SweepConfig
from repro.experiments.plan import run_plan
from repro.experiments.reporting import Table
from repro.experiments.scenario import build_cluster
from repro.experiments.suites import SUITE_PLANS
from repro.network.radio import DiscRadio
from repro.network.topology import Topology
from repro.qos import catalog
from repro.qos.levels import DegradationLadder
from repro.resources.node import Node, NodeClass
from repro.resources.provider import QoSProvider
from repro.services import workload
from repro.sim.rng import RngRegistry
from repro.sim.sequences import reset_all_sequences
from repro.workloads.services import SERVICE_FAMILIES, build_service

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "evaluation_golden.json").read_text()
)


def _family_requests():
    """One (label, request) pair per service family task, plus catalog
    requests — every request shape the suites evaluate proposals for."""
    pairs = []
    for family in SERVICE_FAMILIES:
        service = build_service(family, requester="r")
        for task in service.tasks:
            pairs.append((f"{family}:{task.task_id}", task.request))
    pairs.append(("catalog:surveillance", catalog.surveillance_request()))
    pairs.append(("catalog:hq-streaming", catalog.high_quality_streaming_request()))
    return pairs


def _key(label: str) -> str:
    """The fixture key: the label minus the process-global task counter
    (``movie:movie-video-1`` -> ``movie:movie-video``)."""
    return re.sub(r"-\d+$", "", label)


def _random_proposals(request, rng, count=40):
    ladder = DegradationLadder.from_request(request)
    proposals = []
    for i in range(count):
        values = {
            attr: ladder.ladder(attr)[int(rng.integers(ladder.depth(attr)))]
            for attr in request.attribute_names
        }
        proposals.append(Proposal(task_id="t", node_id=f"n{i}", values=values))
    return proposals


@pytest.mark.parametrize(
    "label,request_",
    [pytest.param(label, request, id=label) for label, request in _family_requests()],
)
def test_batch_equals_scalar_exactly(label, request_):
    """Every distance equal with ``==`` — same floats, not close floats —
    down both the batch and the single-proposal entry points."""
    key = _key(label)
    rng = RngRegistry(20260727).stream(f"batch:{key}:domain")
    proposals = _random_proposals(request_, rng)
    for weights in WeightScheme:
        expected = GOLDEN["requests"][key][weights.value]["distances"]["domain"]
        evaluator = ProposalEvaluator(request_, weights=weights)
        assert evaluator.distances(proposals).tolist() == expected
        # A fresh evaluator: the single-proposal path fills its own
        # dif caches instead of reading the batch's.
        single = ProposalEvaluator(request_, weights=weights)
        assert [single.distance(p) for p in proposals] == expected


def test_compiled_arrays_mirror_scalar_weights():
    """eq. 3 weights and ``max_distance`` equal the recorded ones for
    every request and weight scheme."""
    for label, request in _family_requests():
        for weights in WeightScheme:
            rec = GOLDEN["requests"][_key(label)][weights.value]
            evaluator = ProposalEvaluator(request, weights=weights)
            assert [
                evaluator.dimension_weight(dp.dimension) for dp in request.dimensions
            ] == rec["dimension_weights"]
            assert [
                [evaluator.attribute_weight(dp.dimension, ap.attribute)
                 for ap in dp.attributes]
                for dp in request.dimensions
            ] == rec["attribute_weights"]
            assert evaluator.max_distance() == rec["max_distance"]


def test_batch_empty_and_error_parity():
    """The batch and single-proposal entry points fail alike."""
    request = catalog.surveillance_request()
    evaluator = ProposalEvaluator(request)
    assert list(evaluator.distances([])) == []
    # Missing attribute -> KeyError.
    missing = Proposal(task_id="t", node_id="n", values={})
    with pytest.raises(KeyError):
        evaluator.distances([missing])
    with pytest.raises(KeyError):
        evaluator.distance(missing)
    # Out-of-domain value -> DomainError.
    good = _random_proposals(request, RngRegistry(1).stream("e"), count=1)[0]
    bad_values = dict(good.values)
    bad_values[request.attribute_names[0]] = object()
    bad = Proposal(task_id="t", node_id="n", values=bad_values)
    with pytest.raises(DomainError):
        evaluator.distances([bad])
    with pytest.raises(DomainError):
        evaluator.distance(bad)


# -- whole negotiations and suite tables against the recorded runs ----------


def _run_sync(seed: int) -> dict:
    # Rewind the process-wide id sequences (as the experiment runner
    # does): the selection tie-break hashes (task id, node id), so the
    # comparison needs the recorded run's task ids.
    reset_all_sequences()
    topology, providers, _nodes, _registry = build_cluster(
        ClusterConfig(n_nodes=12), seed
    )
    service = workload.movie_playback_service(requester="requester")
    outcome = negotiate(service, topology, providers, commit=False)
    def stable(task_id: str) -> str:
        # Strip the process-global task counter ("movie-video-11" vs
        # "movie-video-17"): only the task identity matters here.
        return task_id.rsplit("-", 1)[0]

    return {
        "members": sorted(outcome.coalition.members),
        "awards": {
            stable(tid): [a.node_id, a.distance, a.comm_cost]
            for tid, a in outcome.coalition.awards.items()
        },
        "unallocated": [stable(tid) for tid in outcome.unallocated],
        "messages": outcome.message_count,
    }


def test_negotiate_identical_with_and_without_batching():
    for seed in (1, 2, 3):
        assert _run_sync(seed) == GOLDEN["negotiations"][str(seed)], seed


@pytest.mark.parametrize("suite", ["E4", "E15"])
def test_suite_tables_bit_identical_with_and_without_batching(suite):
    """Whole suite tables, agent path (E4) and contention path (E15),
    equal the recorded ones cell for cell."""
    sweep = SweepConfig(seeds=(1, 2), quick=True, jobs=1)
    table = run_plan(SUITE_PLANS[suite](sweep), sweep)
    assert table == Table.from_dict(GOLDEN["tables"][suite])


# -- message-count pin: synchronous driver vs agent-based protocol ----------


def _fixed_positions(nodes):
    spots = [(50.0, 50.0), (60.0, 50.0), (40.0, 50.0), (50.0, 65.0)]
    for node, (x, y) in zip(nodes, spots):
        node.move_to(x, y)


def test_sync_and_agent_message_counts_match():
    """Multi-task service, reliable channel, static in-range cluster:
    both paths must count the same radio messages — CFP copies, one
    bundled PROPOSE per responding remote node, one message per remote
    award."""

    def fleet():
        return [
            Node("requester", NodeClass.PHONE),
            Node("pda", NodeClass.PDA),
            Node("lap1", NodeClass.LAPTOP),
            Node("lap2", NodeClass.LAPTOP),
        ]

    # Agent path. (Sequences rewound per path so both services carry
    # identical task ids — the selection tie-break hashes them.)
    reset_all_sequences()
    agent_nodes = fleet()
    system = AgentSystem(agent_nodes, seed=5, reliable_channel=True)
    _fixed_positions(agent_nodes)
    system.topology.rebuild()
    agent_outcome = system.negotiate(
        workload.movie_playback_service(requester="requester", name="m1")
    )
    assert agent_outcome is not None and agent_outcome.success

    # Synchronous path on an identical, fresh cluster.
    reset_all_sequences()
    sync_nodes = fleet()
    _fixed_positions(sync_nodes)
    topology = Topology(sync_nodes, DiscRadio())
    providers = {n.node_id: QoSProvider(n) for n in sync_nodes}
    sync_outcome = negotiate(
        workload.movie_playback_service(requester="requester", name="m1"),
        topology, providers, commit=True,
    )
    assert sync_outcome.success

    assert agent_outcome.proposals_received == sync_outcome.proposals_received
    assert agent_outcome.message_count == sync_outcome.message_count
    assert sorted(agent_outcome.coalition.members) == sorted(
        sync_outcome.coalition.members
    )


# -- narrowed error masking -------------------------------------------------


def test_comm_cost_propagates_unknown_node_bug():
    """A proposal from a node id the topology never heard of is a bug
    and must raise, not score as 'unreachable'."""
    nodes = [
        Node("requester", NodeClass.PHONE, position=(0.0, 0.0)),
        Node("helper", NodeClass.LAPTOP, position=(10.0, 0.0)),
    ]
    topology = Topology(nodes, DiscRadio(range_m=100.0))
    providers = {n.node_id: QoSProvider(n) for n in nodes}
    # Register a provider under a typo'd id that is absent from the
    # topology: its proposals reach step 3, where comm_cost must raise.
    ghost = Node("heIper", NodeClass.LAPTOP, position=(10.0, 0.0))
    providers["heIper"] = QoSProvider(ghost)
    service = workload.movie_playback_service(requester="requester")
    with pytest.raises(UnknownNodeError):
        negotiate(
            service, topology, providers, commit=False,
            candidates=["requester", "helper", "heIper"],
        )
