"""Micro-benchmarks of the hot paths (proper pytest-benchmark usage).

These quantify the per-operation costs the E-suites are built on:
eq. 2 proposal evaluation, the Section 5 formulation heuristic, the full
synchronous negotiation, DES event throughput, and topology rebuilds.
"""

from __future__ import annotations

from repro.core.evaluation import ProposalEvaluator
from repro.core.formulation import formulate
from repro.core.negotiation import negotiate
from repro.core.proposal import Proposal
from repro.experiments.config import ClusterConfig
from repro.experiments.scenario import build_cluster
from repro.network.radio import DiscRadio
from repro.network.topology import Topology
from repro.qos import catalog
from repro.qos.catalog import COLOR_DEPTH, FRAME_RATE, SAMPLE_BITS, SAMPLING_RATE
from repro.resources.kinds import ResourceKind
from repro.resources.node import Node
from repro.services import workload
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry


def test_bench_evaluation_distance(benchmark):
    request = catalog.surveillance_request()
    evaluator = ProposalEvaluator(request)
    proposal = Proposal(
        task_id="t", node_id="n",
        values={FRAME_RATE: 7, COLOR_DEPTH: 1, SAMPLING_RATE: 8, SAMPLE_BITS: 8},
    )
    result = benchmark(evaluator.distance, proposal)
    assert result > 0.0


def test_bench_formulation_heuristic(benchmark):
    service = workload.movie_playback_service(requester="r")
    task = service.tasks[0]

    def check(assignments):
        return task.demand_at(
            assignments[task.task_id].values()
        ).get(ResourceKind.CPU) <= 150.0

    result = benchmark(lambda: formulate([task], check))
    assert result.feasible


def test_bench_full_negotiation_8_nodes(benchmark):
    topology, providers, nodes, _ = build_cluster(ClusterConfig(n_nodes=8), seed=1)
    service = workload.movie_playback_service(requester="requester")

    outcome = benchmark(
        lambda: negotiate(service, topology, providers, commit=False)
    )
    assert outcome.success


def test_bench_engine_event_throughput(benchmark):
    def run_10k_events():
        eng = Engine()
        remaining = [10_000]

        def tick(now):
            remaining[0] -= 1
            if remaining[0] > 0:
                eng.schedule(0.001, tick)

        eng.schedule(0.001, tick)
        eng.run()
        return eng.events_fired

    fired = benchmark(run_10k_events)
    assert fired == 10_000


def test_bench_topology_rebuild_64_nodes(benchmark):
    rng = RngRegistry(1).stream("p")
    nodes = [
        Node(f"n{i}", position=(float(rng.uniform(0, 300)), float(rng.uniform(0, 300))))
        for i in range(64)
    ]
    topology = Topology(nodes, DiscRadio(range_m=100.0))
    benchmark(topology.rebuild)
    assert len(topology) == 64
