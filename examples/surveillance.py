#!/usr/bin/env python
"""The paper's Section 3.1 remote-surveillance request, end to end.

Demonstrates the QoS representation layer: the qualitative preference
order (video over audio, frame rate over color depth), how the Section 5
heuristic degrades quality when the serving node is loaded, and how the
eqs. 2–5 evaluator ranks competing proposals.

Run:
    python examples/surveillance.py
"""

from repro import (
    Capacity,
    Node,
    ProposalEvaluator,
    Proposal,
    formulate,
    local_reward,
    QoSProvider,
    workload,
)
from repro.metrics.utility import assignment_utility
from repro.qos import catalog


def show_request() -> None:
    request = catalog.surveillance_request()
    print("user request (decreasing importance):")
    for k, dp in enumerate(request.dimensions, start=1):
        print(f"  {k}. {dp.dimension}")
        for i, ap in enumerate(dp.attributes, start=1):
            items = ", ".join(str(item) for item in ap.items)
            print(f"     ({chr(96 + i)}) {ap.attribute}: {items}")
    print()


def degrade_under_load() -> None:
    """The Section 5 heuristic on devices of shrinking capacity."""
    service = workload.surveillance_service(requester="cam")
    video = service.tasks[0]
    print("formulation under load (video task):")
    print(f"  {'CPU budget':>10} | {'frame rate':>10} | {'color':>5} | "
          f"{'reward':>6} | {'utility':>7}")
    for budget in (120.0, 80.0, 60.0, 40.0, 25.0):
        node = Node("n", capacity=Capacity.of(
            cpu=budget, memory=64.0, bus_bandwidth=50.0,
            net_bandwidth=2000.0, energy=10_000.0,
        ))
        provider = QoSProvider(node)
        result = formulate(
            [video],
            lambda a: provider.can_serve(video.demand_at(a[video.task_id].values())),
        )
        values = result.values(video.task_id)
        a = result.assignments[video.task_id]
        print(f"  {budget:>10.0f} | {values[catalog.FRAME_RATE]:>10} | "
              f"{values[catalog.COLOR_DEPTH]:>5} | {local_reward(a):>6.2f} | "
              f"{assignment_utility(video.request, values):>7.3f}")
    print()


def evaluate_competing_proposals() -> None:
    """Three nodes offer different quality levels; eq. 2 picks a winner."""
    request = catalog.surveillance_request()
    evaluator = ProposalEvaluator(request)
    offers = {
        "strong-laptop": {catalog.FRAME_RATE: 10, catalog.COLOR_DEPTH: 3,
                          catalog.SAMPLING_RATE: 8, catalog.SAMPLE_BITS: 8},
        "busy-pda": {catalog.FRAME_RATE: 6, catalog.COLOR_DEPTH: 3,
                     catalog.SAMPLING_RATE: 8, catalog.SAMPLE_BITS: 8},
        "weak-phone": {catalog.FRAME_RATE: 3, catalog.COLOR_DEPTH: 1,
                       catalog.SAMPLING_RATE: 8, catalog.SAMPLE_BITS: 8},
    }
    print("proposal evaluation (eqs. 2-5, lower distance wins):")
    scored = []
    for node, values in offers.items():
        proposal = Proposal(task_id="video", node_id=node, values=values)
        scored.append((evaluator.distance(proposal), node))
    for distance, node in sorted(scored):
        marker = "  <- winner" if (distance, node) == min(scored) else ""
        print(f"  {node:>14}: distance = {distance:.4f}{marker}")


def main() -> None:
    show_request()
    degrade_under_load()
    evaluate_competing_proposals()


if __name__ == "__main__":
    main()
