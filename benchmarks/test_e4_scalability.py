"""E4 — protocol scalability with neighborhood size.

Paper claim (§1, §4.2): the decentralized protocol works without a
central authority and the negotiation stays cheap: one CFP broadcast, one
proposal per willing node, one award per task. Expected shape: messages
grow linearly in the node count; negotiation (simulated) time is bounded
by the proposal window plus award round-trips, roughly constant.
"""

from benchmarks.conftest import run_suite


def test_e4_scalability(benchmark, sweep, tmp_path):
    table = run_suite(benchmark, "E4", sweep, tmp_path)
    nodes = table.column("nodes")
    messages = [s.mean for s in table.column("messages")]
    times = [s.mean for s in table.column("sim time (s)")]
    # Linear-ish growth: messages scale with n, far below quadratic.
    growth = messages[-1] / messages[0]
    node_growth = nodes[-1] / nodes[0]
    assert growth <= node_growth * 2.0, "message growth must stay ~linear"
    # Time bounded by the protocol constants, not the node count.
    assert max(times) < 2.0
    successes = [s.mean for s in table.column("success")]
    assert min(successes) > 0.5
