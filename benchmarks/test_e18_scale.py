"""E18 — scale sweep: the negotiation hot path at large audiences.

E4's agent-based scenario at 16–128 nodes — the regime where the
pre-batching simulator spent its wall time in per-proposal evaluation
and per-node reformulation (docs/performance.md). The table's metrics
are deterministic and checked exactly against both the archived
``E18.txt`` and the committed ``BENCH_E18.json``; the wall time lands
in the bench report via the CLI, and CI also diffs a fresh full sweep
against that snapshot (``bench_diff --wall-rtol 4.0``: exact results,
coarse wall gate). Expected shape: same protocol behaviour as E4, just
bigger — messages stay ~linear in the audience, simulated time stays
bounded by the protocol constants, success stays high.
"""

from benchmarks.conftest import run_suite


def test_e18_scale_sweep(benchmark, sweep, tmp_path):
    table = run_suite(benchmark, "E18", sweep, tmp_path)
    nodes = table.column("nodes")
    messages = [s.mean for s in table.column("messages")]
    times = [s.mean for s in table.column("sim time (s)")]
    successes = [s.mean for s in table.column("success")]
    growth = messages[-1] / messages[0]
    node_growth = nodes[-1] / nodes[0]
    assert growth <= node_growth * 2.0, "message growth must stay ~linear"
    assert max(times) < 2.0, "sim time bounded by protocol constants"
    assert min(successes) > 0.5
