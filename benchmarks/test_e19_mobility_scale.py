"""E19 — mobility at scale (vectorized network layer).

Perf-trajectory suite: E5's mobility scenario at 32–128 nodes under two
mobility models with relayed two-hop CFPs. Every simulated second the
fleet moves and the topology is rebuilt — the workload the numpy
position arena + epoch-cached routing exist for. The table's metrics are
deterministic; wall time lives in ``BENCH_E19.json``.
"""

from benchmarks.conftest import run_suite


def test_e19_mobility_scale(benchmark, sweep, tmp_path):
    table = run_suite(benchmark, "E19", sweep, tmp_path)
    labels = table.column("model × nodes")
    success = [s.mean for s in table.column("success rate")]
    partners = [s.mean for s in table.column("distinct partners")]
    # Coalitions must keep forming at every scale under churn ...
    assert all(s > 0.0 for s in success), labels
    # ... and mobility must expose more than a lone partner somewhere.
    assert max(partners) > 1.0
