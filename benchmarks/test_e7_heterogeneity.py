"""E7 — capacity heterogeneity.

Paper claim (§7): "various groups of nodes may have different degrees of
efficiency in service execution performance due to different capabilities
of their members". Expected shape: with the mean CPU fixed, increasing
the capacity spread increases the coalition's utility advantage over solo
execution (stronger outliers exist for the coalition to recruit).
"""

from benchmarks.conftest import run_suite


def test_e7_heterogeneity(benchmark, sweep, tmp_path):
    table = run_suite(benchmark, "E7", sweep, tmp_path)
    spreads = table.column("cpu spread")
    gains = [s.mean for s in table.column("gain")]
    # Coalition never hurts, and heterogeneity widens the gain.
    assert all(g >= -1e-9 for g in gains)
    assert gains[-1] > gains[0], "higher spread must widen the coalition gain"
    successes = [s.mean for s in table.column("coalition success")]
    assert min(successes) > 0.5
