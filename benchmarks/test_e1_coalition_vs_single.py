"""E1 — coalition vs single node across neighborhood sizes.

Paper claim (§1, §4.1): coalition formation is necessary when a single
node cannot execute a service. Expected shape: the phone-class requester
alone never serves the movie workload (success 0); coalitions succeed and
their utility grows with neighborhood size.
"""

from benchmarks.conftest import run_suite


def test_e1_coalition_vs_single(benchmark, sweep, tmp_path):
    table = run_suite(benchmark, "E1", sweep, tmp_path)
    singles = [s.mean for s in table.column("single success")]
    coalitions = [s.mean for s in table.column("coalition success")]
    assert max(singles) == 0.0, "a phone must not serve the movie alone"
    assert min(coalitions) > 0.5, "coalitions must mostly succeed"
    utilities = [s.mean for s in table.column("coalition utility")]
    assert utilities[-1] >= utilities[0] - 1e-6, "utility grows with nodes"
