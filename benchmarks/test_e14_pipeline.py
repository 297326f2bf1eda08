"""E14 — precedence pipelines (extension of §4.1's independent tasks).

The paper scopes services to "a set (for now) of independent tasks"; this
extension adds precedence edges honoured by the operation phase. Expected
shape: a failure-free pipeline's makespan equals its critical path; a
mid-stage crash is reconfigured, completing everything with a makespan
extended by the restarted stage.
"""

from benchmarks.conftest import run_suite


def test_e14_pipeline(benchmark, sweep, tmp_path):
    table = run_suite(benchmark, "E14", sweep, tmp_path)
    rows = {row[0]: row for row in table.rows}
    clean, failed = rows[0], rows[1]
    assert clean[1].mean == 1.0 and failed[1].mean == 1.0
    # Failure-free makespan equals the critical path exactly.
    assert abs(clean[2].mean - clean[3].mean) < 1e-9
    # One mid-stage crash costs extra time but stays bounded by one
    # full stage restart on top of the critical path.
    assert failed[2].mean > failed[3].mean
    assert failed[2].mean <= failed[3].mean + 8.0 + 1e-9
    assert failed[4].mean == 1.0
