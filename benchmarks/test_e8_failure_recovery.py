"""E8 — operation-phase failure recovery.

Paper claim (§4): the operation phase includes "the coalition
reconfiguration due to partial failures". Expected shape: with
reconfiguration enabled, task completion stays near 1.0 under member
crashes; with it disabled, completion collapses as failures increase.
"""

from benchmarks.conftest import run_suite


def test_e8_failure_recovery(benchmark, sweep, tmp_path):
    table = run_suite(benchmark, "E8", sweep, tmp_path)
    for row in table.rows:
        failures, with_reconfig, without = row[0], row[1].mean, row[2].mean
        assert with_reconfig >= without - 1e-9
        if failures == 0:
            assert with_reconfig == 1.0 and without == 1.0
    # At >= 1 failure the gap must be material.
    failed_rows = [r for r in table.rows if r[0] >= 1]
    assert any(r[1].mean - r[2].mean > 0.3 for r in failed_rows)
