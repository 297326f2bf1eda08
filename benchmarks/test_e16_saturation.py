"""E16 — arrival-rate saturation (churn-free streaming sessions).

The ``saturation-trio`` scenario with the per-requester Poisson rate
swept, each session running through the ``SessionDriver``: concurrency
climbs until admission control refuses sessions. The archived table
pins every cell; the assertion pins the shape.
"""

from benchmarks.conftest import run_suite


def test_e16_saturation(benchmark, sweep, tmp_path):
    table = run_suite(benchmark, "E16", sweep, tmp_path)
    success = [s.mean for s in table.column("success rate")]

    # A busier cluster never admits a larger share of its sessions.
    assert success == sorted(success, reverse=True), success
    assert success[-1] < 1.0, success
