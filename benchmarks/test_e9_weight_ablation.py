"""E9 — eq. 3 weight-scheme ablation.

Paper claim (§6, eq. 3): positional weights encode the user's qualitative
importance order. Expected shape: on symmetric antagonistic proposal
pairs, positional schemes (linear, geometric) always protect the most
important dimension; uniform weights are indifferent (here arranged to
pick the wrong proposal on ties, i.e. 0%).
"""

from benchmarks.conftest import run_suite


def test_e9_weight_ablation(benchmark, sweep, tmp_path):
    table = run_suite(benchmark, "E9", sweep, tmp_path)
    by_scheme = {row[0]: row[1].mean for row in table.rows}
    assert by_scheme["linear (paper)"] == 100.0
    assert by_scheme["geometric"] == 100.0
    assert by_scheme["uniform"] == 0.0
