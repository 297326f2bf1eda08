"""E2 — the eqs. 2–5 evaluator picks proposals closest to preferences.

Paper claim (§6): "The best proposal is the one that presents the lowest
evaluation, since it is the one that contains the attributes' values more
closely related to user's preferences." Expected shape: zero regret vs
the pool's best proposal at every pool size; random picks trail.
"""

from benchmarks.conftest import run_suite


def test_e2_evaluation_quality(benchmark, sweep, tmp_path):
    table = run_suite(benchmark, "E2", sweep, tmp_path)
    regrets = [s.mean for s in table.column("regret vs best")]
    assert all(abs(r) < 1e-9 for r in regrets), "eq.2 winner must equal pool best"
    winners = [s.mean for s in table.column("eq.2 winner utility")]
    randoms = [s.mean for s in table.column("random pick utility")]
    assert all(w >= r - 1e-9 for w, r in zip(winners, randoms))
