"""E3 — the Section 5 degradation heuristic under rising load.

Paper claim (§5, eq. 1): degrading the attribute with the minimum local
reward decrease preserves more reward than uninformed degradation.
Expected shape: paper reward >= random/round-robin reward at every load,
with the gap widening as load rises; utility follows the same order.
"""

from benchmarks.conftest import run_suite


def test_e3_degradation_reward(benchmark, sweep, tmp_path):
    table = run_suite(benchmark, "E3", sweep, tmp_path)
    for row in table.rows:
        fraction, paper, random_, rr = row[0], row[1].mean, row[2].mean, row[3].mean
        assert paper >= random_ - 1e-9, f"paper < random at fraction {fraction}"
        assert paper >= rr - 1e-9, f"paper < round-robin at fraction {fraction}"
    # Under real load the paper's strategy is strictly better.
    loaded = [r for r in table.rows if r[0] < 1.0]
    assert any(r[1].mean > r[2].mean + 0.1 for r in loaded)
