"""E12 — reputation-aware selection (trust extension).

The paper's related work embraces trust-based coalition formation
(Breban & Vassileva [4]); this extension feeds operation-phase failure
observations into partner selection. Expected shape: against flaky
helpers, the reputation-aware policy routes awards away from them and
lifts first-try completion well above the memoryless protocol,
especially in the later (post-learning) rounds.
"""

from benchmarks.conftest import run_suite


def test_e12_reputation(benchmark, sweep, tmp_path):
    table = run_suite(benchmark, "E12", sweep, tmp_path)
    rows = {row[0]: row for row in table.rows}
    paper = rows["paper (no memory)"]
    aware = rows["reputation-aware"]
    assert aware[1].mean > paper[1].mean, "reputation must lift completion"
    assert aware[2].mean >= aware[1].mean - 1e-9, "learning must not regress"
    assert aware[3].mean < paper[3].mean, "flaky nodes must lose awards"
