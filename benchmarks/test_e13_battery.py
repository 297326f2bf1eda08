"""E13 — battery-aware selection (network-lifetime extension).

The paper motivates cooperation with battery savings (§1, §7); this
extension spreads the drain across helpers. Expected shape: equal total
service (energy conservation), but far better balance — higher Jain
fairness and a higher minimum residual battery at the checkpoint.
"""

from benchmarks.conftest import run_suite


def test_e13_battery(benchmark, sweep, tmp_path):
    table = run_suite(benchmark, "E13", sweep, tmp_path)
    rows = {row[0]: row for row in table.rows}
    paper = rows["paper triple"]
    aware = rows["battery-aware"]
    assert aware[1].mean > paper[1].mean, "battery criterion must even the drain"
    assert aware[2].mean > paper[2].mean, "minimum residual must rise"
    # Energy conservation: total service extracted is policy-invariant.
    assert abs(aware[3].mean - paper[3].mean) <= 2.0
