"""E17 — coalition vs single node on the new service families.

E1's claim re-checked on speech recognition, sensor-fusion telemetry
and navigation rendering: a phone cannot serve any of them alone,
while the coalition serves every one.
"""

from benchmarks.conftest import run_suite


def test_e17_families(benchmark, sweep, tmp_path):
    table = run_suite(benchmark, "E17", sweep, tmp_path)
    single = [s.mean for s in table.column("single success")]
    coalition = [s.mean for s in table.column("coalition success")]

    assert all(c > s for s, c in zip(single, coalition)), (single, coalition)
