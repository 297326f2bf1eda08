"""E15 — multi-requester contention (admission-only sessions).

The ``contention-mix`` scenario with the requester count swept: K
self-interested requesters share one 20-node cluster, each session
holding real reservations for its duration. The archived table pins
every cell; the assertions pin the qualitative shape.
"""

from benchmarks.conftest import run_suite


def test_e15_contention(benchmark, sweep, tmp_path):
    table = run_suite(benchmark, "E15", sweep, tmp_path)
    offered = [s.mean for s in table.column("offered sessions")]
    concurrent = [s.mean for s in table.column("mean concurrent")]

    # More requesters offer more sessions and hold more of them at once.
    assert offered == sorted(offered) and len(set(offered)) == len(offered)
    assert concurrent == sorted(concurrent), concurrent
