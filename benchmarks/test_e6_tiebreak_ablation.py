"""E6 — selection tie-break ablation.

Paper claim (§4.2): the coalition prefers, after the lowest evaluation
value, the lowest communication cost and the fewest distinct members.
Expected shape: all policies tie on distance (tie-breaks only fire on
distance ties); adding the comm-cost criterion lowers comm cost; the full
triple also keeps the coalition at least as small as comm-cost alone.
"""

from benchmarks.conftest import run_suite


def test_e6_tiebreak_ablation(benchmark, sweep, tmp_path):
    table = run_suite(benchmark, "E6", sweep, tmp_path)
    rows = {row[0]: row for row in table.rows}
    distance_only = rows["distance only"]
    full = rows["full triple (paper)"]
    with_comm = rows["+ comm cost"]
    # Same QoS distance everywhere — tie-breaks never sacrifice quality.
    distances = [row[1].mean for row in table.rows]
    assert max(distances) - min(distances) < 1e-6
    # Comm-cost criterion pays off.
    assert with_comm[2].mean <= distance_only[2].mean + 1e-9
    assert full[2].mean <= distance_only[2].mean + 1e-9
    # The full triple keeps coalitions no larger than comm-cost alone.
    assert full[3].mean <= with_comm[3].mean + 1e-9
