"""E21 — realistic arrival streams (diurnal / flash crowd vs Poisson).

The ``diurnal-mix`` and ``flash-crowd`` scenarios drive streaming
sessions with inhomogeneous Poisson arrivals, next to a homogeneous
control rate-matched to the diurnal shape's mean. Equal requester
counts offer the same *expected* load; the assertions pin the
qualitative effect of arrival clustering on admission and sustained
delivery.
"""

from benchmarks.conftest import run_suite


def test_e21_realistic_arrivals(benchmark, sweep, tmp_path):
    table = run_suite(benchmark, "E21", sweep, tmp_path)
    labels = table.column("shape × requesters")
    offered = [s.mean for s in table.column("offered sessions")]
    success = [s.mean for s in table.column("success rate")]
    rows = dict(zip(labels, zip(offered, success)))

    # Every shape generates real load at every requester count.
    assert all(o > 0.0 for o in offered), labels
    # More requesters, more offered sessions, within every shape.
    for shape in ("poisson", "diurnal", "flash-crowd"):
        assert rows[f"{shape}-4req"][0] > rows[f"{shape}-2req"][0], shape
    # The flash crowd concentrates its load in one burst, so at the
    # contended requester count its admission success falls below the
    # rate-matched Poisson control's.
    assert rows["flash-crowd-4req"][1] < rows["poisson-4req"][1], rows
    # Nothing collapses outright: even the burst keeps a majority of
    # sessions admitted.
    assert all(s > 0.5 for s in success), labels
