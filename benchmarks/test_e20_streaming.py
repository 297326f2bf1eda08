"""E20 — streaming sessions under churn (the repro.sessions driver).

Admitted coalitions run their operation phase *inside* the contention
window: helper crashes and per-award streaming drain orphan tasks
mid-session, and orphans renegotiate in place against the currently
contended cluster. The sweep crosses mobility model × per-requester
arrival rate × session-length multiplier; the assertions pin the
qualitative shape the lifecycle model must produce.
"""

from benchmarks.conftest import run_suite


def test_e20_streaming_sessions(benchmark, sweep, tmp_path):
    table = run_suite(benchmark, "E20", sweep, tmp_path)
    labels = table.column("mobility × rate × length")
    success = [s.mean for s in table.column("success rate")]
    sustained = [s.mean for s in table.column("sustained utility")]
    reneg = [s.mean for s in table.column("renegotiation rate")]
    rows = dict(zip(labels, zip(success, sustained, reneg)))

    # Streaming keeps working under churn at every point ...
    assert all(s > 0.5 for s in success), labels
    # ... but churn costs utility: sustained < 1 everywhere (crashes and
    # drain are always on in the streaming-mix scenario).
    assert all(0.0 < u < 1.0 for u in sustained), labels
    # Longer sessions see more churn: the x2 rows renegotiate more than
    # their x1 siblings for every mobility × rate combination.
    for mobility in ("static", "waypoint"):
        for rate in ("60s", "30s"):
            short = rows[f"{mobility}-{rate}-x1"][2]
            long = rows[f"{mobility}-{rate}-x2"][2]
            assert long > short, (mobility, rate, short, long)
