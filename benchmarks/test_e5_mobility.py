"""E5 — mobility and opportunism.

Paper claim (§1): nodes cooperate "opportunistically taking advantage of
the local ad-hoc network that is created spontaneously, as nodes move in
range of each other". Expected shape: with static placement an isolated
requester stays isolated (low success for unlucky seeds); mobility brings
more distinct candidates into range over time (candidates and distinct
partners grow with speed), at the cost of more in-flight message loss.
"""

from benchmarks.conftest import run_suite


def test_e5_mobility(benchmark, sweep, tmp_path):
    table = run_suite(benchmark, "E5", sweep, tmp_path)
    speeds = table.column("speed (m/s)")
    partners = [s.mean for s in table.column("distinct partners")]
    static_partners = partners[speeds.index(0.0)]
    moving_partners = max(p for sp, p in zip(speeds, partners) if sp > 0)
    assert moving_partners > static_partners, (
        "mobility must expose more distinct coalition partners"
    )
