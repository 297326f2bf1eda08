"""E22 — sharded cluster simulation at scale (repro.shard).

Perf-trajectory suite: the streaming contention workload at 512–4096
nodes on spatially partitioned shards. Every table column is
deterministic and checked against the archived ``E22.txt``; throughput
(offered sessions per second of replication time) comes from the
start/completion times the executor records for each work unit, so it
never enters the table.
"""

from benchmarks.conftest import check_archived
from repro.experiments.parallel import run_units
from repro.experiments.suites import SUITE_PLANS


def test_e22_shard_scale(benchmark, sweep, tmp_path):
    plan = SUITE_PLANS["E22"](sweep)
    seeds = sweep.effective_seeds
    results = benchmark.pedantic(
        lambda: run_units(plan.work_units(seeds), sweep.jobs),
        rounds=1, iterations=1,
    )
    table = plan.reduce([r.row for r in results], seeds)
    check_archived(table.render(), "E22", tmp_path)
    labels = table.column("nodes × shards")
    offered = [s.mean for s in table.column("offered sessions")]
    success = [s.mean for s in table.column("success rate")]
    # Real load and healthy admission at every scale.
    assert all(o > 0.0 for o in offered), labels
    assert all(s > 0.5 for s in success), labels
    # The sharded simulator must not fall off a super-linear cliff: 8x
    # more nodes (and ~8x more offered sessions) may cost per-session
    # throughput, but it has to stay within one order of magnitude of
    # the best size.
    n = len(seeds)
    points = [results[i:i + n] for i in range(0, len(results), n)]
    throughput = [
        sum(r.row["offered"] for r in point)
        / sum(r.completed - r.started for r in point)
        for point in points
    ]
    assert min(throughput) > max(throughput) / 10.0, dict(zip(labels, throughput))

