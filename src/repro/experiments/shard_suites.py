"""The E22 suite: sharded cluster simulation at scale.

One suite, one question: does the :mod:`repro.shard` subsystem carry
the paper's protocol from the 16–128-node clusters of E15/E18 to
**512–4096 nodes** at constant density, with streaming sessions, crash
churn and mobility all running inside the contention window?

Each sweep point is one cluster size. The cluster is partitioned by
:meth:`~repro.shard.partition.ShardGrid.auto` (2 × 2 at 512 up to
4 × 4 at 4096 under the default occupancy target), negotiation stays
shard-local on the per-shard vectorized arenas, a mobility tick
rebuilds once each shard that its movers are in or left, and crash
churn rebuilds only the victim's shard.
Every metric column is a pure function of the seed, so the table is
bit-identical under any ``--jobs`` and CI gates it exactly. Wall-clock
throughput is measured outside the table: the suite report's
``wall_time_s``, the per-unit times ``benchmarks/test_e22_shard.py``
checks across sizes, and ``benchmarks/perf``'s ``e22-shard-512``
workload.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.experiments.config import SweepConfig
from repro.experiments.plan import SuitePlan, SweepPoint
from repro.experiments.reporting import Table
from repro.sessions.policy import SessionPolicy
from repro.shard import ShardGrid, run_sharded_contention
from repro.workloads.contention import ContentionConfig


def _e22_config(n_nodes: int, horizon: float) -> ContentionConfig:
    """One E22 sweep point's configuration: constant density (area grows
    with sqrt(nodes), like E18/E19), requester count scaling with the
    cluster, and the streaming-mix churn regime (crash hazard 1/200 s,
    30 J/s streaming drain, random-waypoint mobility)."""
    return ContentionConfig(
        n_requesters=max(2, n_nodes // 128),
        families=("movie", "speech", "sensor-fusion", "navigation"),
        horizon=horizon,
        n_nodes=n_nodes,
        area=60.0 * float(np.sqrt(n_nodes)),
        radio_range=100.0,
        sessions=SessionPolicy(
            failure_rate=1.0 / 200.0,
            drain=30.0,
            mobility="waypoint",
            mobility_speed=4.0,
        ),
    )


def e22_plan(sweep: SweepConfig = SweepConfig()) -> SuitePlan:
    """Tentpole (ROADMAP: spatial sharding): the E15/E20 streaming
    contention workload at 512–4096 nodes on :mod:`repro.shard`.

    Success rate and sustained utility should hold roughly flat across
    sizes — the workload scales with the cluster (K = n/128 requesters,
    constant node density), and negotiation is shard-local, so bigger
    clusters mean *more* neighborhoods, not denser ones. Sessions per
    wall-clock second must stay within the same order of magnitude from
    512 to 4096 nodes, which is exactly what per-shard arenas buy: each
    mobility tick rebuilds k arenas of O((n/k)²) instead of one of
    O(n²), so a global-arena run would fall off the per-tick cliff.
    ``benchmarks/test_e22_shard.py`` asserts that from the executor's
    per-unit times.
    """
    sizes = (512, 1024) if sweep.quick else (512, 1024, 2048, 4096)
    horizon = 120.0 if sweep.quick else 240.0
    table = Table(
        "E22 — sharded cluster simulation at scale "
        "(streaming contention, constant density)",
        ["nodes × shards", "offered sessions", "success rate",
         "sustained utility", "drop rate"],
        caption="Spatially sharded clusters (ShardGrid.auto, ~256 nodes "
                "per cell target), K = n/128 requesters with Poisson "
                "arrivals, streaming sessions under crash churn "
                "(hazard 1/200 s), 30 J/s drain and random-waypoint "
                "mobility, each tick rebuilding the shards its movers "
                "are in or left. Area grows with sqrt(nodes) so density "
                "stays constant.",
    )
    points = []
    for n_nodes in sizes:
        config = _e22_config(n_nodes, horizon)
        grid = ShardGrid.auto(config.area, config.radio_range, config.n_nodes)

        def run(seed: int, config=config) -> Dict[str, float]:
            return run_sharded_contention(seed, config).metrics()

        points.append(SweepPoint(
            label=f"{n_nodes}n-{grid.n_shards}sh", run=run,
            keys=("offered", "success_rate", "sustained_utility",
                  "drop_rate"),
        ))
    return SuitePlan("E22", table, points)
