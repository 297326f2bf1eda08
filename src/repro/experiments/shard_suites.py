"""The E22 suite: sharded cluster simulation at scale.

One suite, one question: does the :mod:`repro.shard` subsystem carry
the paper's protocol from the 16–128-node clusters of E15/E18 to
**512–4096 nodes** at constant density, with streaming sessions, crash
churn and mobility all running inside the contention window?

Each sweep point is one cluster size. The cluster is partitioned by
:meth:`~repro.shard.partition.ShardGrid.auto` (2 × 2 at 512 up to
4 × 4 at 4096 under the default occupancy target), negotiation stays
shard-local on the per-shard vectorized arenas, mobility ticks take the
delta-rebuild path, and crash churn rebuilds only the victim's shard.
Each replication derives its fleet tables (per-node class + placed
position, a pure function of the seed) before its timer starts, so the
wall column times the simulation alone.

Every metric column except the last is a pure function of the seed —
the bit-identical parallel==serial guarantee holds for them and CI
gates them exactly. The final **sessions/s (wall)** column is
wall-clock throughput (offered sessions over the replication's
measured runtime) and is inherently machine-dependent: it is reported,
trended, and *exempted* from the exact gates via ``tools/bench_diff.py
--wall-columns`` (columns named "(wall)" are excluded from the noise
bands, like the suite's wall time).
"""

from __future__ import annotations

import time
from typing import Dict

import numpy as np

from repro.experiments.config import SweepConfig
from repro.experiments.plan import SuitePlan, SweepPoint
from repro.experiments.reporting import Table
from repro.sessions.policy import SessionPolicy
from repro.workloads.contention import ContentionConfig

# repro.shard is imported lazily inside the functions below: the package
# facade (repro/__init__) imports repro.shard, whose runner imports
# repro.workloads, whose registry imports this experiment layer — a
# module-scope import here would close that cycle mid-initialization.


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
            operate=True,
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
    clusters mean *more* neighborhoods, not denser ones. The throughput
    column is the headline: sessions per wall-clock second must stay
    within the same order of magnitude from 512 to 4096 nodes, which is
    exactly what per-shard arenas + delta mobility rebuilds buy (a
    global-arena run would fall off the O(n²)-per-tick cliff; the ≥5×
    delta-rebuild gate is asserted directly by
    ``benchmarks/test_e22_shard.py``).
    """
    from repro.shard import ShardGrid

    sizes = (512, 1024) if sweep.quick else (512, 1024, 2048, 4096)
    horizon = 120.0 if sweep.quick else 240.0
    table = Table(
        "E22 — sharded cluster simulation at scale "
        "(streaming contention, constant density)",
        ["nodes × shards", "offered sessions", "success rate",
         "sustained utility", "drop rate", "sessions/s (wall)"],
        caption="Spatially sharded clusters (ShardGrid.auto, ~256 nodes "
                "per cell target), K = n/128 requesters with Poisson "
                "arrivals, streaming sessions under crash churn "
                "(hazard 1/200 s), 30 J/s drain and random-waypoint "
                "mobility on the per-shard delta-rebuild path. Area "
                "grows with sqrt(nodes) so density stays constant. "
                "sessions/s (wall) is "
                "wall-clock throughput — machine-dependent by nature, "
                "reported but exempt from the exact CI gates "
                "(bench_diff --wall-columns).",
    )
    points = []
    for n_nodes in sizes:
        config = _e22_config(n_nodes, horizon)
        grid = ShardGrid.auto(config.area, config.radio_range, config.n_nodes)

        def run(seed: int, config=config) -> Dict[str, float]:
            from repro.shard import fleet_tables, run_sharded_contention

            tables = fleet_tables(seed, config)
            start = time.perf_counter()
            result = run_sharded_contention(seed, config, tables=tables)
            wall = time.perf_counter() - start
            metrics = result.metrics()
            metrics["sessions_per_sec_wall"] = (
                metrics["offered"] / wall if wall > 0 else 0.0
            )
            return metrics

        points.append(SweepPoint(
            label=f"{n_nodes}n-{grid.n_shards}sh", run=run,
            keys=("offered", "success_rate", "sustained_utility",
                  "drop_rate", "sessions_per_sec_wall"),
        ))
    return SuitePlan("E22", table, points)
