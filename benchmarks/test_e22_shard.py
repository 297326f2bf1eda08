"""E22 — sharded cluster simulation at scale (repro.shard).

Perf-trajectory suite: the streaming contention workload at 512–4096
nodes on spatially partitioned shards. Every metric column except
``sessions/s (wall)`` is deterministic; the wall-clock throughput column
is reported and trended but exempt from the exact CI gates
(``tools/bench_diff.py --wall-columns``).

The second test is the acceptance gate for the delta-rebuild path
itself: a mobility tick that moved a handful of nodes must update the
1024-node distance/adjacency arenas at least 5x faster than a full
``rebuild()``, with both paths leaving bit-identical arrays.
"""

import time

import numpy as np

from benchmarks.conftest import run_suite
from repro.network.radio import DiscRadio
from repro.network.topology import Topology
from repro.resources.node import Node


def test_e22_shard_scale(benchmark, sweep, tmp_path):
    table = run_suite(benchmark, "E22", sweep, tmp_path)
    labels = table.column("nodes × shards")
    offered = [s.mean for s in table.column("offered sessions")]
    success = [s.mean for s in table.column("success rate")]
    throughput = [s.mean for s in table.column("sessions/s (wall)")]
    # Real load and healthy admission at every scale.
    assert all(o > 0.0 for o in offered), labels
    assert all(s > 0.5 for s in success), labels
    # The sharded simulator must not fall off a super-linear cliff: 8x
    # more nodes (and ~8x more offered sessions) may cost per-session
    # throughput, but it has to stay within one order of magnitude of
    # the best size.
    assert min(throughput) > max(throughput) / 10.0, dict(zip(labels, throughput))


def _fleet(n=1024, seed=7):
    rng = np.random.default_rng(seed)
    area = 60.0 * float(np.sqrt(n))
    return [
        Node(
            f"n{i}",
            position=(float(rng.uniform(0, area)), float(rng.uniform(0, area))),
        )
        for i in range(n)
    ]


def test_delta_rebuild_5x_at_1024_nodes():
    """Acceptance gate: a 16-mover delta rebuild >= 5x a full rebuild."""
    topo = Topology(_fleet(), DiscRadio(range_m=100.0))
    movers = [f"n{i}" for i in range(16)]
    for nid in movers:
        x, y = topo.node(nid).position
        topo.node(nid).move_to(x + 1.5, y - 0.5)

    # Same arenas first — speed means nothing otherwise.
    topo.update_positions(movers)
    after_delta = (
        topo._dist.copy(), topo._adj.copy(), topo._bw.copy(), topo._loss.copy()
    )
    topo.rebuild()
    assert np.array_equal(after_delta[0], topo._dist, equal_nan=True)
    assert np.array_equal(after_delta[1], topo._adj)
    assert np.array_equal(after_delta[2], topo._bw, equal_nan=True)
    assert np.array_equal(after_delta[3], topo._loss, equal_nan=True)

    def best_of(fn, reps=7):
        best = float("inf")
        for _ in range(reps):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    t_full = best_of(topo.rebuild)
    t_delta = best_of(lambda: topo.update_positions(movers))
    assert t_full >= 5.0 * t_delta, (
        f"delta rebuild only {t_full / t_delta:.1f}x faster "
        f"(full {t_full * 1e3:.2f} ms, delta {t_delta * 1e3:.2f} ms)"
    )
