"""Spatially-partitioned cluster simulation (the E22 subsystem).

The paper's protocol targets large ad-hoc deployments; this package
partitions the numpy topology arena into a sharded simulator:

* :mod:`repro.shard.partition` — the :class:`ShardGrid` spatial
  partition and the deterministic gateway backhaul paths;
* :mod:`repro.shard.cluster` — :class:`ShardedCluster`, per-shard
  topology arenas (independent epochs, one rebuild per touched shard
  on a mobility tick) behind the
  duck-typed ``Topology`` facade, with gateway election and
  cross-shard routing (a 1 × 1 :class:`ShardGrid` is one shard, the
  unsharded semantics);
* :mod:`repro.shard.driver` — :func:`fleet_tables` (the seed's fleet
  as arrays, which the perf benchmark builds outside its timed runs)
  and :func:`run_sharded_contention`, which runs
  :func:`repro.workloads.run_contention`'s own pipeline (arrival merge,
  :class:`~repro.sessions.SessionDriver`) on a :class:`ShardedCluster`
  — bit-identical to it on a single shard.

Layering: this package sits on :mod:`repro.workloads` and below
:mod:`repro.experiments`, which it never imports.

See ``docs/sharding.md`` for the partitioning scheme and the gateway
cost model.
"""

from repro.shard.cluster import ShardedCluster
from repro.shard.driver import (
    fleet_from_tables,
    fleet_tables,
    run_sharded_contention,
)
from repro.shard.partition import DEFAULT_SHARD_OCCUPANCY, ShardGrid

__all__ = [
    "ShardedCluster",
    "ShardGrid",
    "DEFAULT_SHARD_OCCUPANCY",
    "fleet_tables",
    "fleet_from_tables",
    "run_sharded_contention",
]
