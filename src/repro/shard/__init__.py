"""Spatially-partitioned cluster simulation (the E22 subsystem).

The paper's protocol targets large ad-hoc deployments; this package
partitions the numpy topology arena into a sharded simulator:

* :mod:`repro.shard.partition` — the :class:`ShardGrid` spatial
  partition and the deterministic gateway backhaul paths;
* :mod:`repro.shard.cluster` — :class:`ShardedCluster`, per-shard
  topology arenas (independent epochs, delta rebuilds) behind the
  duck-typed ``Topology`` facade, with gateway election and
  cross-shard routing (a 1 × 1 :class:`ShardGrid` is one shard, the
  unsharded semantics);
* :mod:`repro.shard.driver` — :class:`ShardedDriver` (streaming
  sessions with delta topology maintenance) and
  :func:`run_sharded_contention`, the sharded twin of
  :func:`repro.workloads.run_contention` — bit-identical to it on a
  single shard.

See ``docs/sharding.md`` for the partitioning scheme and the gateway
cost model.
"""

from repro.shard.cluster import ShardedCluster
from repro.shard.driver import (
    ShardedDriver,
    fleet_from_tables,
    fleet_tables,
    run_sharded_contention,
)
from repro.shard.partition import DEFAULT_SHARD_OCCUPANCY, ShardGrid

__all__ = [
    "ShardedCluster",
    "ShardedDriver",
    "ShardGrid",
    "DEFAULT_SHARD_OCCUPANCY",
    "fleet_tables",
    "fleet_from_tables",
    "run_sharded_contention",
]
