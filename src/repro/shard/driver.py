"""Fleet tables and the sharded contention runner.

:func:`run_sharded_contention` is :func:`repro.workloads.run_contention`
with one difference: the cluster handed to
:func:`~repro.workloads.contention.run_on_cluster` is a
:class:`~repro.shard.cluster.ShardedCluster`. The fleet, the arrival
merge, the admission loop and the :class:`~repro.sessions.SessionDriver`
are the same code, so a 1 × 1 grid run is bit-identical to the
unsharded path (pinned in ``tests/test_shard.py``). The session driver reaches
the cluster only through the ``Topology`` interface: a mobility tick
calls ``advance_mobility``, which here delta-rebuilds only what moved
and re-homes nodes that crossed a cell boundary, and a crash's
``rebuild()`` touches only the victim's shard.

The fleet can alternatively come from precomputed tables
(:func:`fleet_tables`, which E22 derives before it starts its wall-clock
timer): the tables are a pure function of the same ``fleet`` and
``placement`` streams, so either source yields the same cluster.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.network.radio import DiscRadio
from repro.resources.node import Node, NodeClass
from repro.resources.provider import QoSProvider
from repro.shard.cluster import ShardedCluster
from repro.shard.partition import ShardGrid
from repro.sim.rng import RngRegistry
from repro.workloads.contention import ContentionConfig, ContentionResult, run_on_cluster
from repro.workloads.fleet import contention_fleet, requester_id

#: Stable integer coding of node classes for the fleet tables.
NODE_CLASSES: Tuple[NodeClass, ...] = tuple(NodeClass)
_CLASS_INDEX = {cls: i for i, cls in enumerate(NODE_CLASSES)}


def fleet_tables(seed: int, config: ContentionConfig) -> Dict[str, np.ndarray]:
    """The tables describing one seed's fleet: per-node class
    indices (into :data:`NODE_CLASSES`) and placed positions, in fleet
    order. A pure function of the seed's ``fleet``/``placement`` streams
    — rebuilding nodes from these tables yields the same cluster as
    drawing them live."""
    nodes = contention_fleet(config, RngRegistry(seed))
    classes = np.fromiter(
        (_CLASS_INDEX[n.node_class] for n in nodes), dtype=np.int8, count=len(nodes)
    )
    positions = np.asarray([n.position for n in nodes], dtype=np.float64)
    return {"classes": classes, "positions": positions}


def fleet_from_tables(
    config: ContentionConfig,
    classes: np.ndarray,
    positions: np.ndarray,
) -> List[Node]:
    """Rebuild the (cheap, mutable) node fleet from :func:`fleet_tables`.

    Node ids follow the fleet rule — ``req0..req{K-1}`` then ``n0...`` —
    and each node gets its class profile's fresh capacity/energy state;
    only the *derivation* of classes and positions is skipped.
    """
    if len(classes) != config.n_nodes or positions.shape != (config.n_nodes, 2):
        raise ValueError(
            f"fleet tables shaped for {len(classes)} nodes, "
            f"config wants {config.n_nodes}"
        )
    nodes: List[Node] = []
    for i in range(config.n_nodes):
        if i < config.n_requesters:
            node_id = requester_id(i)
        else:
            node_id = f"n{i - config.n_requesters}"
        nodes.append(
            Node(
                node_id,
                node_class=NODE_CLASSES[int(classes[i])],
                position=(float(positions[i, 0]), float(positions[i, 1])),
            )
        )
    return nodes


def run_sharded_contention(
    seed: int,
    config: Optional[ContentionConfig] = None,
    grid: Optional[ShardGrid] = None,
    tables: Optional[Dict[str, np.ndarray]] = None,
) -> ContentionResult:
    """Run one contention scenario on a spatially sharded cluster.

    Args:
        seed: Master seed; the run is a pure function of it (and of
            ``tables``, themselves a pure function of the seed).
        config: The contention configuration (default-constructed when
            omitted, like the unsharded runner).
        grid: Spatial partition override (:meth:`ShardGrid.auto` when
            omitted).
        tables: Optional precomputed :func:`fleet_tables` bundle (any
            mapping with ``"classes"``/``"positions"``); skips the
            fleet/placement draws without changing the outcome.
    """
    if config is None:
        config = ContentionConfig()
    registry = RngRegistry(seed)
    if tables is None:
        nodes = contention_fleet(config, registry)
    else:
        nodes = fleet_from_tables(config, tables["classes"], tables["positions"])
    if grid is None:
        grid = ShardGrid.auto(config.area, config.radio_range, config.n_nodes)
    cluster = ShardedCluster(nodes, DiscRadio(range_m=config.radio_range), grid)
    providers = {n.node_id: QoSProvider(n) for n in nodes}
    return run_on_cluster(config, registry, cluster, providers, nodes)
