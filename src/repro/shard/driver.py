"""The sharded streaming driver and the sharded contention runner.

:class:`ShardedDriver` is the PR-6 :class:`~repro.sessions.SessionDriver`
with exactly one behavioural override: its topology is a
:class:`~repro.shard.cluster.ShardedCluster`, so a mobility tick becomes
:meth:`~repro.shard.cluster.ShardedCluster.advance_mobility` — movers
get per-shard **delta rebuilds** and boundary-crossers are re-homed —
instead of a full O(n²) rebuild of the world. Everything else (one
logical clock, keepalives, crash detection, drain, in-place
renegotiation) is inherited verbatim; crash events resolve the victim
through the facade's global node table, so a node that migrated between
scheduling and firing still crashes in its *current* shard, and the
driver's post-crash ``rebuild()`` touches only the dirty shard.

:func:`run_sharded_contention` mirrors
:func:`repro.workloads.run_contention` stream for stream — same
``fleet`` / ``placement`` / ``arrivals:req<k>`` / ``failures`` /
``mobility`` consumption order — which is what makes a 1 × 1 grid run
bit-identical to the unsharded path (pinned in ``tests/test_shard.py``).
The fleet/placement draws can alternatively come from precomputed
tables (:func:`fleet_tables`, which E22 derives before it starts its
wall-clock timer): the tables are a pure function of the same streams,
so either source yields the same cluster.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.resources.node import Node, NodeClass
from repro.resources.provider import QoSProvider
from repro.sessions.driver import SessionDriver
from repro.shard.cluster import ShardedCluster
from repro.shard.partition import ShardGrid
from repro.sim.rng import RngRegistry
from repro.workloads.contention import (
    ContentionConfig,
    ContentionResult,
    _run_admission_only,
    _run_streaming,
    merge_arrival_events,
)

#: Stable integer coding of node classes for the fleet tables.
NODE_CLASSES: Tuple[NodeClass, ...] = tuple(NodeClass)
_CLASS_INDEX = {cls: i for i, cls in enumerate(NODE_CLASSES)}


class ShardedDriver(SessionDriver):
    """A :class:`SessionDriver` over a :class:`ShardedCluster`.

    Construction matches the base class (`topology` being the sharded
    facade); only mobility maintenance is specialized.
    """

    def attach_mobility(self, mobility, nodes, tick=None) -> None:
        """Advance mobility every tick via the cluster's delta path:
        only the distance-matrix rows of nodes that actually moved are
        recomputed, per shard, and cell-boundary crossers are re-homed.
        Ticking stops with the last pending/active session, like the
        base driver's."""
        dt = self.policy.mobility_tick if tick is None else tick

        def _tick(now: float) -> None:
            if self._pending == 0 and self._active == 0:
                return
            self.topology.advance_mobility(mobility, nodes, dt)
            self.engine.schedule(dt, _tick)

        self.engine.schedule(dt, _tick)


# -- fleet tables ------------------------------------------------------------


def _cluster_config(config: ContentionConfig):
    # Lazy: repro.shard must stay importable without the experiment layer.
    from repro.experiments.config import FLEET_MIXES, ClusterConfig

    return ClusterConfig(
        n_nodes=config.n_nodes,
        requester_class=config.requester_class,
        mix=dict(FLEET_MIXES[config.mix]),
        area=config.area,
        radio_range=config.radio_range,
    )


def _seeded_fleet(
    registry: RngRegistry, config: ContentionConfig
) -> List[Node]:
    """The fleet + placement draws of :func:`run_contention`, verbatim:
    requesters first, helpers from the ``fleet`` stream, positions from
    the ``placement`` stream."""
    from repro.experiments.scenario import multi_requester_fleet
    from repro.network.mobility import StaticPlacement

    nodes = multi_requester_fleet(
        _cluster_config(config), registry.stream("fleet"), config.n_requesters
    )
    StaticPlacement(
        config.area, config.area, registry.stream("placement")
    ).place(nodes)
    return nodes


def fleet_tables(seed: int, config: ContentionConfig) -> Dict[str, np.ndarray]:
    """The tables describing one seed's fleet: per-node class
    indices (into :data:`NODE_CLASSES`) and placed positions, in fleet
    order. A pure function of the seed's ``fleet``/``placement`` streams
    — rebuilding nodes from these tables yields the same cluster as
    drawing them live."""
    nodes = _seeded_fleet(RngRegistry(seed), config)
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
            node_id = f"req{i}"
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


# -- the sharded runner ------------------------------------------------------


def run_sharded_contention(
    seed: int,
    config: Optional[ContentionConfig] = None,
    grid: Optional[ShardGrid] = None,
    tables: Optional[Dict[str, np.ndarray]] = None,
    backhaul_hop_cost: Optional[float] = None,
) -> ContentionResult:
    """Run one contention scenario on a spatially sharded cluster.

    The sharded analogue of :func:`repro.workloads.run_contention`:
    identical RNG stream consumption, identical arrival merge, identical
    streaming lifecycle — but the cluster is a :class:`ShardedCluster`
    over ``grid`` (:meth:`ShardGrid.auto` when omitted) and streaming
    runs use :class:`ShardedDriver` (delta topology maintenance). With a
    single shard the results are bit-identical to the unsharded runner.

    Args:
        seed: Master seed; the run is a pure function of it (and of
            ``tables``, themselves a pure function of the seed).
        config: The contention configuration (default-constructed when
            omitted, like the unsharded runner).
        grid: Spatial partition override.
        tables: Optional precomputed :func:`fleet_tables` bundle (any
            mapping with ``"classes"``/``"positions"``); skips the
            fleet/placement draws without changing the outcome.
        backhaul_hop_cost: Gateway backhaul cost override
            (see :class:`ShardedCluster`).
    """
    from repro.network.radio import DiscRadio

    if config is None:
        config = ContentionConfig()
    registry = RngRegistry(seed)
    if tables is None:
        nodes = _seeded_fleet(registry, config)
    else:
        nodes = fleet_from_tables(config, tables["classes"], tables["positions"])
    providers = {n.node_id: QoSProvider(n) for n in nodes}
    if grid is None:
        grid = ShardGrid.auto(config.area, config.radio_range, config.n_nodes)
    cluster = ShardedCluster(
        nodes,
        DiscRadio(range_m=config.radio_range),
        grid,
        backhaul_hop_cost=backhaul_hop_cost,
    )
    events, family_of = merge_arrival_events(config, registry)
    if config.sessions.operate:
        return _run_streaming(
            config, registry, cluster, providers, nodes, events, family_of,
            driver_cls=ShardedDriver,
        )
    return _run_admission_only(config, cluster, providers, events, family_of)
