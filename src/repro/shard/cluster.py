"""The sharded cluster: per-shard topology arenas behind one facade.

:class:`ShardedCluster` partitions a node fleet over a
:class:`~repro.shard.partition.ShardGrid` and gives every shard its own
:class:`~repro.network.topology.Topology` arena — each with its own
epoch counter, so neighbor/route caches invalidate **per shard** — while
presenting the exact duck-typed interface the negotiation layer and the
session driver consume (``node`` / ``neighbors`` / ``khop_neighbors`` /
``communication_cost`` / ``multihop_cost`` / ``rebuild``):

* **intra-shard** queries delegate to the home shard's vectorized arena
  (the existing fast path, untouched);
* **cross-shard** traffic is routed shard-local → gateway → gateway →
  shard-local: each shard elects the live node nearest its cell center
  as **gateway**, and the gateway-to-gateway backhaul costs
  ``hops × backhaul_hop_cost`` where ``hops`` is the Manhattan cell
  distance (see ``docs/sharding.md`` for the cost model);
* **mobility ticks** re-home nodes that crossed a cell boundary, then
  rebuild each shard that holds a mover or lost a migrant, once
  (:meth:`~repro.network.topology.Topology.update_positions`); shards
  without movers keep their arenas and epochs;
* **liveness churn** marks only the victim's home shard dirty, so the
  driver's post-crash ``rebuild()`` rebuilds one shard, not the world.

With a 1 × 1 grid every query delegates to the single shard's arena and
the facade is bit-identical to the unsharded path — the degenerate case
the equivalence tests pin.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import NotConnectedError, UnknownNodeError
from repro.network.mobility import MobilityModel
from repro.network.radio import RadioModel
from repro.network.topology import Topology
from repro.resources.node import Node
from repro.shard.partition import ShardGrid

class ShardedCluster:
    """A fleet partitioned into per-cell topology shards.

    Args:
        nodes: The full fleet, in fleet order (requesters first). Each
            shard's arena starts in this relative order, so intra-shard
            neighbor tuples and tie-breaks match the unsharded arena's
            until the first migration: a migrant joins the end of its
            new shard, so a shard's order afterwards is its members'
            arrival order, not fleet order.
        radio: Radio model shared by every shard.
        grid: The spatial partition (:meth:`ShardGrid.auto` is the usual
            source). A 1 × 1 grid is one shard holding the whole fleet,
            i.e. the unsharded semantics.

    Each gateway-to-gateway backhaul hop costs
    :attr:`backhaul_hop_cost`, the cost of a best-case radio hop
    (``1000 / nominal_bandwidth``) — a provisioned backhaul link is as
    cheap as the best in-cell link, never cheaper.
    """

    def __init__(
        self,
        nodes: Sequence[Node],
        radio: RadioModel,
        grid: ShardGrid,
    ) -> None:
        self.grid = grid
        self.radio = radio
        nominal = getattr(radio, "nominal_bandwidth", 0.0)
        self.backhaul_hop_cost = 1000.0 / nominal if nominal > 0 else 1.0
        self._nodes: Dict[str, Node] = {}
        self._home: Dict[str, int] = {}
        members: List[List[Node]] = [[] for _ in range(grid.n_shards)]
        for node in nodes:
            if node.node_id in self._nodes:
                raise ValueError(f"duplicate node id {node.node_id!r}")
            shard = grid.shard_of(*node.position)
            self._nodes[node.node_id] = node
            self._home[node.node_id] = shard
            members[shard].append(node)
        self.shards: Tuple[Topology, ...] = tuple(
            Topology(shard_nodes, radio) for shard_nodes in members
        )
        # Shards whose liveness changed since the last facade rebuild();
        # the driver's post-churn rebuild then touches only these.
        self._dirty: Set[int] = set()
        for node in self._nodes.values():
            node.add_liveness_watcher(self._mark_dirty)
        # Gateway elections, cached per (shard, shard epoch).
        self._gateways: Dict[int, Tuple[int, Optional[str]]] = {}

    # -- membership (Topology facade) --------------------------------------

    def node(self, node_id: str) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownNodeError(node_id) from None

    @property
    def nodes(self) -> Tuple[Node, ...]:
        return tuple(self._nodes.values())

    @property
    def node_ids(self) -> Tuple[str, ...]:
        return tuple(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    @property
    def n_shards(self) -> int:
        return self.grid.n_shards

    @property
    def epoch(self) -> int:
        """Sum of the shard epochs — monotone, bumped by any change."""
        return sum(shard.epoch for shard in self.shards)

    def home_shard(self, node_id: str) -> int:
        """Current home shard of a node (re-homed on migration)."""
        if node_id not in self._nodes:
            raise UnknownNodeError(node_id)
        return self._home[node_id]

    def _mark_dirty(self, node: Node) -> None:
        shard = self._home.get(node.node_id)
        if shard is not None:
            self._dirty.add(shard)

    # -- intra-shard queries (delegate to the home arena) -------------------

    def neighbors(self, node_id: str) -> Tuple[str, ...]:
        """Shard-local direct neighbors — the CFP audience. Coalition
        negotiation stays on the home shard's vectorized fast path by
        construction; cross-shard links exist only between gateways."""
        return self.shards[self.home_shard(node_id)].neighbors(node_id)

    def khop_neighbors(self, node_id: str, k: int) -> Tuple[str, ...]:
        return self.shards[self.home_shard(node_id)].khop_neighbors(node_id, k)

    def connected(self, a: str, b: str) -> bool:
        sa, sb = self.home_shard(a), self.home_shard(b)
        if sa != sb:
            return False
        return self.shards[sa].connected(a, b)

    def link_bandwidth(self, a: str, b: str) -> float:
        sa, sb = self.home_shard(a), self.home_shard(b)
        if sa != sb:
            raise NotConnectedError(f"no link {a!r} <-> {b!r} (cross-shard)")
        return self.shards[sa].link_bandwidth(a, b)

    def link_loss(self, a: str, b: str) -> float:
        sa, sb = self.home_shard(a), self.home_shard(b)
        if sa != sb:
            raise NotConnectedError(f"no link {a!r} <-> {b!r} (cross-shard)")
        return self.shards[sa].link_loss(a, b)

    def edge_quality(self, a: str, b: str) -> Optional[Tuple[float, float]]:
        sa, sb = self.home_shard(a), self.home_shard(b)
        if sa != sb:
            return None
        return self.shards[sa].edge_quality(a, b)

    def communication_cost(self, a: str, b: str) -> float:
        """Direct-link cost; cross-shard pairs have no direct link and
        raise :class:`NotConnectedError` (callers treat that as an
        unreachable offer, exactly like an out-of-range pair)."""
        sa, sb = self.home_shard(a), self.home_shard(b)
        if sa != sb:
            raise NotConnectedError(f"no link {a!r} <-> {b!r} (cross-shard)")
        return self.shards[sa].communication_cost(a, b)

    # -- gateways and cross-shard routing -----------------------------------

    def gateway(self, shard: int) -> Optional[str]:
        """The shard's elected gateway: the live node nearest the cell
        center (ties broken by node id). ``None`` for a shard with no
        live nodes. Re-elected lazily whenever the shard's epoch moved —
        which covers gateway death, migration and membership churn."""
        topo = self.shards[shard]
        cached = self._gateways.get(shard)
        if cached is not None and cached[0] == topo.epoch:
            return cached[1]
        cx, cy = self.grid.cell_center(shard)
        best: Optional[str] = None
        best_key: Optional[Tuple[float, str]] = None
        for node in topo.nodes:
            if not node.alive:
                continue
            d = math.hypot(node.position[0] - cx, node.position[1] - cy)
            key = (d, node.node_id)
            if best_key is None or key < best_key:
                best, best_key = node.node_id, key
        self._gateways[shard] = (topo.epoch, best)
        return best

    def multihop_cost(self, a: str, b: str) -> float:
        """Best multi-hop cost. Intra-shard: the home arena's cached
        Dijkstra. Cross-shard: shard-local route to the source gateway,
        backhaul hops between cells, shard-local route from the target
        gateway — ``inf`` when either endpoint cannot reach its gateway
        or either shard has no live gateway."""
        sa, sb = self.home_shard(a), self.home_shard(b)
        if sa == sb:
            return self.shards[sa].multihop_cost(a, b)
        gwa, gwb = self.gateway(sa), self.gateway(sb)
        if gwa is None or gwb is None:
            return float("inf")
        ca = self.shards[sa].multihop_cost(a, gwa)
        cb = self.shards[sb].multihop_cost(gwb, b)
        return ca + self.grid.hops(sa, sb) * self.backhaul_hop_cost + cb

    def shortest_route(self, a: str, b: str) -> Optional[Tuple[str, ...]]:
        """The node sequence behind :meth:`multihop_cost`. Cross-shard
        routes stitch the shard-local legs around the gateways of every
        cell on the deterministic backhaul walk (cells without a live
        gateway contribute no relay node — the backhaul is modeled as
        infrastructure between the endpoint gateways)."""
        sa, sb = self.home_shard(a), self.home_shard(b)
        if sa == sb:
            return self.shards[sa].shortest_route(a, b)
        gwa, gwb = self.gateway(sa), self.gateway(sb)
        if gwa is None or gwb is None:
            return None
        leg_a = self.shards[sa].shortest_route(a, gwa)
        leg_b = self.shards[sb].shortest_route(gwb, b)
        if leg_a is None or leg_b is None:
            return None
        relays = [
            gw for cell in self.grid.grid_path(sa, sb)[1:-1]
            if (gw := self.gateway(cell)) is not None
        ]
        stitched: List[str] = []
        for nid in (*leg_a, *relays, *leg_b):
            if not stitched or stitched[-1] != nid:
                stitched.append(nid)
        return tuple(stitched)

    # -- maintenance ---------------------------------------------------------

    def rebuild(self) -> None:
        """Recompute edges after churn. Only the shards whose liveness
        changed since the last call are rebuilt (the common case: one
        crash → one shard); with no dirty shard — an explicit external
        call after untracked changes — every shard is rebuilt, matching
        the unsharded ``rebuild()`` semantics conservatively."""
        dirty = sorted(self._dirty) if self._dirty else range(self.n_shards)
        self._dirty.clear()
        for shard in dirty:
            self.shards[shard].rebuild()

    def advance_mobility(
        self, mobility: MobilityModel, nodes: Sequence[Node], dt: float
    ) -> None:
        """One mobility tick: advance the model, re-home nodes that
        crossed a cell boundary, then rebuild each touched shard once —
        a mover's home shard and both ends of every migration — in shard
        id order."""
        before = {node.node_id: node.position for node in nodes}
        mobility.advance(nodes, dt)
        movers_by_shard: Dict[int, List[str]] = {}
        for node in nodes:
            if node.position == before[node.node_id]:
                continue
            nid = node.node_id
            old = self._home[nid]
            new = self.grid.shard_of(*node.position)
            if new != old:
                self.shards[old].remove_node(nid)
                self.shards[new].add_node(node)
                self._home[nid] = new
                movers_by_shard.setdefault(old, [])
            movers_by_shard.setdefault(new, []).append(nid)
        for shard, movers in sorted(movers_by_shard.items()):
            self.shards[shard].update_positions(movers)
            self._dirty.discard(shard)
