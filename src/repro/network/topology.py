"""Dynamic connectivity graph and neighbor discovery.

:class:`Topology` maintains the connectivity graph over the live nodes,
rebuilt from positions and the radio model. The negotiation layer asks it
two questions: *who are the requester's neighbors right now* (candidate
coalition members — the paper's "nodes in range") and *what does it cost to
talk to them* (link bandwidth → communication-cost tie-break).

The graph lives in a numpy **arena**: :meth:`Topology.rebuild` packs the
live nodes' positions into a contiguous array, computes the full
pairwise distance matrix by broadcasting
(:func:`repro.network.geometry.pairwise_distances`, bit-exact where it
matters), and evaluates the radio model's ``*_matrix`` methods over it.
Every position change, a mobility tick's :meth:`update_positions`
included, repacks the whole arena this way.
Adjacency and edge attributes (bandwidth / loss) are numpy arrays. Every
membership or connectivity change bumps an **epoch counter**, which keys
per-epoch caches for neighbor tuples, BFS orders
(:meth:`khop_neighbors`) and weighted shortest routes
(:meth:`shortest_route` / :meth:`multihop_cost`) — repeated queries
within an epoch are O(1) dictionary hits, which is what the messaging
layer's routed delivery and the organizer's comm-cost tie-breaks hit on
every CFP.

Neighbor order is the alive-list insertion order, and shortest routes
come from a bidirectional Dijkstra with fixed tie-breaking rules.
``tests/data/topology_golden.json`` records the answers of the original
graph-library implementation, and ``tests/test_topology_vector.py`` pins
the arena to them bit for bit.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import NotConnectedError, UnknownNodeError
from repro.network.geometry import pairwise_distances, position_array
from repro.network.mobility import MobilityModel
from repro.network.radio import RadioModel
from repro.resources.node import Node

#: Per-epoch cache bounds. Long mobility runs at thousands of nodes query
#: routes for an ever-changing working set; unbounded memoization would
#: grow with (epochs x pairs). Within one epoch the caches evict in FIFO
#: insertion order once full — correctness is unaffected (entries are pure
#: memoization), only the hit rate degrades past these sizes.
ROUTE_CACHE_MAX = 65536
BFS_CACHE_MAX = 1024


class Topology:
    """The network graph over a set of nodes under a radio model.

    Args:
        nodes: Participating nodes (dead nodes are excluded from edges).
        radio: Connectivity/quality model.
    """

    def __init__(self, nodes: Sequence[Node], radio: RadioModel) -> None:
        self.radio = radio
        self._nodes: Dict[str, Node] = {}
        self._epoch = 0
        # -- arena state, valid after rebuild() ---------------------------
        self.positions = np.empty((0, 2), dtype=np.float64)
        self._arena_ids: Tuple[str, ...] = ()
        self._index: Dict[str, int] = {}
        self._adj = np.zeros((0, 0), dtype=bool)
        self._bw = np.zeros((0, 0), dtype=np.float64)
        self._loss = np.zeros((0, 0), dtype=np.float64)
        self._dist: Optional[np.ndarray] = None
        # Blocked-link overlay (partition faults): normalized id pairs
        # suppressed from the adjacency on every (re)build. Empty for
        # fault-free runs, where it costs nothing.
        self._blocked: set = set()
        # -- per-epoch caches, built lazily on first query ----------------
        self._cache_epoch = -1
        self._nbrs: Dict[str, Tuple[str, ...]] = {}
        # (node ids, id -> index, int-indexed weighted adjacency)
        self._wadj: Optional[
            Tuple[List[str], Dict[str, int], List[List[Tuple[int, float]]]]
        ] = None
        self._bfs: Dict[str, List[Tuple[str, int]]] = {}
        self._routes: Dict[Tuple[str, str], Optional[Tuple[str, ...]]] = {}
        self._route_costs: Dict[Tuple[str, str], float] = {}
        for node in nodes:
            self.add_node(node)
        self.rebuild()

    # -- epochs ------------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Monotone counter bumped by every rebuild, membership change and
        node liveness flip; per-epoch caches key off it."""
        return self._epoch

    def _bump_epoch(self) -> None:
        self._epoch += 1

    def _on_liveness_change(self, node: Node) -> None:
        """A registered node's ``alive`` flag flipped. The adjacency
        arrays intentionally keep the stale edges until the next
        :meth:`rebuild` (radio links do not disappear because software
        on the peer crashed) — but cached routes and neighbor tuples are
        invalidated so nothing outlives the event."""
        self._bump_epoch()

    # -- membership ------------------------------------------------------------

    def add_node(self, node: Node) -> None:
        if node.node_id in self._nodes:
            raise ValueError(f"duplicate node id {node.node_id!r}")
        self._nodes[node.node_id] = node
        node.add_liveness_watcher(self._on_liveness_change)
        self._bump_epoch()

    def remove_node(self, node_id: str) -> None:
        if node_id not in self._nodes:
            raise UnknownNodeError(node_id)
        node = self._nodes.pop(node_id)
        node.remove_liveness_watcher(self._on_liveness_change)
        self._bump_epoch()

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

    # -- connectivity ------------------------------------------------------------

    def rebuild(self) -> None:
        """Recompute all edges from current positions and liveness.

        Packs the live nodes into the position arena and derives
        adjacency plus link-quality arrays from the broadcasted pairwise
        distance matrix — O(n²) numpy work plus O(edges) exact distance
        calls. The epoch advances and every cached neighbor/route answer
        is dropped.
        """
        self._bump_epoch()
        alive = [n for n in self._nodes.values() if n.alive]
        self._arena_ids = tuple(n.node_id for n in alive)
        self._index = {nid: i for i, nid in enumerate(self._arena_ids)}
        self.positions = position_array([n.position for n in alive])
        m = len(alive)
        if m < 2:
            self._adj = np.zeros((m, m), dtype=bool)
            self._bw = np.zeros((m, m), dtype=np.float64)
            self._loss = np.ones((m, m), dtype=np.float64)
            self._dist = None
            return
        dist = pairwise_distances(
            self.positions, exact_within=self.radio.matrix_distance_cutoff
        )
        self._dist = dist
        adj = np.asarray(self.radio.in_range_matrix(dist), dtype=bool)
        np.fill_diagonal(adj, False)
        self._adj = adj
        self._bw = np.asarray(self.radio.bandwidth_matrix(dist), dtype=np.float64)
        self._loss = np.asarray(self.radio.loss_matrix(dist), dtype=np.float64)
        if self._blocked:
            self._apply_blocked()

    def advance_mobility(
        self, mobility: MobilityModel, nodes: Sequence[Node], dt: float
    ) -> None:
        """One mobility tick: advance ``mobility`` by ``dt`` over
        ``nodes``, then :meth:`rebuild`."""
        mobility.advance(nodes, dt)
        self.rebuild()

    def update_positions(self, moved: Sequence[str]) -> None:
        """Refresh the arena after the ``moved`` nodes changed position:
        a full :meth:`rebuild`. Mobility moves nearly every node of an
        arena per tick, so no partial update is cheaper; ``moved`` names
        the movers for tracing and never changes the result."""
        self.rebuild()

    # -- blocked-link overlay (partition faults) ---------------------------

    @staticmethod
    def _normalize_pair(a: str, b: str) -> Tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    @property
    def blocked_links(self) -> frozenset:
        """The current overlay: normalized ``(a, b)`` pairs whose direct
        link is suppressed regardless of radio reachability."""
        return frozenset(self._blocked)

    def _apply_blocked(self) -> None:
        """Drop every overlaid pair from the adjacency (pairs
        naming absent/dead nodes are ignored — blocking is about links,
        not membership)."""
        self._bump_epoch()  # belt and braces: callers rebuild, but the
        # R6 invariant is per-method — every arena mutation bumps.
        index = self._index
        ii: List[int] = []
        jj: List[int] = []
        for a, b in sorted(self._blocked):
            i = index.get(a)
            j = index.get(b)
            if i is None or j is None:
                continue
            ii.append(i)
            jj.append(j)
        if ii:
            self._adj[ii, jj] = False
            self._adj[jj, ii] = False

    def block_links(self, pairs: Sequence[Tuple[str, str]]) -> None:
        """Add bidirectional link blocks and rebuild.

        The overlay survives later rebuilds (mobility, churn) until
        :meth:`unblock_links` removes it — a partition does not heal
        because somebody moved.
        """
        self._blocked.update(self._normalize_pair(a, b) for a, b in pairs)
        self.rebuild()

    def unblock_links(self, pairs: Sequence[Tuple[str, str]]) -> None:
        """Remove link blocks (healing a partition) and rebuild; links
        come back exactly as the radio model dictates, so post-heal
        routes match a never-partitioned topology bit for bit."""
        self._blocked.difference_update(
            self._normalize_pair(a, b) for a, b in pairs
        )
        self.rebuild()

    # -- lazy caches -------------------------------------------------------

    def _ensure_epoch_caches(self) -> None:
        """(Re)build the per-epoch neighbor tuples; reset BFS/route caches."""
        if self._cache_epoch == self._epoch:
            return
        self._cache_epoch = self._epoch
        self._wadj = None
        self._bfs = {}
        self._routes = {}
        self._route_costs = {}
        nbrs: Dict[str, Tuple[str, ...]] = {}
        ids = self._arena_ids
        if ids:
            present = np.fromiter(
                (nid in self._nodes for nid in ids), dtype=bool, count=len(ids)
            )
            for i, nid in enumerate(ids):
                if not present[i]:
                    continue
                js = np.nonzero(self._adj[i] & present)[0]
                nbrs[nid] = tuple(ids[j] for j in js.tolist())
        self._nbrs = nbrs

    def _routing_tables(self) -> Tuple[List[str], Dict[str, int], List[List[Tuple[int, float]]]]:
        """Per-epoch routing tables over *integer* node indices.

        ``rids``/``ridx`` map between node ids and dense indices covering
        every current node (isolated ones included); ``radj[i]`` lists
        ``(neighbor index, hop cost)`` in neighbor order with
        zero-bandwidth links excluded (such a link carries nothing, so
        it is no route). Integer keys make the Dijkstra replay several
        times faster than string-keyed dictionaries without touching its
        tie-breaking.
        """
        self._ensure_epoch_caches()
        if self._wadj is None:
            rids = list(self._nodes)
            ridx = {nid: i for i, nid in enumerate(rids)}
            nbrs = self._nbrs
            radj: List[List[Tuple[int, float]]] = []
            for nid in rids:
                links: List[Tuple[int, float]] = []
                neighbor_ids = nbrs.get(nid)
                if neighbor_ids:
                    i = self._index[nid]
                    row = self._bw[i]
                    for w in neighbor_ids:
                        bw = float(row[self._index[w]])
                        if bw > 0:
                            links.append((ridx[w], 1000.0 / bw))
                radj.append(links)
            self._wadj = (rids, ridx, radj)
        return self._wadj

    # -- direct links ------------------------------------------------------

    def neighbors(self, node_id: str) -> Tuple[str, ...]:
        """Ids of live nodes in direct radio range of ``node_id``."""
        if node_id not in self._nodes:
            raise UnknownNodeError(node_id)
        self._ensure_epoch_caches()
        return self._nbrs.get(node_id, ())

    def connected(self, a: str, b: str) -> bool:
        """Whether a direct link exists between ``a`` and ``b``."""
        if a not in self._nodes:
            raise UnknownNodeError(a)
        if b not in self._nodes:
            raise UnknownNodeError(b)
        i = self._index.get(a)
        j = self._index.get(b)
        if i is None or j is None:
            return False
        return bool(self._adj[i, j])

    def link_bandwidth(self, a: str, b: str) -> float:
        """Direct-link bandwidth in kb/s.

        Raises:
            NotConnectedError: If no direct link exists.
        """
        if not self.connected(a, b):
            raise NotConnectedError(f"no link {a!r} <-> {b!r}")
        return float(self._bw[self._index[a], self._index[b]])

    def link_loss(self, a: str, b: str) -> float:
        """Direct-link loss probability."""
        if not self.connected(a, b):
            raise NotConnectedError(f"no link {a!r} <-> {b!r}")
        return float(self._loss[self._index[a], self._index[b]])

    def edge_quality(self, a: str, b: str) -> Optional[Tuple[float, float]]:
        """``(bandwidth, loss)`` of the direct link, or ``None`` when the
        nodes are not directly linked. One membership check instead of
        three — the channel model calls this per transmitted message."""
        if not self.connected(a, b):
            return None
        i, j = self._index[a], self._index[b]
        return float(self._bw[i, j]), float(self._loss[i, j])

    def communication_cost(self, a: str, b: str) -> float:
        """Cost of talking over the direct link: inverse normalized
        bandwidth (cheap = fast link). ``a == b`` costs 0 — local
        execution needs no radio at all, matching the paper's "lowest
        communication cost" criterion favouring nearby/local execution."""
        if a == b:
            return 0.0
        bw = self.link_bandwidth(a, b)
        return 1000.0 / bw if bw > 0 else float("inf")

    # -- multi-hop ------------------------------------------------------------

    def khop_neighbors(self, node_id: str, k: int) -> Tuple[str, ...]:
        """Live nodes within ``k`` hops of ``node_id`` (excluding itself).

        ``k=1`` equals :meth:`neighbors`. Supports the relayed-CFP
        extension: the paper's broadcast is one-hop, but §1 explicitly
        keeps larger infrastructures in scope. Answered from the
        per-epoch BFS cache: the BFS discovery order is independent of
        the hop cutoff, so one cached traversal serves every ``k``.
        """
        if node_id not in self._nodes:
            raise UnknownNodeError(node_id)
        if k < 1:
            return ()
        order = self._bfs_order(node_id)
        return tuple(n for n, level in order if level <= k and n != node_id)

    def _bfs_order(self, source: str) -> List[Tuple[str, int]]:
        """Full BFS ``(node, hop level)`` discovery order from ``source``:
        level by level, neighbors in adjacency order, first discovery
        wins."""
        self._ensure_epoch_caches()
        cached = self._bfs.get(source)
        if cached is not None:
            return cached
        nbrs = self._nbrs
        seen = {source}
        order = [(source, 0)]
        nextlevel = [source]
        level = 0
        while nextlevel:
            level += 1
            thislevel = nextlevel
            nextlevel = []
            for v in thislevel:
                for w in nbrs.get(v, ()):
                    if w not in seen:
                        seen.add(w)
                        nextlevel.append(w)
                        order.append((w, level))
        if len(self._bfs) >= BFS_CACHE_MAX:
            self._bfs.pop(next(iter(self._bfs)))
        self._bfs[source] = order
        return order

    def shortest_route(self, a: str, b: str) -> Optional[Tuple[str, ...]]:
        """Minimum-communication-cost multi-hop route from ``a`` to ``b``.

        Edge weight is the per-hop communication cost (inverse normalized
        bandwidth). Returns the node sequence including both endpoints,
        or ``None`` when no path exists. ``a == b`` yields ``(a,)``.
        Memoized per ``(epoch, a, b)`` — the first query runs a
        bidirectional Dijkstra over precompiled hop costs, repeats are
        O(1).
        """
        if a not in self._nodes:
            raise UnknownNodeError(a)
        if b not in self._nodes:
            raise UnknownNodeError(b)
        if a == b:
            return (a,)
        self._ensure_epoch_caches()
        key = (a, b)
        if key in self._routes:
            return self._routes[key]
        route = self._bidirectional_dijkstra(a, b)
        if len(self._routes) >= ROUTE_CACHE_MAX:
            self._routes.pop(next(iter(self._routes)))
        self._routes[key] = route
        return route

    def _bidirectional_dijkstra(self, source: str, target: str) -> Optional[Tuple[str, ...]]:
        """Bidirectional Dijkstra over the precompiled integer-indexed
        routing adjacency. The directions alternate (forward first), heap
        ties break by insertion counter, and the first node settled in
        both directions ends the search along the best meeting path — so
        the route is well defined even when several routes tie on cost
        (common: links within half range all cost the same).
        """
        rids, ridx, radj = self._routing_tables()
        src, dst = ridx[source], ridx[target]
        n = len(rids)
        # Per-direction state lives in flat arrays of length 2n (forward
        # at offset 0, backward at offset n): byte flags + value lists
        # index faster than string-keyed dictionaries.
        dist_flag = bytearray(2 * n)
        seen_flag = bytearray(2 * n)
        seen_val = [0.0] * (2 * n)
        preds = [-1] * (2 * n)
        fringes: Tuple[List[Tuple[float, int, int]], ...] = ([], [])
        push, pop = heappush, heappop
        push(fringes[0], (0, 0, src))
        push(fringes[1], (0, 1, dst))
        seen_flag[src] = 1
        seen_flag[n + dst] = 1
        c = 2
        finaldist: Optional[float] = None
        meetnode = -1
        direction = 1
        while fringes[0] and fringes[1]:
            direction = 1 - direction
            base = direction * n
            other = n - base
            dist_v, _, v = pop(fringes[direction])
            if dist_flag[base + v]:
                continue
            dist_flag[base + v] = 1
            if dist_flag[other + v]:
                route: List[int] = []
                node = meetnode
                while node != -1:
                    route.append(node)
                    node = preds[node]
                route.reverse()
                node = preds[n + meetnode]
                while node != -1:
                    route.append(node)
                    node = preds[n + node]
                return tuple(rids[i] for i in route)
            this_fringe = fringes[direction]
            for w, cost in radj[v]:
                bw = base + w
                if dist_flag[bw]:
                    # Already finalized in this direction; non-negative
                    # weights rule out a shorter path through it.
                    continue
                vw_dist = dist_v + cost
                if not seen_flag[bw] or vw_dist < seen_val[bw]:
                    seen_flag[bw] = 1
                    seen_val[bw] = vw_dist
                    push(this_fringe, (vw_dist, c, w))
                    c += 1
                    preds[bw] = v
                    ow = other + w
                    if seen_flag[ow]:
                        total = vw_dist + seen_val[ow]
                        if finaldist is None or finaldist > total:
                            finaldist, meetnode = total, w
        return None

    def _hop_cost(self, a: str, b: str) -> float:
        """Per-hop communication cost of an existing edge, read straight
        from the cached edge data (no membership/connectivity re-checks —
        the route the caller just computed guarantees the edge exists)."""
        bw = float(self._bw[self._index[a], self._index[b]])
        return 1000.0 / bw if bw > 0 else float("inf")

    def multihop_cost(self, a: str, b: str) -> float:
        """Communication cost of the best multi-hop route (sum of per-hop
        costs); ``inf`` when unreachable, 0 for ``a == b``."""
        if a not in self._nodes:
            raise UnknownNodeError(a)
        if b not in self._nodes:
            raise UnknownNodeError(b)
        self._ensure_epoch_caches()
        cached = self._route_costs.get((a, b))
        if cached is not None:
            return cached
        route = self.shortest_route(a, b)
        if route is None:
            total = float("inf")
        else:
            total = 0.0
            for u, v in zip(route, route[1:]):
                total += self._hop_cost(u, v)
        if len(self._route_costs) >= ROUTE_CACHE_MAX:
            self._route_costs.pop(next(iter(self._route_costs)))
        self._route_costs[(a, b)] = total
        return total

    # -- analysis helpers ------------------------------------------------------

    def reachable_set(self, node_id: str) -> frozenset[str]:
        """All nodes reachable from ``node_id`` via multi-hop paths."""
        if node_id not in self._nodes:
            raise UnknownNodeError(node_id)
        return frozenset(n for n, _ in self._bfs_order(node_id))

    def component_count(self) -> int:
        """Number of connected components among live nodes."""
        self._ensure_epoch_caches()
        alive = {nid for nid, n in self._nodes.items() if n.alive}
        seen: set = set()
        components = 0
        # Seed the sweep in registration order (the count is traversal-
        # order-free, but hash-ordered set iteration is banned in the
        # simulation packages — see docs/static-analysis.md, R3).
        for nid in self._nodes:
            if nid not in alive or nid in seen:
                continue
            components += 1
            stack = [nid]
            seen.add(nid)
            while stack:
                v = stack.pop()
                for w in self._nbrs.get(v, ()):
                    if w in alive and w not in seen:
                        seen.add(w)
                        stack.append(w)
        return components

    def average_degree(self) -> float:
        """Mean neighbor count over all registered nodes (edges between
        arena rows whose node has since been removed do not count)."""
        n = len(self._nodes)
        if n == 0:
            return 0.0
        ids = self._arena_ids
        present = np.fromiter(
            (nid in self._nodes for nid in ids), dtype=bool, count=len(ids)
        )
        degree_sum = int(np.count_nonzero(self._adj & present[:, None] & present[None, :]))
        return degree_sum / n
