"""Dynamic connectivity graph and neighbor discovery.

:class:`Topology` maintains the connectivity graph over the live nodes,
rebuilt from positions and the radio model. The negotiation layer asks it
two questions: *who are the requester's neighbors right now* (candidate
coalition members — the paper's "nodes in range") and *what does it cost to
talk to them* (link bandwidth → communication-cost tie-break).

The graph lives in a numpy **arena** over the alive nodes, in
registration order: positions, and the in-range, bandwidth and loss
matrices. They are measured from the pairs a radio range could link
(:func:`repro.network.geometry.candidate_pairs`, exact ``math.hypot``
distances): the radio model's ``*_matrix`` curves run over those pairs'
distances and are scattered into matrices that hold the out-of-range
constants everywhere else. No distance matrix is kept.
:meth:`Topology.rebuild` derives the arena from a **geometry memo**, the
alive nodes and matrices of its last recompute. When every alive node
sits in the memo at a bit-equal position (a crash, a recovery, a
partition or a heal: none of them moves a node), the arena is a slice of
the memo; otherwise, after a move, a join or a leave, the memo is
measured again (a mobility tick's :meth:`Topology.update_positions`
skips the check). Every radio curve is elementwise in the distance, so
a slice equals a recompute bit for bit. The partition overlay is resolved
to memo rows once per block, heal or re-measure and cleared from the
adjacency on every rebuild.
Adjacency and edge attributes (bandwidth / loss) are numpy arrays. Every
membership or connectivity change bumps an **epoch counter**, which keys
the per-epoch caches. Each node's two **rows** are built from the arena
on first ask, once per epoch: its neighbor tuple, and its routing row
(compact arrays of the arena indices of the neighbors it reaches at
positive bandwidth and their hop costs ``1000.0 / bw``, plus the row's
two cheapest costs). The search's ``(index, cost)`` link list and the
certificate's dense cost vector over the arena are built from a row on
first use. BFS orders (:meth:`khop_neighbors`) and weighted shortest
routes (:meth:`shortest_route` / :meth:`multihop_cost`) are memoized per
epoch on top, so repeated queries within an epoch are O(1) dictionary
hits, and an epoch that asks about a few nodes builds only their rows.

Neighbor order is the alive-list insertion order, and shortest routes
come from a bidirectional Dijkstra with fixed tie-breaking rules over
the routing rows. A route of one or two hops is answered without a
search when it is **certified** (see :meth:`_certified_route`): a
direct link that costs less than the cheapest other link at one end
plus the cheapest other link at the other, or else the cheaper of the
direct link and the best relay when it costs less than any walk of
three hops can (the cheapest link at each end plus the arena's cheapest
possible hop). The certificate returns exactly what the search would,
tie-breaks included. It answers every route of e18-negotiate-128 (no
search runs on seeds 0–103 and 1001–1072), and 118 of 234 on
e23-crash-256 seeds 1–4, where the rest have three hops or more.
``tests/data/topology_golden.json`` records the answers of the original
graph-library implementation, and ``tests/test_topology_vector.py`` pins
the arena to them bit for bit; ``tests/test_topology_machine.py`` holds
the arena to a fresh build under random churn, and every certified
route to the search's answer.
"""

from __future__ import annotations

from collections import Counter
from heapq import heappop, heappush
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import NotConnectedError, UnknownNodeError
from repro.network.geometry import candidate_pairs, position_array
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

#: Relative margin by which the two-hop certificate shrinks its
#: three-hop bound: far above the rounding of a sum of a few hop costs,
#: which the search may group differently (see
#: :meth:`Topology._certified_route`).
_BOUND_MARGIN = 1e-12


class _Geometry(NamedTuple):
    """What :meth:`Topology.rebuild` measured at its last recompute: the
    ids of the alive nodes (registration order), their positions and
    the radio's in-range, bandwidth and loss matrices. A pair beyond the
    radio's :attr:`~repro.network.radio.RadioModel.matrix_distance_cutoff`,
    and the diagonal, hold the out-of-range constants (False, 0.0, 1.0).
    The arrays are read-only; the memo holds ids, never nodes."""

    ids: Tuple[str, ...]
    index: Dict[str, int]
    positions: np.ndarray
    adj: np.ndarray
    bw: np.ndarray
    loss: np.ndarray

    @classmethod
    def measure(
        cls, ids: Tuple[str, ...], positions: np.ndarray, radio: RadioModel
    ) -> "_Geometry":
        """Run the radio's curves over the candidate pairs' exact
        distances (every curve is elementwise, so a vector is a valid
        argument) and scatter each value to both ends of its pair."""
        n = len(ids)
        i, j, d = candidate_pairs(positions, radio.matrix_distance_cutoff)
        upper, lower = i * n + j, j * n + i
        adj = np.zeros(n * n, dtype=bool)
        bw = np.zeros(n * n, dtype=np.float64)
        loss = np.ones(n * n, dtype=np.float64)
        for matrix, values in (
            (adj, radio.in_range_matrix(d)),
            (bw, radio.bandwidth_matrix(d)),
            (loss, radio.loss_matrix(d)),
        ):
            matrix[upper] = values
            matrix[lower] = values
        adj, bw, loss = (matrix.reshape(n, n) for matrix in (adj, bw, loss))
        positions = positions.copy()
        for array in (positions, adj, bw, loss):
            array.flags.writeable = False
        index = {nid: i for i, nid in enumerate(ids)}
        return cls(ids, index, positions, adj, bw, loss)

    def rows_of(self, ids: Tuple[str, ...], positions: np.ndarray) -> Optional[np.ndarray]:
        """Memo rows of ``ids``, or ``None`` unless every one of them was
        measured at a bit-equal position. O(len(ids))."""
        index = self.index
        rows = [index.get(nid, -1) for nid in ids]
        if -1 in rows:
            return None
        at = np.asarray(rows, dtype=np.intp)
        if not np.array_equal(positions, self.positions[at]):
            return None
        return at

    def sliced(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(adj, bw, loss)`` over the memo rows ``rows``: each is
        ``matrix[np.ix_(rows, rows)]``, taken as one flat gather per
        matrix (about 3x faster than ``np.ix_`` at 256 nodes)."""
        m = len(rows)
        at = np.add.outer(rows * len(self.ids), rows).ravel()
        adj, bw, loss = (
            matrix.take(at).reshape(m, m) for matrix in (self.adj, self.bw, self.loss)
        )
        return adj, bw, loss


class _RouteRow:
    """One node's routing row for an epoch: the arena indices ``js`` of
    the neighbors it reaches at positive bandwidth, in neighbor order,
    their hop costs ``costs`` (both compact arrays) and the two cheapest
    costs (``inf`` where the row is shorter). A zero-bandwidth link
    carries nothing, so it is no route. The search's ``(index, cost)``
    link list and the certificate's dense cost vector are built from the
    arrays on first use."""

    __slots__ = ("js", "costs", "cheapest", "second", "_size", "_links", "_dense")

    def __init__(self, js: np.ndarray, costs: np.ndarray, size: int) -> None:
        self.js, self.costs, self._size = js, costs, size
        inf = float("inf")
        if len(costs) >= 2:
            low = np.partition(costs, 1)
            self.cheapest, self.second = float(low[0]), float(low[1])
        else:
            self.cheapest, self.second = (float(costs[0]), inf) if len(costs) else (inf, inf)
        self._links: Optional[List[Tuple[int, float]]] = None
        self._dense: Optional[np.ndarray] = None

    @property
    def links(self) -> List[Tuple[int, float]]:
        """``(arena index, hop cost)`` pairs in neighbor order."""
        if self._links is None:
            self._links = list(zip(self.js.tolist(), self.costs.tolist()))
        return self._links

    @property
    def dense(self) -> np.ndarray:
        """The hop cost to every arena index (``inf`` where the row has
        no link)."""
        if self._dense is None:
            self._dense = np.full(self._size, np.inf)
            self._dense[self.js] = self.costs
        return self._dense


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
        # Which arena rows belong to a registered node: ``None`` while
        # all do, else a mask (remove_node() keeps a node's row until
        # the next rebuild, and no query may see it).
        self._present: Optional[np.ndarray] = None
        # Geometry memo of the last recompute (see rebuild()); dropped
        # by every membership change.
        self._geometry: Optional[_Geometry] = None
        # Blocked-link overlay (partition faults): normalized id pair ->
        # number of partitions currently blocking it; every pair is
        # suppressed from the adjacency on every (re)build. Empty for
        # fault-free runs, where it costs nothing. ``_overlay`` holds it
        # resolved to memo rows, ``None`` until the next rebuild needs it.
        self._blocked: Counter = Counter()
        self._overlay: Optional[Tuple[np.ndarray, np.ndarray]] = None
        # -- per-epoch caches, built lazily on first query ----------------
        self._cache_epoch = -1
        self._nbrs: Dict[str, Tuple[str, ...]] = {}
        self._rows: List[Optional[_RouteRow]] = []  # by arena index
        self._floor: Optional[float] = None  # see _hop_floor()
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
        row = self._index.get(node.node_id)
        if row is not None and self._present is not None:
            self._present[row] = True  # re-joined before a rebuild
        self._geometry = None  # membership changed: drop the memo
        self._bump_epoch()

    def remove_node(self, node_id: str) -> None:
        if node_id not in self._nodes:
            raise UnknownNodeError(node_id)
        node = self._nodes.pop(node_id)
        node.remove_liveness_watcher(self._on_liveness_change)
        row = self._index.get(node_id)
        if row is not None:
            if self._present is None:
                self._present = np.ones(len(self._arena_ids), dtype=bool)
            self._present[row] = False
        self._geometry = None  # membership changed: drop the memo
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

        Packs the alive nodes into the arena, in registration order, and
        derives adjacency and link-quality arrays from the distances of
        the pairs in radio range. The geometry memo (the alive nodes of
        the last recompute) decides how:

        * **hit** — every alive node is in the memo at a bit-equal
          position (checked here on every call, O(alive)): the arena is
          the memo's rows and columns of those nodes, O(alive²) copying;
        * **miss** — a node moved, or one that was not alive at the last
          recompute is alive now, or membership changed since (or
          :meth:`update_positions` dropped the memo): the memo is
          measured again over the alive nodes, O(n²) numpy work plus
          O(edges) exact distance calls.

        Both give the same arrays bit for bit, since every radio curve
        is elementwise in the distance. Then every blocked pair between
        two alive nodes is cleared from the adjacency, which is never
        the memo's own array. The epoch advances and every cached
        neighbor/route answer is dropped.
        """
        self._bump_epoch()
        alive = [n for n in self._nodes.values() if n.alive]
        ids = tuple(n.node_id for n in alive)
        self._arena_ids = ids
        self._index = {nid: i for i, nid in enumerate(ids)}
        self._present = None
        self.positions = position_array([n.position for n in alive])
        m = len(alive)
        if m < 2:
            self._adj = np.zeros((m, m), dtype=bool)
            self._bw = np.zeros((m, m), dtype=np.float64)
            self._loss = np.ones((m, m), dtype=np.float64)
            return
        geo = self._geometry
        rows = None if geo is None else geo.rows_of(ids, self.positions)
        if geo is None or rows is None:
            geo = self._geometry = _Geometry.measure(ids, self.positions, self.radio)
            self._overlay = None
        elif ids == geo.ids:
            rows = None  # every memo node is alive
        if rows is None:  # the arena is the whole memo
            self._bw, self._loss = geo.bw, geo.loss
            adj = geo.adj.copy()
        else:
            adj, self._bw, self._loss = geo.sliced(rows)
        if self._blocked:
            ii, jj = self._blocked_rows(geo, rows)
            adj[ii, jj] = False
            adj[jj, ii] = False
        self._adj = adj

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
        arena per tick, so no partial update is cheaper. A mover's new
        position cannot hit the geometry memo, so a non-empty ``moved``
        drops it first and the rebuild re-measures without checking;
        ``moved`` never changes the result."""
        if moved:
            self._geometry = None
        self.rebuild()

    # -- blocked-link overlay (partition faults) ---------------------------

    @property
    def blocked_links(self) -> frozenset:
        """The current overlay: normalized ``(a, b)`` pairs whose direct
        link is suppressed regardless of radio reachability."""
        return frozenset(self._blocked)

    def _blocked_rows(
        self, geo: _Geometry, rows: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Arena index arrays of the blocked pairs between two alive
        nodes. ``rows`` maps the arena into the memo (``None``: the
        arena is the whole memo).

        The overlay is resolved to memo rows once per block, heal or
        re-measure; pairs naming a node outside the memo or outside the
        arena are ignored (blocking is about links, not membership).
        """
        if self._overlay is None:
            index = geo.index
            pairs = list(self._blocked)
            ii = np.fromiter((index.get(a, -1) for a, _ in pairs), np.intp, len(pairs))
            jj = np.fromiter((index.get(b, -1) for _, b in pairs), np.intp, len(pairs))
            keep = (ii >= 0) & (jj >= 0)
            self._overlay = (ii[keep], jj[keep])
        ii, jj = self._overlay
        if rows is None:
            return ii, jj
        arena = np.full(len(geo.ids), -1, dtype=np.intp)
        arena[rows] = np.arange(len(rows))
        ii, jj = arena[ii], arena[jj]
        keep = (ii >= 0) & (jj >= 0)
        return ii[keep], jj[keep]

    def block_links(self, pairs: Sequence[Tuple[str, str]]) -> None:
        """Add bidirectional link blocks and rebuild.

        The overlay survives later rebuilds (mobility, churn) until
        :meth:`unblock_links` removes it — a partition does not heal
        because somebody moved. Blocks are counted per pair, so a pair
        that overlapping partitions share stays blocked until every one
        of them has healed.
        """
        self._blocked.update((a, b) if a <= b else (b, a) for a, b in pairs)
        self._overlay = None
        self.rebuild()

    def unblock_links(self, pairs: Sequence[Tuple[str, str]]) -> None:
        """Remove one block per pair (healing a partition) and rebuild;
        a pair whose last block goes comes back exactly as the radio
        model dictates, so post-heal routes match a never-partitioned
        topology bit for bit. Unblocking a pair that is not blocked does
        nothing. O(pairs): each pair is decremented in place."""
        blocked = self._blocked
        for a, b in pairs:
            pair = (a, b) if a <= b else (b, a)
            count = blocked.get(pair)
            if count is None:
                continue
            if count > 1:
                blocked[pair] = count - 1
            else:
                blocked.pop(pair)
        self._overlay = None
        self.rebuild()

    # -- lazy per-epoch rows -----------------------------------------------

    def _ensure_epoch_caches(self) -> None:
        """Drop every row and memoized answer of an older epoch."""
        if self._cache_epoch == self._epoch:
            return
        self._cache_epoch = self._epoch
        self._nbrs = {}
        self._rows = [None] * len(self._arena_ids)
        self._floor = None
        self._bfs = {}
        self._routes = {}
        self._route_costs = {}

    def _neighbor_row(self, node_id: str) -> Tuple[str, ...]:
        """The neighbor tuple of a registered node this epoch, built from
        its arena row on first ask: the registered nodes its row links
        to, in arena order. A node outside the arena has none."""
        nbrs = self._nbrs.get(node_id)
        if nbrs is None:
            i = self._index.get(node_id)
            if i is None:
                nbrs = ()
            else:
                linked = self._adj[i]
                if self._present is not None:
                    linked = linked & self._present
                ids = self._arena_ids
                nbrs = tuple([ids[j] for j in linked.nonzero()[0].tolist()])
            self._nbrs[node_id] = nbrs
        return nbrs

    def _route_row(self, i: int) -> _RouteRow:
        """The routing row of arena index ``i`` this epoch, built on first
        ask. Its hop costs are the numpy quotients ``1000.0 / bw``, which
        equal the Python ones bit for bit (IEEE division is correctly
        rounded either way)."""
        row = self._rows[i]
        if row is None:
            bw = self._bw[i]
            linked = self._adj[i] & (bw > 0)
            if self._present is not None:
                linked &= self._present
            js = linked.nonzero()[0]
            row = self._rows[i] = _RouteRow(js, 1000.0 / bw[js], len(bw))
        return row

    def _hop_floor(self) -> float:
        """A lower bound on every hop cost this epoch: ``1000.0`` over
        the arena's largest bandwidth (``inf`` when no link carries
        any), computed on first ask."""
        floor = self._floor
        if floor is None:
            top = float(self._bw.max())
            floor = self._floor = 1000.0 / top if top > 0 else float("inf")
        return floor

    # -- direct links ------------------------------------------------------

    def neighbors(self, node_id: str) -> Tuple[str, ...]:
        """Ids of live nodes in direct radio range of ``node_id``."""
        if node_id not in self._nodes:
            raise UnknownNodeError(node_id)
        self._ensure_epoch_caches()
        return self._neighbor_row(node_id)

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
        row_of = self._neighbor_row
        seen = {source}
        order = [(source, 0)]
        nextlevel = [source]
        level = 0
        while nextlevel:
            level += 1
            thislevel = nextlevel
            nextlevel = []
            for v in thislevel:
                for w in row_of(v):
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
        Memoized per ``(epoch, a, b)``: the first query answers a
        certified route of one or two hops at once
        (:meth:`_certified_route`) and otherwise runs a bidirectional
        Dijkstra over the routing rows; repeats are O(1).
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
        route = self._certified_route(a, b)
        if route is None:
            route = self._bidirectional_dijkstra(a, b)
        if len(self._routes) >= ROUTE_CACHE_MAX:
            self._routes.pop(next(iter(self._routes)))
        self._routes[key] = route
        return route

    def _certified_route(self, a: str, b: str) -> Optional[Tuple[str, ...]]:
        """The route the search returns from ``a`` to ``b`` when its best
        path has at most two hops and a certificate proves it, else
        ``None`` (search instead).

        * **Direct.** The a–b link costs less than the cheapest other
          link at ``a`` plus the cheapest other link at ``b``. Any other
          route has at least two hops; its first hop leaves ``a`` and its
          last enters ``b`` over other links (or it runs over the direct
          link and costs at least as much). Hop costs are symmetric,
          since every radio matrix is elementwise in the symmetric
          distance, and IEEE addition of non-negative costs is monotone,
          so every other route's computed cost is at least the computed
          sum of those two minima, above the link's cost.
        * **Two hops.** ``one`` is the direct cost (``inf`` without a
          link at positive bandwidth); ``two`` is the cheapest relay sum
          ``cost(b, k) + cost(a, k)`` over the arena, taken at its first
          argmin ``k``. A walk of three or more hops costs at least
          ``bound``: its first hop is one of ``a``'s links, its last one
          of ``b``'s, and a middle hop costs at least
          :meth:`_hop_floor`. The bound is shrunk by a relative margin
          far above rounding, because the search groups its sums
          differently. When ``min(one, two) < bound`` the answer is the
          relay if ``two < one``, else the direct link.

        Why the search agrees: after its first two pops it has settled
        ``a`` and ``b``, seen every link of ``a`` and relaxed every link
        of ``b``. Its meet is then ``b`` at ``one``, or the first common
        neighbor in ``b``'s row order (arena order) at ``two``, whichever
        is strictly lower; a tie keeps ``b``. Every later meet total is
        either a walk of three or more hops, at least ``bound`` and so
        above the meet, or a path of one or two hops already counted.
        The meet, and the predecessors it is reconstructed from, move
        only on a strict improvement, which needs a walk of three or
        more hops at or below the meet total, so none comes.
        """
        self._ensure_epoch_caches()
        i, j = self._index.get(a), self._index.get(b)
        if i is None or j is None:
            return None
        adj = self._adj
        one = float("inf")
        if adj[i, j]:
            bw = float(self._bw[i, j])
            if bw > 0:
                one = 1000.0 / bw
        elif not (adj[i] & adj[j]).any():
            return None  # no link and no common neighbor: three hops or more
        at_a, at_b = self._route_row(i), self._route_row(j)
        other_a = at_a.second if one == at_a.cheapest else at_a.cheapest
        other_b = at_b.second if one == at_b.cheapest else at_b.cheapest
        if one < other_a + other_b:
            return (a, b)
        via = at_b.dense + at_a.dense
        k = int(via.argmin())
        two = float(via[k])
        bound = at_a.cheapest + self._hop_floor() + at_b.cheapest
        if min(one, two) < bound * (1.0 - _BOUND_MARGIN):
            return (a, self._arena_ids[k], b) if two < one else (a, b)
        return None

    def _bidirectional_dijkstra(self, source: str, target: str) -> Optional[Tuple[str, ...]]:
        """Bidirectional Dijkstra over the routing rows, by arena index.
        The directions alternate (forward first), heap ties break by
        insertion counter, and the first node settled in both directions
        ends the search along the best meeting path — so the route is
        well defined even when several routes tie on cost (common: links
        within half range all cost the same). A node outside the arena
        has no route.
        """
        self._ensure_epoch_caches()
        src, dst = self._index.get(source), self._index.get(target)
        if src is None or dst is None:
            return None
        ids = self._arena_ids
        rows, row_of = self._rows, self._route_row
        n = len(ids)
        # Per-direction state (forward, backward) by arena index: settled
        # flags, the best tentative distance seen (None: not yet) and
        # predecessors. Flat lists index faster than dictionaries.
        settled = (bytearray(n), bytearray(n))
        seen: Tuple[List[Optional[float]], ...] = ([None] * n, [None] * n)
        preds = ([-1] * n, [-1] * n)
        fringes: Tuple[List[Tuple[float, int, int]], ...] = ([(0, 0, src)], [(0, 1, dst)])
        seen[0][src] = 0.0
        seen[1][dst] = 0.0
        push, pop = heappush, heappop
        c = 2
        finaldist: Optional[float] = None
        meetnode = -1
        direction = 1
        while fringes[0] and fringes[1]:
            direction = 1 - direction
            done = settled[direction]
            dist_v, _, v = pop(fringes[direction])
            if done[v]:
                continue
            done[v] = 1
            if settled[1 - direction][v]:
                forward, backward = preds
                route: List[int] = []
                node = meetnode
                while node != -1:
                    route.append(node)
                    node = forward[node]
                route.reverse()
                node = backward[meetnode]
                while node != -1:
                    route.append(node)
                    node = backward[node]
                return tuple(ids[i] for i in route)
            fringe, dist, pred = fringes[direction], seen[direction], preds[direction]
            other_dist = seen[1 - direction]
            for w, cost in (rows[v] or row_of(v)).links:
                if done[w]:
                    # Already finalized in this direction; non-negative
                    # weights rule out a shorter path through it.
                    continue
                vw_dist = dist_v + cost
                known = dist[w]
                if known is None or vw_dist < known:
                    dist[w] = vw_dist
                    push(fringe, (vw_dist, c, w))
                    c += 1
                    pred[w] = v
                    meet = other_dist[w]
                    if meet is not None:
                        total = vw_dist + meet
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
                for w in self._neighbor_row(v):
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
        present = self._present
        adj = self._adj if present is None else self._adj & present[:, None] & present[None, :]
        return int(np.count_nonzero(adj)) / n
