"""Dynamic connectivity graph and neighbor discovery.

:class:`Topology` maintains the connectivity graph over the live nodes,
rebuilt from positions and the radio model. The negotiation layer asks it
two questions: *who are the requester's neighbors right now* (candidate
coalition members — the paper's "nodes in range") and *what does it cost to
talk to them* (link bandwidth → communication-cost tie-break).

The graph lives in a numpy **arena**, which is the **geometry memo**:
the nodes alive at its last measurement, in registration order, their
positions, and the in-range, bandwidth and loss matrices. They are
measured from the pairs a radio range could link
(:func:`repro.network.geometry.candidate_pairs`, exact ``math.hypot``
distances): the radio model's ``*_matrix`` curves run over those pairs'
distances and are scattered into matrices that hold the out-of-range
constants everywhere else. No distance matrix is kept.
:meth:`Topology.rebuild` sets a **liveness mask** over the memo rows.
When every alive node sits in the memo at a bit-equal position (a
crash, a recovery, a partition or a heal: none of them moves a node),
the memo stays and only the mask changes, so no matrix is copied;
otherwise, after a move, a join or a leave, the memo is measured again
over the alive nodes (a mobility tick's
:meth:`Topology.update_positions` skips the check). Every radio curve
is elementwise in the distance, so the live rows of a memo equal a
fresh measurement bit for bit. A partition is a **cut** between two
groups of ids, resolved to a side per memo row once per cut change or
re-measure: building a row clears the columns on the far side of every
active cut that holds the row, and the link queries test cuts only
while one is active.
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
three hops can (the cheapest link at each end plus the memo's cheapest
possible hop). The certificate returns exactly what the search would,
tie-breaks included. It answers every route of e18-negotiate-128 (no
search runs on seeds 0–103 and 1001–1072). A route between the two
sides of a cut whose groups hold every live row is answered ``None``
without either (:meth:`Topology._severed`): e23-crash-256's partition
is such a cut, and it severs every route the search used to explore a
whole component for.
``tests/data/topology_golden.json`` records the answers of the original
graph-library implementation, and ``tests/test_topology_vector.py`` pins
the arena to them bit for bit; ``tests/test_topology_machine.py`` holds
the arena to a fresh build under random churn, and every certified
route to the search's answer.
"""

from __future__ import annotations

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

#: A cut between two groups of node ids: each group sorted without
#: repeats, and the two groups in sorted order, so that equal cuts
#: compare equal however they were named.
Cut = Tuple[Tuple[str, ...], Tuple[str, ...]]


def _cut(group_a: Sequence[str], group_b: Sequence[str]) -> Cut:
    """The cut between ``group_a`` and ``group_b``.

    Raises:
        ValueError: If the groups overlap.
    """
    a, b = tuple(sorted(set(group_a))), tuple(sorted(set(group_b)))
    overlap = set(a).intersection(b)
    if overlap:
        raise ValueError(f"cut groups overlap: {sorted(overlap)}")
    return (a, b) if a <= b else (b, a)


class _Geometry(NamedTuple):
    """What :meth:`Topology.rebuild` measured at its last recompute, and
    the topology's arena until the next one: the ids of the alive nodes
    (registration order), their positions and the radio's in-range,
    bandwidth and loss matrices. A pair beyond the
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
        # -- arena state, valid after rebuild(): the memo's read-only
        # arrays, its ids by row, and the rows of the ids live at the
        # last rebuild (a dead node has no index) ---------------------
        self.positions = np.empty((0, 2), dtype=np.float64)
        self._arena_ids: Tuple[str, ...] = ()
        self._index: Dict[str, int] = {}
        self._adj = np.zeros((0, 0), dtype=bool)
        self._bw = np.zeros((0, 0), dtype=np.float64)
        self._loss = np.zeros((0, 0), dtype=np.float64)
        # Which arena rows no query may see past: ``None`` while every
        # row is live, else a mask that is False for the rows of nodes
        # dead at the last rebuild and of nodes removed since
        # (remove_node() keeps a node's row until the next rebuild).
        self._live: Optional[np.ndarray] = None
        # Geometry memo of the last recompute (see rebuild()); dropped
        # by every membership change. Its hop floor (see _hop_floor())
        # is computed on first ask.
        self._geometry: Optional[_Geometry] = None
        self._floor: Optional[float] = None
        # Active cuts (partition faults), duplicates allowed: a link is
        # blocked while any of them separates its ends. ``_sides`` holds
        # each resolved to the arena, as an int8 side per row (0 outside
        # both groups, 1 the first, 2 the second) and the same as a
        # list; ``None`` until the next rebuild resolves it. Empty for
        # fault-free runs, where it costs nothing.
        self._cuts: List[Cut] = []
        self._sides: Optional[List[Tuple[np.ndarray, List[int]]]] = None
        # -- per-epoch caches, built lazily on first query ----------------
        self._cache_epoch = -1
        self._nbrs: Dict[str, Tuple[str, ...]] = {}
        self._rows: List[Optional[_RouteRow]] = []  # by arena index
        self._covering: Optional[List[List[int]]] = None  # see _severed()
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
        if row is not None and self._live is not None:
            self._live[row] = True  # re-joined before a rebuild
        self._geometry = None  # membership changed: drop the memo
        self._bump_epoch()

    def remove_node(self, node_id: str) -> None:
        if node_id not in self._nodes:
            raise UnknownNodeError(node_id)
        node = self._nodes.pop(node_id)
        node.remove_liveness_watcher(self._on_liveness_change)
        row = self._index.get(node_id)
        if row is not None:
            if self._live is None:
                self._live = np.ones(len(self._arena_ids), dtype=bool)
            self._live[row] = False
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

        The arena is the geometry memo: the nodes alive at its last
        measurement, in registration order, with their positions and
        the adjacency and link-quality matrices of the pairs in radio
        range. Every call checks the memo against the alive nodes,
        O(alive):

        * **hit** — every alive node is in the memo at a bit-equal
          position: the memo stays, and a liveness mask over its rows
          marks the alive ones (``None`` when all are). No matrix is
          copied;
        * **miss** — a node moved, or one that was not alive at the last
          measurement is alive now, or membership changed since (or
          :meth:`update_positions` dropped the memo): the memo is
          measured again over the alive nodes, O(n²) numpy work plus
          O(edges) exact distance calls, and every row is live.

        Both answer alike bit for bit, since every radio curve is
        elementwise in the distance. The active cuts are resolved to
        the arena after a cut change or a re-measure. The epoch advances
        and every cached neighbor/route answer is dropped.
        """
        self._bump_epoch()
        alive = [n for n in self._nodes.values() if n.alive]
        ids = tuple(n.node_id for n in alive)
        positions = position_array([n.position for n in alive])
        geo = self._geometry
        rows = None if geo is None else geo.rows_of(ids, positions)
        if geo is None or rows is None:
            geo = self._geometry = _Geometry.measure(ids, positions, self.radio)
            self._floor = None
            self._sides = None
        self._arena_ids = geo.ids
        self.positions, self._adj, self._bw, self._loss = geo.positions, geo.adj, geo.bw, geo.loss
        if rows is None or len(rows) == len(geo.ids):
            self._index, self._live = geo.index, None
        else:
            self._index = dict(zip(ids, rows.tolist()))
            live = np.zeros(len(geo.ids), dtype=bool)
            live[rows] = True
            self._live = live
        if self._sides is None:
            self._sides = [self._resolve(cut, geo.index) for cut in self._cuts]

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

    # -- cuts (partition faults) --------------------------------------------

    @property
    def cuts(self) -> Tuple[Cut, ...]:
        """The active cuts in the order they were added, a repeated cut
        once per addition."""
        return tuple(self._cuts)

    @staticmethod
    def _resolve(cut: Cut, index: Dict[str, int]) -> Tuple[np.ndarray, List[int]]:
        """The side of every arena row in ``cut`` (0 in neither group,
        1 in the first, 2 in the second), as an array and a list. An id
        outside the arena blocks nothing."""
        side = np.zeros(len(index), dtype=np.int8)
        for label, group in enumerate(cut, start=1):
            side[[index[nid] for nid in group if nid in index]] = label
        return side, side.tolist()

    def block_links(self, group_a: Sequence[str], group_b: Sequence[str]) -> None:
        """Add a cut and rebuild: every direct link between a node of
        ``group_a`` and a node of ``group_b`` is blocked, both ways,
        regardless of radio reachability.

        The cut survives later rebuilds (mobility, churn) until
        :meth:`unblock_links` removes it — a partition does not heal
        because somebody moved. Cuts are kept as a list, so a link that
        overlapping or repeated partitions share stays blocked until
        every one of them has healed.

        Raises:
            ValueError: If the groups overlap.
        """
        self._cuts.append(_cut(group_a, group_b))
        self._sides = None
        self.rebuild()

    def unblock_links(self, group_a: Sequence[str], group_b: Sequence[str]) -> None:
        """Remove one cut equal to the one between ``group_a`` and
        ``group_b`` (healing a partition) and rebuild; a link no other
        cut separates comes back exactly as the radio model dictates, so
        post-heal routes match a never-partitioned topology bit for bit.
        Healing a cut that is not active does nothing.

        Raises:
            ValueError: If the groups overlap.
        """
        cut = _cut(group_a, group_b)
        if cut in self._cuts:
            self._cuts.remove(cut)
            self._sides = None
        self.rebuild()

    # -- lazy per-epoch rows -----------------------------------------------

    def _ensure_epoch_caches(self) -> None:
        """Drop every row and memoized answer of an older epoch."""
        if self._cache_epoch == self._epoch:
            return
        self._cache_epoch = self._epoch
        self._nbrs = {}
        self._rows = [None] * len(self._arena_ids)
        self._covering = None
        self._bfs = {}
        self._routes = {}
        self._route_costs = {}

    def _neighbor_row(self, node_id: str) -> Tuple[str, ...]:
        """The neighbor tuple of a registered node this epoch, built from
        its arena row on first ask: the live rows its row links to, in
        arena order. A node without an arena index has none."""
        nbrs = self._nbrs.get(node_id)
        if nbrs is None:
            i = self._index.get(node_id)
            if i is None:
                nbrs = ()
            else:
                linked = self._open(i, self._adj[i])
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
            js = self._open(i, self._adj[i] & (bw > 0)).nonzero()[0]
            row = self._rows[i] = _RouteRow(js, 1000.0 / bw[js], len(bw))
        return row

    def _open(self, i: int, linked: np.ndarray) -> np.ndarray:
        """``linked``, a boolean row of arena index ``i``, without the
        rows that are not live and the columns an active cut separates
        from ``i``. Never written in place: it may be the memo's row."""
        if self._live is not None:
            linked = linked & self._live
        for side, labels in self._sides or ():
            here = labels[i]
            if here:
                linked = linked & (side != 3 - here)
        return linked

    def _uncut(self, i: int, j: int) -> bool:
        """Whether no active cut separates arena indices ``i`` and ``j``
        (sides 1 and 2 are the only pair that sums to 3). Asked only
        while a cut is active."""
        return all(labels[i] + labels[j] != 3 for _, labels in self._sides)

    def _hop_floor(self) -> float:
        """A lower bound on every hop cost while the memo stands:
        ``1000.0`` over its largest bandwidth, dead rows and cut links
        included (``inf`` when no link carries any), computed on first
        ask."""
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
        if self._sides:
            return bool(self._adj[i, j]) and self._uncut(i, j)
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
        Memoized per ``(epoch, a, b)``: the first query answers ``None``
        at once across a covering cut (:meth:`_severed`), a certified
        route of one or two hops at once (:meth:`_certified_route`), and
        otherwise runs a bidirectional Dijkstra over the routing rows;
        repeats are O(1).
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
        if self._sides and self._severed(a, b):
            route = None
        else:
            route = self._certified_route(a, b)
            if route is None:
                route = self._bidirectional_dijkstra(a, b)
        if len(self._routes) >= ROUTE_CACHE_MAX:
            self._routes.pop(next(iter(self._routes)))
        self._routes[key] = route
        return route

    def _severed(self, a: str, b: str) -> bool:
        """Whether an active cut whose two groups hold every live row
        puts ``a`` and ``b`` on opposite sides. Then no route joins
        them: every path between them has a hop with an end in each
        group, and the cut blocks that link. Whether a cut covers the
        live rows is one mask reduction per cut per epoch; a cut that
        leaves a live row outside both groups proves nothing."""
        i, j = self._index.get(a), self._index.get(b)
        if i is None or j is None:
            return False
        covering = self._covering
        if covering is None:
            covering = self._covering = []
            for side, labels in self._sides:
                outside = side == 0
                if self._live is not None:
                    outside &= self._live
                if not outside.any():
                    covering.append(labels)
        return any(labels[i] + labels[j] == 3 for labels in covering)

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
        if adj[i, j] and (not self._sides or self._uncut(i, j)):
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
        within half range all cost the same). A node without an arena
        index has no route.
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
        """Mean neighbor count over all registered nodes: links between
        live rows that no active cut blocks (a row whose node has since
        been removed does not count)."""
        n = len(self._nodes)
        if n == 0:
            return 0.0
        self._ensure_epoch_caches()
        return sum(len(self._neighbor_row(nid)) for nid in self._nodes) / n
