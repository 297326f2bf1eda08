"""Stateful fuzzing of :class:`Topology` against a fresh build, and its
route certificate against the search.

A hypothesis ``RuleBasedStateMachine`` drives one topology of at most
16 nodes (``DiscRadio(range_m=100)``, a 300 m square) through moves,
crashes, recoveries, drain deaths, overlapping link blocks and heals,
membership round trips (a removed node re-joins at the end of the
registration order, as a shard migrant does), ``rebuild()`` and
``update_positions()``. Half the coordinates sit on a 10 m grid, so
exact range-edge distances and tied route costs come up often.

* After each step that rebuilds, the topology equals a fresh
  ``Topology`` over the same nodes with the same overlay: the arena
  (ids, index, positions, adjacency, bandwidth, loss) bit for bit, and ``neighbors``, ``khop_neighbors(·, 2)``,
  ``shortest_route`` and ``multihop_cost`` for every ordered pair.
* After a step that does not rebuild (a move, a liveness flip, a
  membership round trip), every node's ``neighbors`` tuple is what it
  was at the last rebuild: a flip takes effect at the caller's rebuild.

The machine is no oracle for the certificate, since the fresh build
runs it too: a property holds ``shortest_route`` and every certified
route to the bidirectional search on the same epoch's rows instead, and
hand-built cases pin its tie-breaks and its three-hop bound. Nor is it one for a mobility
tick's two array paths, which a fresh build or shard takes too; two
properties hold them to their scalar references:

* the geometry memo's measurement against the scalar radio, pair by
  pair (``DiscRadio`` and a radio without a distance cutoff);
* ``ShardGrid.shards_of`` against ``ShardGrid.shard_of`` on cell
  boundaries, far edges, their ``nextafter`` neighbours and points
  outside the area.

Every fuzzer here runs its tier-1 budget under the default hypothesis
profile and the loaded profile's under any other
(``--hypothesis-profile=deep``, registered in ``conftest.py``).
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, precondition, rule

from repro.network.geometry import distance, position_array
from repro.network.radio import DiscRadio, RadioModel
from repro.network.topology import Topology, _Geometry
from repro.resources.node import Node
from repro.shard.partition import ShardGrid
from tests.conftest import budget

AREA = 300.0
MAX_NODES = 16

coordinate = st.one_of(
    st.integers(0, 30).map(lambda k: 10.0 * k),
    st.floats(0.0, AREA, allow_nan=False, allow_infinity=False),
)
point = st.tuples(coordinate, coordinate)
slot = st.integers(0, MAX_NODES - 1)
slot_pairs = st.lists(st.tuples(slot, slot), min_size=1, max_size=12)


def assert_same_arena(topo: Topology, fresh: Topology) -> None:
    """The arena arrays of ``topo`` equal those of ``fresh`` bit for bit."""
    assert topo._arena_ids == fresh._arena_ids
    assert topo._index == fresh._index
    assert np.array_equal(topo.positions, fresh.positions)
    assert np.array_equal(topo._adj, fresh._adj)
    assert np.array_equal(topo._bw, fresh._bw)
    assert np.array_equal(topo._loss, fresh._loss)


def assert_answers_like_fresh(topo: Topology, radio: DiscRadio) -> None:
    """``topo`` answers every query as a fresh build of its current
    nodes and overlay does."""
    fresh = Topology(list(topo.nodes), radio)
    fresh.block_links(sorted(topo.blocked_links))
    assert_same_arena(topo, fresh)
    ids = topo.node_ids
    for a in ids:
        assert topo.neighbors(a) == fresh.neighbors(a), a
        assert topo.khop_neighbors(a, 2) == fresh.khop_neighbors(a, 2), a
        for b in ids:
            assert topo.shortest_route(a, b) == fresh.shortest_route(a, b), (a, b)
            assert topo.multihop_cost(a, b) == fresh.multihop_cost(a, b), (a, b)


class TopologyMachine(RuleBasedStateMachine):
    """One topology under churn, checked against a fresh build."""

    def __init__(self) -> None:
        super().__init__()
        self.radio = DiscRadio(range_m=100.0)
        self.nodes: List[Node] = []
        self.topo: Topology
        self.batches: List[List[Tuple[str, str]]] = []
        self.snapshot: Dict[str, Tuple[str, ...]] = {}

    # -- helpers -----------------------------------------------------------

    def _node(self, k: int) -> Node:
        return self.nodes[k % len(self.nodes)]

    def _pairs(self, slots: Sequence[Tuple[int, int]]) -> List[Tuple[str, str]]:
        pairs = []
        for i, j in slots:
            a, b = self._node(i).node_id, self._node(j).node_id
            if a != b:
                pairs.append((a, b))
        return pairs

    def _rebuilt(self, epoch_before: int) -> None:
        """Checks after a step that rebuilt the arena."""
        assert self.topo.epoch > epoch_before
        assert_answers_like_fresh(self.topo, self.radio)
        self.snapshot = {a: self.topo.neighbors(a) for a in self.topo.node_ids}

    # -- steps that rebuild ------------------------------------------------

    @initialize(points=st.lists(point, min_size=1, max_size=MAX_NODES))
    def build(self, points):
        self.nodes = [Node(f"n{i}", position=p) for i, p in enumerate(points)]
        self.topo = Topology(self.nodes, self.radio)
        self._rebuilt(-1)

    @rule()
    def rebuild(self):
        epoch = self.topo.epoch
        self.topo.rebuild()
        self._rebuilt(epoch)

    @rule(movers=st.lists(slot, max_size=4))
    def update_positions(self, movers):
        epoch = self.topo.epoch
        self.topo.update_positions([self._node(k).node_id for k in movers])
        self._rebuilt(epoch)

    @rule(slots=slot_pairs)
    def block(self, slots):
        pairs = self._pairs(slots)
        epoch = self.topo.epoch
        self.topo.block_links(pairs)
        self.batches.append(pairs)
        self._rebuilt(epoch)

    @rule(sides=st.lists(st.booleans(), min_size=MAX_NODES, max_size=MAX_NODES))
    def partition(self, sides):
        """Block every pair across a split, as a partition fault does."""
        left = [n.node_id for k, n in enumerate(self.nodes) if sides[k]]
        right = [n.node_id for k, n in enumerate(self.nodes) if not sides[k]]
        pairs = [(a, b) for a in left for b in right]
        epoch = self.topo.epoch
        self.topo.block_links(pairs)
        self.batches.append(pairs)
        self._rebuilt(epoch)

    @precondition(lambda self: self.batches)
    @rule(k=st.integers(0, 63))
    def heal(self, k):
        pairs = self.batches.pop(k % len(self.batches))
        epoch = self.topo.epoch
        self.topo.unblock_links(pairs)
        self._rebuilt(epoch)

    @rule(slots=slot_pairs)
    def unblock(self, slots):
        epoch = self.topo.epoch
        self.topo.unblock_links(self._pairs(slots))
        self._rebuilt(epoch)

    # -- steps that do not rebuild -----------------------------------------

    def _unchanged(self) -> None:
        for a in self.topo.node_ids:
            assert self.topo.neighbors(a) == self.snapshot[a], a

    @rule(k=slot, to=point)
    def move(self, k, to):
        self._node(k).move_to(*to)
        self._unchanged()

    @rule(k=slot)
    def crash(self, k):
        self._node(k).fail()
        self._unchanged()

    @rule(k=slot)
    def recover(self, k):
        self._node(k).recover()
        self._unchanged()

    @rule(k=slot)
    def drain(self, k):
        node = self._node(k)
        node.consume_energy(node.battery)
        assert not node.alive
        self._unchanged()

    @rule(k=slot)
    def migrate(self, k):
        node = self._node(k)
        self.topo.remove_node(node.node_id)
        self.topo.add_node(node)
        assert self.topo.node_ids[-1] == node.node_id
        self._unchanged()


TopologyMachine.TestCase.settings = settings(
    derandomize=True, deadline=None, max_examples=budget(60), stateful_step_count=30
)
TestTopologyMachine = TopologyMachine.TestCase


# -- the route certificate against the search --------------------------------


@settings(derandomize=True, deadline=None, max_examples=budget(100))
@given(
    points=st.lists(point, min_size=2, max_size=MAX_NODES),
    min_rate=st.sampled_from([0.0, 0.2, 1.0]),
    blocked=st.lists(st.tuples(slot, slot), max_size=12),
    crashed=st.lists(slot, max_size=4),
    rebuilt=st.booleans(),
    removed=st.lists(slot, max_size=3),
)
def test_every_route_and_every_certified_one_is_the_searchs(
    points, min_rate, blocked, crashed, rebuilt, removed
):
    """For every ordered pair, ``shortest_route`` (which answers a
    certified route of one or two hops without searching) equals the
    bidirectional search over the same epoch's rows, and so does the
    certificate wherever it answers. The radio's edge rate is drawn
    too: 1.0 makes every link cost the same, 0.0 leaves range-edge
    links at zero bandwidth. Blocked links, crashes before or after the
    last rebuild and removals without one (stale arena rows of dead or
    unregistered nodes) change the rows both read."""
    radio = DiscRadio(range_m=100.0, min_rate_fraction=min_rate)
    nodes = [Node(f"n{i}", position=p) for i, p in enumerate(points)]
    topo = Topology(nodes, radio)
    n = len(nodes)
    topo.block_links(
        [(nodes[i % n].node_id, nodes[j % n].node_id) for i, j in blocked if i % n != j % n]
    )
    for k in crashed:
        nodes[k % n].fail()
    if rebuilt:
        topo.rebuild()
    for k in sorted({k % n for k in removed}):
        topo.remove_node(nodes[k].node_id)
    ids = topo.node_ids
    for a in ids:
        for b in ids:
            if a == b:
                continue
            searched = topo._bidirectional_dijkstra(a, b)
            assert topo.shortest_route(a, b) == searched, (a, b)
            certified = topo._certified_route(a, b)
            if certified is not None:
                assert certified == searched, (a, b)


def _topology(*points: Tuple[str, Tuple[float, float]]) -> Topology:
    """A topology of the named points under ``DiscRadio(range_m=100)``,
    registered in the order given."""
    return Topology([Node(nid, position=p) for nid, p in points], DiscRadio(range_m=100.0))


@pytest.mark.parametrize(
    "far, certified, route",
    [
        # 80 m costs 1000 / (5000 * 0.52) = 0.385 < 0.2 + 0.2, the two
        # cheapest other links (each within half range).
        pytest.param(80.0, ("a", "c"), ("a", "c"), id="direct"),
        # 90 m costs 0.556: the relay's two 45 m hops (0.4) win, and no
        # walk of three hops can cost less than 0.2 + 0.2 + 0.2.
        pytest.param(90.0, ("a", "m", "c"), ("a", "m", "c"), id="relayed"),
    ],
)
def test_the_certificate_decides_on_the_two_cheapest_other_links(far, certified, route):
    topo = _topology(("a", (0.0, 0.0)), ("m", (far / 2.0, 0.0)), ("c", (far, 0.0)))
    assert topo.connected("a", "c")
    assert topo._certified_route("a", "c") == certified
    assert topo.shortest_route("a", "c") == route
    assert topo._bidirectional_dijkstra("a", "c") == route


#: Hand-built routes (each the search's answer), and what the
#: certificate answers for them: ``None`` where a route of three hops
#: is cheaper than the best relay, so it must decline.
HAND_BUILT = [
    # 81.25 m costs 1000 / (5000 * 0.5) = 0.4, exactly the relay's two
    # 40.625 m hops: a tie keeps the direct link.
    pytest.param(
        [("a", (0.0, 0.0)), ("m", (40.625, 0.0)), ("c", (81.25, 0.0))],
        ("a", "c"), ("a", "c"), id="a-tie-stays-direct",
    ),
    # Both relays cost 0.2 + 0.2: the first in arena order wins.
    pytest.param(
        [("a", (0.0, 0.0)), ("r2", (45.0, -10.0)), ("r1", (45.0, 10.0)), ("c", (90.0, 0.0))],
        ("a", "r2", "c"), ("a", "r2", "c"), id="tied-relays-in-arena-order",
    ),
    # a and c are not linked; the relay m costs 0.556 + 0.556, three
    # 60 m hops 3 * 0.238.
    pytest.param(
        [("a", (0.0, 0.0)), ("p", (60.0, 0.0)), ("m", (90.0, 0.0)), ("q", (120.0, 0.0)),
         ("c", (180.0, 0.0))],
        None, ("a", "p", "q", "c"), id="three-hops-beat-the-relay",
    ),
    # The 30 m middle hop p-q costs 0.2, less than either end's cheapest
    # link (0.238): a, p, q, c costs 0.676, the relay a, m, c 0.694.
    pytest.param(
        [("a", (0.0, 0.0)), ("p", (60.0, 0.0)), ("m", (75.0, 15.0)), ("q", (90.0, 0.0)),
         ("c", (150.0, 0.0))],
        None, ("a", "p", "q", "c"), id="a-short-middle-link-beats-the-relay",
    ),
]


@pytest.mark.parametrize("points, certified, route", HAND_BUILT)
def test_hand_built_routes(points, certified, route):
    topo = _topology(*points)
    assert topo._bidirectional_dijkstra("a", "c") == route
    assert topo._certified_route("a", "c") == certified
    assert topo.shortest_route("a", "c") == route


# -- a mobility tick's array paths against their scalar references ---------


class _StepRadio(RadioModel):
    """A radio without a distance cutoff (``matrix_distance_cutoff`` is
    ``None``): every pair is measured, through the base-class fallbacks."""

    def in_range(self, a, b):
        return distance(a, b) <= 90.0

    def bandwidth(self, a, b):
        d = distance(a, b)
        return 0.0 if d > 90.0 else 1000.0 - 7.0 * d

    def loss_probability(self, a, b):
        d = distance(a, b)
        return 1.0 if d > 90.0 else d / 123.0


RADIOS = (
    DiscRadio(range_m=100.0, nominal_bandwidth=4321.0, min_rate_fraction=0.15,
              base_loss=0.01, edge_loss=0.2),
    _StepRadio(),
)

#: Points 100 m, 90 m and 50 m apart (the disc's edge, the step radio's
#: edge and the disc's bandwidth knee), joined to every example.
ANCHORS = [(0.0, 0.0), (100.0, 0.0), (90.0, 0.0), (30.0, 40.0)]


@settings(derandomize=True, deadline=None, max_examples=budget(100))
@given(points=st.lists(point, max_size=2 * MAX_NODES), radio=st.sampled_from(RADIOS))
def test_measured_links_match_the_scalar_radio(points, radio):
    """For every ordered pair ``i != j``, the measured adjacency,
    bandwidth and loss are the scalar radio's ``in_range``,
    ``bandwidth`` and ``loss_probability`` bit for bit when the pair is
    in range, and the out-of-range constants (False, 0.0, 1.0)
    otherwise. The 10 m grid puts many more pairs on those edges."""
    points = ANCHORS + points
    ids = tuple(f"n{i}" for i in range(len(points)))
    geo = _Geometry.measure(ids, position_array(points), radio)
    for i, a in enumerate(points):
        for j, b in enumerate(points):
            if i == j:
                continue
            measured = (bool(geo.adj[i, j]), float(geo.bw[i, j]), float(geo.loss[i, j]))
            if radio.in_range(a, b):
                expected = (True, radio.bandwidth(a, b), radio.loss_probability(a, b))
            else:
                expected = (False, 0.0, 1.0)
            assert measured == expected, (i, j)


#: The deployment sides of E22's sweep (60 m per sqrt(node)).
E22_AREAS = tuple(60.0 * math.sqrt(n) for n in (512, 1024, 2048, 4096))


def _edges(cells: int, step: float, side: float) -> List[float]:
    """Every cell boundary ``k * step``, both ends of the side, and the
    ``nextafter`` neighbours of each on both sides."""
    marks = [k * step for k in range(cells + 1)] + [0.0, side]
    return sorted(
        {v for m in marks for v in (math.nextafter(m, -math.inf), m, math.nextafter(m, math.inf))}
    )


@settings(derandomize=True, deadline=None, max_examples=budget(100))
@given(
    area=st.sampled_from(E22_AREAS),
    gx=st.integers(1, 7),
    gy=st.integers(1, 7),
    spots=st.lists(st.tuples(st.floats(-0.5, 1.5), st.floats(-0.5, 1.5)), max_size=64),
)
def test_array_homing_matches_shard_of(area, gx, gy, spots):
    """``shards_of`` homes every point as ``shard_of`` does: every
    pairing of boundary marks on the two axes, and random points, up to
    half the side outside the area."""
    grid = ShardGrid(area, area, gx, gy)
    xs = _edges(gx, grid.cell_width, area)
    ys = _edges(gy, grid.cell_height, area)
    points = [(x, y) for x in xs for y in ys]
    points += [(u * area, v * area) for u, v in spots]
    homes = grid.shards_of(position_array(points)).tolist()
    assert homes == [grid.shard_of(x, y) for x, y in points]


# -- shrunk counterexamples, kept as named regressions ----------------------


def test_a_block_naming_a_node_outside_the_memo_clears_no_other_link():
    """The machine's first counterexample: n0 is dead when the partition
    isolating it arrives, so none of its blocked pairs resolves to a memo
    row; a later crash slices the memo, and a pair left unresolved must
    not wrap around to the last arena row and cut the n2–n3 link."""
    radio = DiscRadio(range_m=100.0)
    nodes = [Node(f"n{i}", position=(0.0, 0.0)) for i in range(4)]
    topo = Topology(nodes, radio)
    topo.remove_node("n0")
    topo.add_node(nodes[0])
    nodes[0].fail()
    topo.block_links([("n0", "n1"), ("n0", "n2"), ("n0", "n3")])
    nodes[1].fail()
    topo.rebuild()
    assert topo.neighbors("n2") == ("n3",)
    assert_answers_like_fresh(topo, radio)
