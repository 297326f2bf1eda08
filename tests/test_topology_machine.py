"""Stateful fuzzing of :class:`Topology` against a fresh build, and its
route certificate against the search.

A hypothesis ``RuleBasedStateMachine`` drives one topology of at most
16 nodes (``DiscRadio(range_m=100)``, a 300 m square) through moves,
crashes, recoveries, drain deaths, cuts and heals, membership round
trips (a removed node re-joins at the end of the registration order, as
a shard migrant does), ``rebuild()`` and ``update_positions()``. A cut
splits the fleet at random, often leaving nodes in neither group;
cuts overlap, repeat, and heal in any order, and healing a cut that
was never blocked is a no-op. Half the coordinates sit on a 10 m grid,
so exact range-edge distances and tied route costs come up often.

* After each step that rebuilds, the topology equals a fresh
  ``Topology`` over the same nodes with the same cuts: the live arena
  rows (ids, positions, adjacency, bandwidth, loss) bit for bit, and
  ``neighbors``, ``khop_neighbors(·, 2)``, ``shortest_route`` and
  ``multihop_cost`` for every ordered pair.
* After a step that does not rebuild (a move, a liveness flip, a
  membership round trip), every node's ``neighbors`` tuple is what it
  was at the last rebuild: a flip takes effect at the caller's rebuild.

The machine is no oracle for the answers that skip the search, since
the fresh build skips it too. Two properties hold them to the
bidirectional search on the same epoch's rows instead: every route and
every route the two-hop certificate answers, and every answer across a
cut whose groups hold every live row (``None`` without a search).
Hand-built cases pin the certificate's tie-breaks and three-hop bound,
and the cover test's two edges. Nor is the machine an oracle for a
mobility tick's two array paths, which a fresh build or shard takes
too; two properties hold them to their scalar references:

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

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, precondition, rule

from repro.network.geometry import distance, position_array
from repro.network.radio import DiscRadio, RadioModel
from repro.network.topology import Topology, _cut, _Geometry
from repro.resources.node import Node
from repro.shard.partition import ShardGrid
from tests.conftest import assert_same_live_rows, budget

AREA = 300.0
MAX_NODES = 16

coordinate = st.one_of(
    st.integers(0, 30).map(lambda k: 10.0 * k),
    st.floats(0.0, AREA, allow_nan=False, allow_infinity=False),
)
point = st.tuples(coordinate, coordinate)
slot = st.integers(0, MAX_NODES - 1)
#: A side per fleet slot: 1 and 2 are a cut's two groups, 0 neither.
sides = st.lists(st.integers(0, 2), min_size=MAX_NODES, max_size=MAX_NODES)


def split(nodes: Sequence[Node], drawn: Sequence[int]) -> Tuple[List[str], List[str]]:
    """The two groups of a cut that puts ``nodes[k]`` on side
    ``drawn[k]``."""
    groups: Tuple[List[str], List[str]] = ([], [])
    for node, side in zip(nodes, drawn):
        if side:
            groups[side - 1].append(node.node_id)
    return groups


def assert_answers_like_fresh(topo: Topology, radio: DiscRadio) -> None:
    """``topo`` answers every query as a fresh build of its current
    nodes and cuts does."""
    fresh = Topology(list(topo.nodes), radio)
    for cut in topo.cuts:
        fresh.block_links(*cut)
    assert_same_live_rows(topo, fresh)
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
        self.blocked: List[Tuple[List[str], List[str]]] = []
        self.snapshot: Dict[str, Tuple[str, ...]] = {}

    # -- helpers -----------------------------------------------------------

    def _node(self, k: int) -> Node:
        return self.nodes[k % len(self.nodes)]

    def _rebuilt(self, epoch_before: int) -> None:
        """Checks after a step that rebuilt the arena."""
        assert self.topo.epoch > epoch_before
        assert sorted(self.topo.cuts) == sorted(_cut(*groups) for groups in self.blocked)
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

    @rule(drawn=sides)
    def block(self, drawn):
        """Cut a random split of the fleet, as a partition fault does."""
        groups = split(self.nodes, drawn)
        epoch = self.topo.epoch
        self.topo.block_links(*groups)
        self.blocked.append(groups)
        self._rebuilt(epoch)

    @precondition(lambda self: self.blocked)
    @rule(k=st.integers(0, 63))
    def block_again(self, k):
        """Repeat an active cut, naming its groups the other way round:
        it then takes two heals."""
        group_a, group_b = self.blocked[k % len(self.blocked)]
        epoch = self.topo.epoch
        self.topo.block_links(group_b, group_a)
        self.blocked.append((group_a, group_b))
        self._rebuilt(epoch)

    @precondition(lambda self: self.blocked)
    @rule(k=st.integers(0, 63))
    def heal(self, k):
        groups = self.blocked.pop(k % len(self.blocked))
        epoch = self.topo.epoch
        self.topo.unblock_links(*groups)
        self._rebuilt(epoch)

    @rule(drawn=sides)
    def unblock(self, drawn):
        """Heal a cut that was never blocked: nothing changes."""
        groups = split(self.nodes, drawn)
        assume(_cut(*groups) not in self.topo.cuts)
        cuts = self.topo.cuts
        epoch = self.topo.epoch
        self.topo.unblock_links(*groups)
        assert self.topo.cuts == cuts
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
    cuts=st.lists(sides, max_size=2),
    crashed=st.lists(slot, max_size=4),
    rebuilt=st.booleans(),
    removed=st.lists(slot, max_size=3),
)
def test_every_route_and_every_certified_one_is_the_searchs(
    points, min_rate, cuts, crashed, rebuilt, removed
):
    """For every ordered pair, ``shortest_route`` (which answers a
    certified route of one or two hops without searching) equals the
    bidirectional search over the same epoch's rows, and so does the
    certificate wherever it answers. The radio's edge rate is drawn
    too: 1.0 makes every link cost the same, 0.0 leaves range-edge
    links at zero bandwidth. Cuts, crashes before or after the last
    rebuild and removals without one (masked arena rows of dead or
    unregistered nodes) change the rows both read."""
    radio = DiscRadio(range_m=100.0, min_rate_fraction=min_rate)
    nodes = [Node(f"n{i}", position=p) for i, p in enumerate(points)]
    topo = Topology(nodes, radio)
    n = len(nodes)
    for drawn in cuts:
        topo.block_links(*split(nodes, drawn))
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


@settings(derandomize=True, deadline=None, max_examples=budget(100))
@given(
    points=st.lists(point, min_size=2, max_size=MAX_NODES),
    cuts=st.lists(st.tuples(st.booleans(), sides), min_size=1, max_size=2),
    before=st.lists(slot, max_size=4),
    after=st.lists(slot, max_size=4),
)
def test_an_answer_across_a_covering_cut_is_the_searchs(points, cuts, before, after):
    """For every ordered pair, ``shortest_route`` (which answers
    ``None`` without searching across a cut whose groups hold every
    live row) equals the bidirectional search over the same epoch's
    rows. A cut drawn as covering puts every node alive at its rebuild
    in a group and may leave out only the nodes crashed before it; any
    other cut may leave out any node. Crashes after the last rebuild
    leave their rows live until the next one."""
    nodes = [Node(f"n{i}", position=p) for i, p in enumerate(points)]
    topo = Topology(nodes, DiscRadio(range_m=100.0))
    n = len(nodes)
    for k in before:
        nodes[k % n].fail()
    for covering, drawn in cuts:
        if covering:
            drawn = [side or int(node.alive) for node, side in zip(nodes, drawn)]
        topo.block_links(*split(nodes, drawn))
    for k in after:
        nodes[k % n].fail()
    ids = topo.node_ids
    for a in ids:
        for b in ids:
            if a != b:
                searched = topo._bidirectional_dijkstra(a, b)
                assert topo.shortest_route(a, b) == searched, (a, b)


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


#: Hand-built cuts, and the route ``shortest_route`` answers from a to
#: b under them without a search.
HAND_BUILT_CUTS = [
    # The cut {a}/{b} leaves the relay r in neither group, so it proves
    # nothing: the certificate finds r.
    pytest.param(
        [("a", (0.0, 0.0)), ("r", (60.0, 0.0)), ("b", (120.0, 0.0))],
        (), (["a"], ["b"]), ("a", "r", "b"), id="a-relay-outside-both-groups-still-routes",
    ),
    # d, in range of a and b, is dead at the last rebuild: outside both
    # groups, it leaves the cover of the live rows whole. Without the
    # cover the certificate would decline, and the search would run.
    pytest.param(
        [("a", (0.0, 0.0)), ("r", (60.0, 0.0)), ("b", (120.0, 0.0)), ("d", (60.0, 10.0))],
        ("d",), (["a", "r"], ["b"]), None, id="a-dead-node-outside-the-groups-keeps-the-cover",
    ),
]


@pytest.mark.parametrize("points, dead, cut, route", HAND_BUILT_CUTS)
def test_hand_built_cuts(points, dead, cut, route, monkeypatch):
    topo = _topology(*points)
    for nid in dead:
        topo.node(nid).fail()
    topo.block_links(*cut)
    searches = []
    search = Topology._bidirectional_dijkstra

    def counted_search(self, a, b):
        searches.append((a, b))
        return search(self, a, b)

    monkeypatch.setattr(Topology, "_bidirectional_dijkstra", counted_search)
    assert topo.shortest_route("a", "b") == route
    assert searches == []
    assert topo._bidirectional_dijkstra("a", "b") == route


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
    """The machine's first counterexample: n0 is dead when the cut
    isolating it arrives, so its group resolves to no memo row; a later
    crash masks another row, and the id left unresolved must not wrap
    around to the last arena row and cut the n2–n3 link."""
    radio = DiscRadio(range_m=100.0)
    nodes = [Node(f"n{i}", position=(0.0, 0.0)) for i in range(4)]
    topo = Topology(nodes, radio)
    topo.remove_node("n0")
    topo.add_node(nodes[0])
    nodes[0].fail()
    topo.block_links(["n0"], ["n1", "n2", "n3"])
    nodes[1].fail()
    topo.rebuild()
    assert topo.neighbors("n2") == ("n3",)
    assert_answers_like_fresh(topo, radio)
