"""Vectorized topology arena: equivalence, epochs, cache invalidation.

Four families of guarantees are pinned here:

* **radio matrices** — the vectorized ``*_matrix`` methods agree
  *elementwise, bit for bit* with the scalar curves on random placements
  (both the broadcasting `DiscRadio` overrides and the generic
  scalar-fallback base implementations);
* **recorded answers** — :class:`Topology` answers every query exactly
  as ``tests/data/topology_golden.json`` recorded from the original
  graph-library implementation on random placements, mobility rebuilds,
  dead nodes and E19's 128-node group placement: neighbor order, link
  qualities, shortest routes (including tie-rich dense clusters), route
  costs, k-hop orders and the analysis helpers;
* **epochs** — neighbor/route caches refresh after ``add_node``,
  ``remove_node``, node death and ``rebuild()``, and the epoch counter
  observes liveness flips the moment they happen;
* **the geometry memo** — rebuilds after a crash, recovery, partition
  or heal keep the memo's own arrays as the arena and mask its rows,
  and the three cases where it must miss (a move before the rebuild,
  the recovery of a node it lacks, a membership round trip)
  re-measure; each answers like a fresh build.

The vectorized mobility fast paths are pinned seed-identical against
reference replays of the original scalar walks, and the engine's O(1)
``pending`` counter against its heap.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.errors import NotConnectedError, UnknownNodeError
from repro.network.geometry import candidate_pairs, clamp_to_area, distance, lerp
from repro.network.mobility import GroupMobility, RandomWaypoint
from repro.network.radio import DiscRadio, RadioModel
from repro.network.topology import Topology
from repro.resources.node import Node
from repro.sim.engine import Engine
from tests.conftest import assert_same_live_rows

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "topology_golden.json").read_text()
)


def _random_nodes(n, area, rng, prefix="n"):
    return [
        Node(f"{prefix}{i}", position=(rng.uniform(0, area), rng.uniform(0, area)))
        for i in range(n)
    ]


def _exact_distances(pts):
    """The ``n x n`` matrix of exact scalar distances between ``pts``."""
    return np.array([[distance(a, b) for b in pts] for a in pts])


def _fleet(n, area, seed):
    """The fixture's fleets: ``n`` nodes placed uniformly by ``seed``."""
    rng = np.random.default_rng(seed)
    placements = [(rng.uniform(0, area), rng.uniform(0, area)) for _ in range(n)]
    return [Node(f"n{i}", position=p) for i, p in enumerate(placements)]


# -- radio matrices (property: vectorized == scalar, elementwise) -----------


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_disc_radio_matrices_match_scalar_elementwise(seed):
    rng = np.random.default_rng(seed)
    n = 40
    pts = [(rng.uniform(0, 250), rng.uniform(0, 250)) for _ in range(n)]
    radio = DiscRadio(range_m=100.0, nominal_bandwidth=4321.0,
                      min_rate_fraction=0.15, base_loss=0.01, edge_loss=0.2)
    dist = _exact_distances(pts)
    in_r = radio.in_range_matrix(dist)
    bw = radio.bandwidth_matrix(dist)
    loss = radio.loss_matrix(dist)
    for i in range(n):
        for j in range(n):
            assert bool(in_r[i, j]) == radio.in_range(pts[i], pts[j])
            if in_r[i, j]:
                # Exact distances inside the cutoff: values must be
                # bit-identical to the scalar curves.
                assert float(bw[i, j]) == radio.bandwidth(pts[i], pts[j])
                assert float(loss[i, j]) == radio.loss_probability(pts[i], pts[j])
            else:
                assert float(bw[i, j]) == 0.0
                assert float(loss[i, j]) == 1.0


class _StepRadio(RadioModel):
    """A distance-based model relying on the base-class matrix fallbacks."""

    def in_range(self, a, b):
        return distance(a, b) <= 90.0

    def bandwidth(self, a, b):
        d = distance(a, b)
        return 0.0 if d > 90.0 else 1000.0 - 7.0 * d

    def loss_probability(self, a, b):
        d = distance(a, b)
        return 1.0 if d > 90.0 else d / 123.0


def test_base_class_matrix_fallbacks_match_scalar():
    rng = np.random.default_rng(9)
    pts = [(rng.uniform(0, 200), rng.uniform(0, 200)) for _ in range(12)]
    radio = _StepRadio()
    assert radio.matrix_distance_cutoff is None  # exact everywhere
    dist = _exact_distances(pts)
    in_r = radio.in_range_matrix(dist)
    bw = radio.bandwidth_matrix(dist)
    loss = radio.loss_matrix(dist)
    for i in range(12):
        for j in range(12):
            assert bool(in_r[i, j]) == radio.in_range(pts[i], pts[j])
            assert float(bw[i, j]) == radio.bandwidth(pts[i], pts[j])
            assert float(loss[i, j]) == radio.loss_probability(pts[i], pts[j])


def test_candidate_pairs_exact_within_threshold():
    """Every pair at exact distance <= 100 is a candidate exactly once,
    as ``i < j``, carrying ``math.hypot``'s value; without a cutoff every
    pair is, in row-major order."""
    rng = np.random.default_rng(17)
    pts = [(rng.uniform(0, 300), rng.uniform(0, 300)) for _ in range(60)]
    pts += [(0.0, 0.0), (100.0, 0.0), (60.0, 80.0)]  # exactly 100 m apart
    n = len(pts)
    ii, jj, d = candidate_pairs(np.asarray(pts), 100.0)
    found = list(zip(ii.tolist(), jj.tolist()))
    assert len(found) == len(set(found))
    assert all(i < j for i, j in found)
    for (i, j), value in zip(found, d.tolist()):
        assert value == distance(pts[i], pts[j])
    within = {
        (i, j) for i in range(n) for j in range(i + 1, n)
        if distance(pts[i], pts[j]) <= 100.0
    }
    assert (n - 3, n - 2) in within and (n - 3, n - 1) in within
    assert within <= set(found)
    ii, jj, d = candidate_pairs(np.asarray(pts), None)
    assert list(zip(ii.tolist(), jj.tolist())) == [
        (i, j) for i in range(n) for j in range(i + 1, n)
    ]
    assert d.tolist() == [distance(pts[i], pts[j]) for i, j in zip(ii.tolist(), jj.tolist())]


# -- recorded answers: tests/data/topology_golden.json -----------------------


def _check_against_golden(topo, ids, rec):
    """Every query the fixture recorded, answered identically.

    Nodes are indices into ``ids``. ``khop6`` is each node's 6-hop order
    and ``khop_prefix`` the lengths of its 1-, 2- and 3-hop prefixes;
    ``bandwidth``/``loss`` hold one value per neighbor with a larger
    index, since links are undirected. Mobility snapshots record
    neighbors and routes only.
    """
    def names(seq):
        return tuple(ids[j] for j in seq)

    for i, a in enumerate(ids):
        assert topo.neighbors(a) == names(rec["neighbors"][i]), a
        if "khop6" in rec:
            order = names(rec["khop6"][i])
            assert topo.khop_neighbors(a, 6) == order
            for k, length in zip((1, 2, 3), rec["khop_prefix"][i]):
                assert topo.khop_neighbors(a, k) == order[:length]
            assert topo.reachable_set(a) == frozenset(names(rec["reachable"][i]))
            ups = [b for b in topo.neighbors(a) if ids.index(b) > i]
            for b, bw, loss in zip(ups, rec["bandwidth"][i], rec["loss"][i], strict=True):
                for u, v in ((a, b), (b, a)):
                    assert topo.link_bandwidth(u, v) == bw
                    assert topo.link_loss(u, v) == loss
                    assert topo.edge_quality(u, v) == (bw, loss)
        for j, b in enumerate(ids):
            route = rec["routes"][i][j]
            assert topo.shortest_route(a, b) == (None if route is None else names(route))
            if "costs" in rec:
                assert topo.multihop_cost(a, b) == rec["costs"][i][j]
            if b not in topo.neighbors(a):
                assert not topo.connected(a, b)
                assert topo.edge_quality(a, b) is None
                with pytest.raises(NotConnectedError):
                    topo.link_bandwidth(a, b)
    assert topo.component_count() == rec["component_count"]
    assert topo.average_degree() == rec["average_degree"]


@pytest.mark.parametrize("area,seed", [
    (100.0, 1),   # dense: one big clique-ish component, many cost ties
    (250.0, 2),   # mixed
    (420.0, 3),   # sparse multi-hop
    (800.0, 4),   # mostly disconnected
])
def test_vector_matches_legacy_on_random_placements(area, seed):
    (rec,) = [
        r for r in GOLDEN["placements"] if (r["area"], r["seed"]) == (area, seed)
    ]
    nodes = _fleet(rec["n"], area, seed)
    topo = Topology(nodes, DiscRadio(range_m=GOLDEN["radio_range"]))
    _check_against_golden(topo, [n.node_id for n in nodes], rec)


def test_vector_matches_legacy_after_mobility_rebuilds():
    spec = GOLDEN["mobility"]
    nodes = _fleet(spec["n"], spec["area"], spec["seed"])
    topo = Topology(nodes, DiscRadio(range_m=GOLDEN["radio_range"]))
    move_rng = np.random.default_rng(spec["move_seed"])
    for rec in spec["rebuilds"]:
        for node in nodes:
            node.move_to(move_rng.uniform(0, spec["area"]), move_rng.uniform(0, spec["area"]))
        topo.rebuild()
        _check_against_golden(topo, [n.node_id for n in nodes], rec)


def test_vector_matches_legacy_with_dead_nodes():
    rec = GOLDEN["dead_nodes"]
    nodes = _fleet(rec["n"], rec["area"], rec["seed"])
    topo = Topology(nodes, DiscRadio(range_m=GOLDEN["radio_range"]))
    for idx in rec["dead"]:
        nodes[idx].fail()
    topo.rebuild()
    _check_against_golden(topo, [n.node_id for n in nodes], rec)


def test_group_128_maintenance_matches_legacy():
    """E19's ``group-128`` placement: one mobility tick's topology work
    (a rebuild, the two-hop audience of ``n0``, three rounds of route
    costs to it) sums to the recorded value bit for bit."""
    rec = GOLDEN["group_128"]
    rng = np.random.default_rng(rec["seed"])
    nodes = []
    for i in range(rec["n"]):
        angle = rng.uniform(0, 2 * np.pi)
        radius = rng.uniform(0, rec["spread"])
        nodes.append(Node(
            f"n{i}",
            position=(340.0 + radius * np.cos(angle), 340.0 + radius * np.sin(angle)),
        ))
    topo = Topology(nodes, DiscRadio(range_m=GOLDEN["radio_range"]))
    topo.rebuild()
    audience = topo.khop_neighbors("n0", 2)
    assert audience == tuple(f"n{j}" for j in rec["audience"])
    assert [topo.multihop_cost("n0", nid) for nid in audience] == rec["costs"]
    acc = 0.0
    for _ in range(3):
        for nid in audience:
            acc += topo.multihop_cost("n0", nid)
    assert acc == rec["maintenance_sum"]
    assert topo.component_count() == rec["component_count"]
    assert topo.average_degree() == rec["average_degree"]


# -- epochs and cache invalidation -------------------------------------------


def _line_topology():
    nodes = [
        Node("a", position=(0, 0)),
        Node("b", position=(50, 0)),
        Node("c", position=(120, 0)),
    ]
    return Topology(nodes, DiscRadio(range_m=80.0)), nodes


def test_epoch_advances_on_rebuild_membership_and_liveness():
    topo, nodes = _line_topology()
    e0 = topo.epoch
    topo.rebuild()
    assert topo.epoch > e0
    e1 = topo.epoch
    topo.add_node(Node("d", position=(10, 0)))
    assert topo.epoch > e1
    e2 = topo.epoch
    topo.remove_node("d")
    assert topo.epoch > e2
    e3 = topo.epoch
    nodes[1].fail()           # liveness flip observed without a rebuild
    assert topo.epoch > e3
    e4 = topo.epoch
    nodes[1].fail()           # no flip -> no bump
    assert topo.epoch == e4
    nodes[1].recover()
    assert topo.epoch > e4


def test_route_cache_refreshes_after_rebuild():
    topo, nodes = _line_topology()
    assert topo.shortest_route("a", "c") == ("a", "b", "c")
    cost_before = topo.multihop_cost("a", "c")
    assert cost_before < float("inf")
    # Prime the caches, then move the relay out of range.
    nodes[1].move_to(500, 0)
    topo.rebuild()
    assert topo.shortest_route("a", "c") is None
    assert topo.multihop_cost("a", "c") == float("inf")
    assert topo.neighbors("a") == ()


def test_neighbor_and_route_caches_refresh_after_add_node():
    topo, _ = _line_topology()
    assert topo.neighbors("a") == ("b",)
    topo.add_node(Node("relay", position=(60, 40)))
    assert topo.neighbors("relay") == ()   # no edges until rebuild
    topo.rebuild()
    assert "relay" in topo.neighbors("a")
    assert topo.shortest_route("relay", "c") is not None


def test_caches_refresh_after_remove_node_without_rebuild():
    topo, _ = _line_topology()
    assert topo.shortest_route("a", "c") == ("a", "b", "c")
    assert topo.khop_neighbors("a", 2) == ("b", "c")
    topo.remove_node("b")          # edges vanish with the node, no rebuild
    assert topo.neighbors("a") == ()
    assert topo.shortest_route("a", "c") is None
    assert topo.khop_neighbors("a", 2) == ()
    assert topo.average_degree() == 0.0
    with pytest.raises(UnknownNodeError):
        topo.connected("a", "b")


def test_caches_refresh_after_node_death():
    topo, nodes = _line_topology()
    assert topo.khop_neighbors("a", 2) == ("b", "c")  # prime BFS cache
    assert topo.shortest_route("a", "c") == ("a", "b", "c")
    nodes[1].fail()
    # Pre-rebuild the radio links persist (crashing software does not
    # remove a link budget).
    assert topo.connected("a", "b")
    topo.rebuild()
    assert topo.neighbors("a") == ()
    assert topo.khop_neighbors("a", 2) == ()
    assert topo.shortest_route("a", "c") is None


def test_death_and_recovery_roundtrip_routes():
    topo, nodes = _line_topology()
    route = topo.shortest_route("a", "c")
    nodes[1].fail()
    topo.rebuild()
    assert topo.shortest_route("a", "c") is None
    nodes[1].recover()
    topo.rebuild()
    assert topo.shortest_route("a", "c") == route


def test_liveness_watcher_detached_on_remove():
    topo, nodes = _line_topology()
    topo.remove_node("b")
    epoch = topo.epoch
    nodes[1].fail()            # no longer registered: no bump
    assert topo.epoch == epoch


def test_a_fleet_that_outlives_its_topologies_holds_only_the_live_watcher():
    nodes = [Node(f"n{i}", position=(10.0 * i, 0.0)) for i in range(32)]
    radio = DiscRadio(range_m=25.0)
    for _ in range(200):
        topo = Topology(nodes, radio)
        del topo  # freed by reference counting: its watchers fall silent
    topo = Topology(nodes, radio)
    assert all(len(node._liveness_watchers) == 1 for node in nodes)
    epoch = topo.epoch
    nodes[3].fail()
    assert topo.epoch == epoch + 1


# -- the geometry memo: hits equal a fresh build, and so do the misses -------


def _assert_like_fresh(topo, radio):
    """Live arena rows and answers equal a fresh build of the same nodes
    and cuts."""
    fresh = Topology(list(topo.nodes), radio)
    for cut in topo.cuts:
        fresh.block_links(*cut)
    assert_same_live_rows(topo, fresh)
    for a in topo.node_ids:
        assert topo.neighbors(a) == fresh.neighbors(a)
        for b in topo.node_ids:
            assert topo.shortest_route(a, b) == fresh.shortest_route(a, b)
            assert topo.multihop_cost(a, b) == fresh.multihop_cost(a, b)


def _memo_fleet():
    radio = DiscRadio(range_m=GOLDEN["radio_range"])
    nodes = _fleet(24, 250.0, 7)
    return Topology(nodes, radio), nodes, radio


def test_memo_hits_through_crash_partition_recovery_and_heal():
    """None of these moves a node, so every rebuild keeps the memo of
    the first one: the arena's arrays are the memo's own, no copy, and
    it still answers like a fresh build."""
    topo, nodes, radio = _memo_fleet()
    memo = topo._geometry
    assert memo is not None

    def check():
        assert topo._geometry is memo
        for name, field in (("positions", "positions"), ("_adj", "adj"), ("_bw", "bw"),
                            ("_loss", "loss")):
            assert getattr(topo, name) is getattr(memo, field), name
        _assert_like_fresh(topo, radio)

    cut = ([n.node_id for n in nodes[:12]], [n.node_id for n in nodes[12:]])
    nodes[4].fail()
    topo.rebuild()
    check()
    topo.block_links(*cut)
    check()
    nodes[17].fail()
    topo.rebuild()
    check()
    nodes[4].recover()
    topo.rebuild()
    check()
    topo.unblock_links(*cut)
    check()
    assert topo.cuts == ()


def test_memo_misses_when_a_node_moved_before_a_crash_rebuild():
    topo, nodes, radio = _memo_fleet()
    memo = topo._geometry
    nodes[5].move_to(12.0, 240.0)  # no rebuild: the arena keeps the old spot
    nodes[9].fail()
    topo.rebuild()
    assert topo._geometry is not memo
    assert "n9" not in topo._index
    assert topo.positions[topo._index["n5"]].tolist() == [12.0, 240.0]
    _assert_like_fresh(topo, radio)


def test_memo_misses_when_a_node_dead_at_the_last_recompute_recovers():
    radio = DiscRadio(range_m=GOLDEN["radio_range"])
    nodes = _fleet(24, 250.0, 7)
    nodes[3].fail()
    topo = Topology(nodes, radio)
    memo = topo._geometry
    assert "n3" not in memo.ids
    nodes[3].recover()
    topo.rebuild()
    assert topo._geometry is not memo
    assert topo._arena_ids[topo._index["n3"]] == "n3"
    _assert_like_fresh(topo, radio)


def test_memo_misses_after_remove_node_then_add_node_of_the_same_id():
    topo, nodes, radio = _memo_fleet()
    topo.block_links(["n6"], ["n7", "n2"])
    topo.remove_node("n6")
    assert topo._geometry is None
    topo.add_node(nodes[6])
    topo.rebuild()
    assert topo._index["n6"] == len(topo._arena_ids) - 1
    assert topo._geometry.ids == topo._arena_ids
    _assert_like_fresh(topo, radio)


def test_dropped_topology_is_freed_while_its_nodes_live():
    """Nodes hold their topology's liveness watcher weakly, so the
    topology is freed by reference counting alone (no cycle through its
    nodes), and a later liveness flip on a surviving node is a no-op."""
    import gc
    import weakref

    topo, nodes = _line_topology()
    shortest = topo.shortest_route("a", "c")  # fill the per-epoch caches
    assert shortest == ("a", "b", "c")
    ref = weakref.ref(topo)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        del topo
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()
    nodes[1].fail()
    nodes[1].recover()
    assert nodes[1].alive


# -- mobility: vectorized fast paths are seed-identical ----------------------


def _reference_waypoint_advance(model, nodes, dt):
    """The original (pre-vectorization) scalar walk, verbatim."""
    if model.speed_max <= 0.0:
        return
    for node in nodes:
        state = model._state.get(node.node_id)
        if state is None:
            state = model._new_leg(node)
        remaining = dt
        dest, speed, pausing = state
        pos = node.position
        while remaining > 1e-12:
            if pausing > 0.0:
                wait = min(pausing, remaining)
                pausing -= wait
                remaining -= wait
                if pausing == 0.0:
                    dest, speed, _ = model._new_leg(node)
                continue
            gap = distance(pos, dest)
            travel_time = gap / speed if speed > 0 else float("inf")
            if travel_time <= remaining:
                pos = dest
                remaining -= travel_time
                pausing = model.pause
                if pausing == 0.0:
                    dest, speed, _ = model._new_leg(node)
            else:
                pos = lerp(pos, dest, (speed * remaining) / gap)
                remaining = 0.0
        node.move_to(*clamp_to_area(pos, model.width, model.height))
        model._state[node.node_id] = (dest, speed, pausing)


@pytest.mark.parametrize("pause,dt", [(0.0, 1.0), (0.5, 1.0), (2.0, 0.25), (0.0, 7.5)])
def test_random_waypoint_vectorized_trace_identical(pause, dt):
    fleets = []
    models = []
    for _ in range(2):
        rng = np.random.default_rng(42)
        nodes = [Node(f"n{i}") for i in range(25)]
        model = RandomWaypoint(300, 300, speed_min=0.5, speed_max=6.0,
                               pause=pause, rng=rng)
        model.place(nodes)
        fleets.append(nodes)
        models.append(model)
    for step in range(60):
        models[0].advance(fleets[0], dt)                      # vectorized
        _reference_waypoint_advance(models[1], fleets[1], dt)  # scalar replay
        for a, b in zip(fleets[0], fleets[1]):
            assert a.position == b.position, (step, a.node_id)
        assert models[0]._state == models[1]._state, step


def test_group_mobility_vectorized_trace_identical():
    fleets = []
    models = []
    for _ in range(2):
        leader = RandomWaypoint(200, 200, 1.0, 3.0, 0.0, np.random.default_rng(5))
        model = GroupMobility(leader, spread=15.0, rng=np.random.default_rng(6))
        nodes = [Node(f"n{i}") for i in range(17)]
        model.place(nodes)
        fleets.append(nodes)
        models.append(model)

    def reference_scatter(model, nodes):
        cx, cy = model._leader.position
        for node in nodes:
            angle = float(model.rng.uniform(0, 2 * np.pi))
            radius = float(model.rng.uniform(0, model.spread))
            node.move_to(
                *clamp_to_area(
                    (cx + radius * np.cos(angle), cy + radius * np.sin(angle)),
                    model.leader_model.width,
                    model.leader_model.height,
                )
            )

    for step in range(40):
        models[0].leader_model.advance([models[0]._leader], 1.0)
        models[0]._scatter(fleets[0])                          # vectorized
        models[1].leader_model.advance([models[1]._leader], 1.0)
        reference_scatter(models[1], fleets[1])                # scalar replay
        for a, b in zip(fleets[0], fleets[1]):
            assert a.position == b.position, (step, a.node_id)


# -- engine: O(1) pending counter --------------------------------------------


def test_pending_counter_tracks_push_cancel_pop():
    eng = Engine()
    handles = [eng.schedule(float(i + 1), lambda now: None) for i in range(5)]
    assert eng.pending == 5
    assert handles[2].cancel() is True
    assert eng.pending == 4
    assert handles[2].cancel() is False     # double-cancel: no double count
    assert eng.pending == 4
    eng.step()
    assert eng.pending == 3
    eng.run()
    assert eng.pending == 0


def test_cancel_after_fire_is_noop():
    eng = Engine()
    handle = eng.schedule(1.0, lambda now: None)
    eng.run()
    assert eng.pending == 0
    assert handle.cancel() is False          # already fired
    assert eng.pending == 0                  # and the counter is untouched


def test_pending_counter_with_nested_scheduling_and_stop():
    eng = Engine()

    def first(now):
        eng.schedule(1.0, lambda t: None)
        eng.schedule(2.0, lambda t: None)
        eng.stop()

    eng.schedule(1.0, first)
    eng.schedule(5.0, lambda now: None)
    eng.run()
    assert eng.pending == 3                  # two nested + the 5.0 event
    eng.run()
    assert eng.pending == 0


def test_pending_matches_heap_scan_under_random_workload():
    rng = np.random.default_rng(3)
    eng = Engine()
    handles = []
    for _ in range(300):
        op = rng.integers(0, 3)
        if op == 0 or not handles:
            handles.append(eng.schedule(float(rng.uniform(0, 10)), lambda now: None))
        elif op == 1:
            handles[int(rng.integers(0, len(handles)))].cancel()
        else:
            for _ in range(int(rng.integers(1, 4))):
                eng.step()
        scan = sum(1 for e in eng._heap if not e.cancelled)
        assert eng.pending == scan
