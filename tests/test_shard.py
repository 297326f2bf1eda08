"""The repro.shard subsystem: partitioning, gateways, mobility ticks,
fleet tables, and the shard-vs-unsharded bit-identity pin.

The headline contract: on a 1 × 1 grid (which :meth:`ShardGrid.auto`
produces for every historical scenario scale) the sharded runner is
**bit-identical** to :func:`repro.workloads.run_contention` — same
sessions, same metrics, without churn (E15) and under churn (E20). Everything else here exercises what sharding adds: gateway
election and cross-shard routing, cell migration under mobility (every
shard a tick touches must equal a fresh ``Topology`` over its members),
``Topology.update_positions``, the per-epoch cache caps, and the fleet
tables.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.network.topology as topology_mod
from repro.errors import NotConnectedError, UnknownNodeError
from repro.network.mobility import RandomWaypoint
from repro.network.radio import DiscRadio
from repro.network.topology import Topology
from repro.resources.node import Node
from repro.shard import (
    ShardedCluster,
    ShardGrid,
    fleet_from_tables,
    fleet_tables,
    run_sharded_contention,
)
from repro.sim.rng import RngRegistry
from repro.sim.sequences import reset_all_sequences
from repro.workloads.contention import run_contention
from repro.workloads.fleet import contention_fleet
from repro.workloads.registry import get_scenario


# ==========================================================================
# ShardGrid: cell arithmetic and backhaul paths
# ==========================================================================


class TestShardGrid:
    def test_auto_is_single_cell_at_historical_scales(self):
        # contention-mix / streaming-mix geometry: area ~ one radio range.
        grid = ShardGrid.auto(130.0, 110.0, 20)
        assert (grid.gx, grid.gy) == (1, 1)
        # Even a big fleet in a tiny area stays unsharded (cells must be
        # at least one radio range wide).
        assert ShardGrid.auto(150.0, 100.0, 4096).n_shards == 1

    def test_auto_tracks_occupancy_at_scale(self):
        assert ShardGrid.auto(60.0 * np.sqrt(512), 100.0, 512).n_shards == 4
        assert ShardGrid.auto(60.0 * np.sqrt(4096), 100.0, 4096).n_shards == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardGrid(width=0.0, height=100.0, gx=1, gy=1)
        with pytest.raises(ValueError):
            ShardGrid(width=100.0, height=100.0, gx=0, gy=1)

    def test_cell_arithmetic_round_trip(self):
        grid = ShardGrid(width=200.0, height=100.0, gx=4, gy=2)
        for shard in range(grid.n_shards):
            cx, cy = grid.cell_index(shard)
            assert grid.shard_of(*grid.cell_center(shard)) == shard
            assert (cx, cy) == grid.cell_index(shard)
        # Positions on/beyond the boundary clamp into the grid.
        assert grid.cell_of(-5.0, -5.0) == (0, 0)
        assert grid.cell_of(200.0, 100.0) == (3, 1)
        with pytest.raises(IndexError):
            grid.cell_index(grid.n_shards)

    def test_hops_and_grid_path(self):
        grid = ShardGrid(width=300.0, height=300.0, gx=3, gy=3)
        a = grid.shard_of(10.0, 10.0)       # cell (0, 0)
        b = grid.shard_of(290.0, 290.0)     # cell (2, 2)
        assert grid.hops(a, a) == 0
        assert grid.hops(a, b) == 4
        # x-first L-shaped walk: (0,0) -> (1,0) -> (2,0) -> (2,1) -> (2,2)
        assert grid.grid_path(a, b) == (0, 1, 2, 5, 8)
        assert grid.grid_path(b, a) == (8, 7, 6, 3, 0)
        # Every consecutive pair on the walk is a mesh edge.
        path = grid.grid_path(a, b)
        for u, v in zip(path, path[1:]):
            assert v in grid.neighbors_of(u)

    def test_neighbors_of_corner_and_center(self):
        grid = ShardGrid(width=300.0, height=300.0, gx=3, gy=3)
        assert set(grid.neighbors_of(0)) == {1, 3}
        assert set(grid.neighbors_of(4)) == {1, 3, 5, 7}


# ==========================================================================
# Bit-identity: 1-shard == unsharded (E15 / E20 scenarios, 16–64 nodes)
# ==========================================================================


def _identity_configs():
    streaming = get_scenario("streaming-mix").config
    # Mobility ticks reach both clusters through the same SessionDriver,
    # via each topology's advance_mobility.
    waypoint = streaming.replace(
        sessions=streaming.sessions.replace(mobility="waypoint", mobility_speed=4.0)
    )
    for label, base in (
        ("contention-mix", get_scenario("contention-mix").config),
        ("streaming-mix", streaming),
        ("streaming-mix-waypoint", waypoint),
    ):
        cfg = base.replace(horizon=120.0)
        yield f"{label}-{cfg.n_nodes}n", cfg
        yield f"{label}-64n", cfg.replace(n_nodes=64)


@pytest.mark.parametrize(
    "label, config", list(_identity_configs()), ids=lambda v: v if isinstance(v, str) else ""
)
def test_sharded_bit_identical_to_unsharded(label, config):
    """ShardGrid.auto is 1 x 1 at these scales, and the sharded runner
    consumes the RNG streams exactly like the unsharded one — so the
    session lists and metric dicts must match bit for bit, without
    churn (contention-mix) and under churn (streaming-mix), static or
    under waypoint mobility."""
    assert ShardGrid.auto(config.area, config.radio_range, config.n_nodes).n_shards == 1
    for seed in (1, 2, 3):
        reset_all_sequences()
        plain = run_contention(seed, config)
        reset_all_sequences()
        sharded = run_sharded_contention(seed, config)
        assert plain.sessions == sharded.sessions, (label, seed)
        assert plain.metrics() == sharded.metrics(), (label, seed)


def test_sharded_run_with_tables_bit_identical():
    """Precomputed fleet tables change who derives the fleet, never the
    result."""
    config = get_scenario("streaming-mix").config.replace(horizon=120.0)
    reset_all_sequences()
    live = run_sharded_contention(5, config)
    reset_all_sequences()
    tabled = run_sharded_contention(5, config, tables=fleet_tables(5, config))
    assert live.sessions == tabled.sessions


# ==========================================================================
# Single-cell grid
# ==========================================================================


class TestSingleCellGrid:
    def test_1x1_grid_is_one_shard(self):
        nodes = [
            Node(f"n{i}", position=(25.0 + 50.0 * i, 50.0)) for i in range(4)
        ]
        one = ShardGrid(width=200.0, height=100.0, gx=1, gy=1)
        cluster = ShardedCluster(nodes, DiscRadio(range_m=100.0), one)
        assert cluster.n_shards == 1
        assert {cluster.home_shard(n.node_id) for n in nodes} == {0}
        two = ShardGrid(width=200.0, height=100.0, gx=2, gy=1)
        assert ShardedCluster(nodes, DiscRadio(range_m=100.0), two).n_shards == 2


# ==========================================================================
# Gateways and cross-shard routing
# ==========================================================================


def _two_cell_cluster():
    """Two 100 x 100 cells side by side; each holds a far node and a
    near-center gateway candidate, all within radio range intra-cell."""
    nodes = [
        Node("a", position=(10.0, 50.0)),
        Node("g0", position=(45.0, 50.0)),
        Node("b", position=(190.0, 50.0)),
        Node("g1", position=(155.0, 50.0)),
    ]
    grid = ShardGrid(width=200.0, height=100.0, gx=2, gy=1)
    cluster = ShardedCluster(nodes, DiscRadio(range_m=100.0), grid)
    return cluster, {n.node_id: n for n in nodes}


class TestGatewayRouting:
    def test_election_nearest_to_cell_center(self):
        cluster, _ = _two_cell_cluster()
        assert cluster.gateway(0) == "g0"
        assert cluster.gateway(1) == "g1"

    def test_election_tie_breaks_by_node_id(self):
        nodes = [
            Node("z", position=(40.0, 50.0)),
            Node("q", position=(60.0, 50.0)),  # same distance to (50, 50)
        ]
        grid = ShardGrid(width=100.0, height=100.0, gx=1, gy=1)
        cluster = ShardedCluster(nodes, DiscRadio(range_m=100.0), grid)
        assert cluster.gateway(0) == "q"

    def test_cross_shard_has_no_direct_link(self):
        cluster, _ = _two_cell_cluster()
        assert not cluster.connected("a", "b")
        assert cluster.edge_quality("a", "b") is None
        for query in (
            cluster.communication_cost,
            cluster.link_bandwidth,
            cluster.link_loss,
        ):
            with pytest.raises(NotConnectedError):
                query("a", "b")
        # Intra-shard stays on the arena fast path.
        assert cluster.connected("a", "g0")
        assert cluster.communication_cost("a", "g0") < float("inf")

    def test_cross_shard_cost_decomposes(self):
        cluster, _ = _two_cell_cluster()
        leg_a = cluster.shards[0].multihop_cost("a", "g0")
        leg_b = cluster.shards[1].multihop_cost("g1", "b")
        backhaul = cluster.grid.hops(0, 1) * cluster.backhaul_hop_cost
        assert cluster.multihop_cost("a", "b") == leg_a + backhaul + leg_b
        # The default backhaul hop is priced like a best-case radio hop.
        assert cluster.backhaul_hop_cost == pytest.approx(
            1000.0 / DiscRadio().nominal_bandwidth
        )

    def test_cross_shard_route_stitches_gateways(self):
        cluster, _ = _two_cell_cluster()
        assert cluster.shortest_route("a", "b") == ("a", "g0", "g1", "b")
        # A gateway endpoint appears once, not twice.
        assert cluster.shortest_route("g0", "b") == ("g0", "g1", "b")

    def test_dead_gateway_reelected(self):
        cluster, nodes = _two_cell_cluster()
        assert cluster.gateway(0) == "g0"
        nodes["g0"].fail()
        cluster.rebuild()  # the driver's post-churn rebuild
        assert cluster.gateway(0) == "a"
        assert cluster.shortest_route("a", "b") == ("a", "g1", "b")

    def test_shard_without_live_nodes_is_unreachable(self):
        cluster, nodes = _two_cell_cluster()
        nodes["a"].fail()
        nodes["g0"].fail()
        cluster.rebuild()
        assert cluster.gateway(0) is None
        assert cluster.multihop_cost("b", "a") == float("inf")
        assert cluster.shortest_route("b", "a") is None

    def test_liveness_churn_marks_only_home_shard_dirty(self):
        cluster, nodes = _two_cell_cluster()
        nodes["g1"].fail()
        assert cluster._dirty == {1}
        epochs = [shard.epoch for shard in cluster.shards]
        cluster.rebuild()
        assert cluster._dirty == set()
        # Only the victim's shard was rebuilt.
        assert cluster.shards[0].epoch == epochs[0]
        assert cluster.shards[1].epoch > epochs[1]

    def test_unknown_node_raises(self):
        cluster, _ = _two_cell_cluster()
        with pytest.raises(UnknownNodeError):
            cluster.home_shard("ghost")
        with pytest.raises(UnknownNodeError):
            cluster.node("ghost")


# ==========================================================================
# Mobility: migration across cells and per-shard rebuilds
# ==========================================================================


def _assert_same_arena(topo, fresh):
    assert topo._arena_ids == fresh._arena_ids
    assert np.array_equal(topo._adj, fresh._adj)
    assert np.array_equal(topo._bw, fresh._bw, equal_nan=True)
    assert np.array_equal(topo._loss, fresh._loss, equal_nan=True)


class _ScriptedMobility:
    """Deterministic mobility stub: apply a fixed dict of moves once."""

    def __init__(self, moves):
        self.moves = dict(moves)

    def advance(self, nodes, dt):
        for node in nodes:
            if node.node_id in self.moves:
                node.move_to(*self.moves.pop(node.node_id))


class TestAdvanceMobility:
    def test_migration_re_homes_across_the_boundary(self):
        cluster, nodes = _two_cell_cluster()
        all_nodes = list(nodes.values())
        assert cluster.home_shard("g0") == 0
        mobility = _ScriptedMobility({"g0": (120.0, 50.0)})
        cluster.advance_mobility(mobility, all_nodes, 1.0)
        assert cluster.home_shard("g0") == 1
        assert "g0" in cluster.shards[1].node_ids
        assert "g0" not in cluster.shards[0].node_ids
        # Facade queries stay consistent mid-simulation: the migrant now
        # negotiates in its new cell and is cross-shard from its old one.
        assert "b" in cluster.shards[1].neighbors("g0")
        assert not cluster.connected("a", "g0")
        # Gateways re-elect from the post-migration membership.
        assert cluster.gateway(0) == "a"
        assert cluster.gateway(1) == "g1"
        # The shard g0 left holds no mover, yet it is rebuilt too.
        for shard in cluster.shards:
            _assert_same_arena(shard, Topology(list(shard.nodes), cluster.radio))

    def test_in_cell_movers_match_full_rebuild(self):
        cluster, nodes = _two_cell_cluster()
        all_nodes = list(nodes.values())
        mobility = _ScriptedMobility({"a": (20.0, 60.0), "b": (180.0, 40.0)})
        cluster.advance_mobility(mobility, all_nodes, 1.0)
        for shard in cluster.shards:
            _assert_same_arena(shard, Topology(list(shard.nodes), cluster.radio))


def test_all_movers_tick_matches_fresh_shard_topologies():
    """Every node moves on every tick and many cross a cell boundary:
    after each tick every shard, at both ends of each migration, equals
    a fresh ``Topology`` over its current members."""
    rng = np.random.default_rng(5)
    nodes = [
        Node(f"n{i}", position=(float(rng.uniform(0, 400)),
                                float(rng.uniform(0, 400))))
        for i in range(96)
    ]
    radio = DiscRadio(range_m=100.0)
    grid = ShardGrid(width=400.0, height=400.0, gx=2, gy=2)
    cluster = ShardedCluster(nodes, radio, grid)
    cluster.node("n3").fail()
    cluster.rebuild()
    mobility = RandomWaypoint(400.0, 400.0, speed_min=0.0, speed_max=30.0,
                              pause=0.0, rng=np.random.default_rng(9))
    migrations = 0
    for _ in range(20):
        homes = {n.node_id: cluster.home_shard(n.node_id) for n in nodes}
        cluster.advance_mobility(mobility, nodes, 1.0)
        for node in nodes:
            home = cluster.home_shard(node.node_id)
            assert home == grid.shard_of(*node.position)
            migrations += home != homes[node.node_id]
        for shard in cluster.shards:
            _assert_same_arena(shard, Topology(list(shard.nodes), radio))
    assert migrations > 0


class TestUpdatePositions:
    def _topology(self, n=32, seed=3):
        rng = np.random.default_rng(seed)
        nodes = [
            Node(f"n{i}", position=(float(rng.uniform(0, 300)),
                                    float(rng.uniform(0, 300))))
            for i in range(n)
        ]
        return Topology(nodes, DiscRadio(range_m=100.0))

    def test_update_positions_equals_rebuild(self):
        topo = self._topology()
        movers = ["n0", "n5", "n31"]
        for nid in movers:
            x, y = topo.node(nid).position
            topo.node(nid).move_to(x + 40.0, y - 25.0)
        topo.update_positions(movers)
        arrays = (topo._adj.copy(), topo._bw.copy(), topo._loss.copy())
        route = topo.shortest_route("n0", "n31")
        topo.rebuild()
        assert np.array_equal(arrays[0], topo._adj)
        assert np.array_equal(arrays[1], topo._bw, equal_nan=True)
        assert np.array_equal(arrays[2], topo._loss, equal_nan=True)
        assert route == topo.shortest_route("n0", "n31")

    def test_empty_move_set_still_bumps_epoch(self):
        topo = self._topology()
        before = topo.epoch
        topo.update_positions([])
        assert topo.epoch > before

    def test_update_positions_after_membership_churn_equals_rebuild(self):
        topo = self._topology()
        topo.remove_node("n1")
        topo.node("n2").move_to(10.0, 10.0)
        topo.update_positions(["n2"])
        assert "n1" not in topo._arena_ids
        reference = self._topology()
        reference.remove_node("n1")
        reference.node("n2").move_to(10.0, 10.0)
        reference.rebuild()
        assert topo._arena_ids == reference._arena_ids
        assert np.array_equal(topo._adj, reference._adj)

    def test_update_positions_drops_a_dead_node(self):
        topo = self._topology()
        topo.node("n3").fail()
        topo.node("n2").move_to(10.0, 10.0)
        topo.update_positions(["n2"])
        assert "n3" not in topo._arena_ids


# ==========================================================================
# Per-epoch cache caps
# ==========================================================================


class TestCacheCaps:
    def test_route_cache_respects_cap(self, monkeypatch):
        monkeypatch.setattr(topology_mod, "ROUTE_CACHE_MAX", 4)
        topo = TestUpdatePositions()._topology(n=16)
        ids = topo.node_ids
        expected = {}
        for a in ids[:6]:
            for b in ids[6:12]:
                expected[(a, b)] = topo.shortest_route(a, b)
        assert len(topo._routes) <= 4
        assert len(topo._route_costs) <= 4
        # Evicted entries recompute to the same answer.
        for (a, b), route in expected.items():
            assert topo.shortest_route(a, b) == route

    def test_bfs_cache_respects_cap(self, monkeypatch):
        monkeypatch.setattr(topology_mod, "BFS_CACHE_MAX", 3)
        topo = TestUpdatePositions()._topology(n=16)
        khop = {nid: topo.khop_neighbors(nid, 2) for nid in topo.node_ids}
        assert len(topo._bfs) <= 3
        for nid, expected in khop.items():
            assert topo.khop_neighbors(nid, 2) == expected


# ==========================================================================
# Fleet tables
# ==========================================================================


class TestFleetTables:
    def test_tables_reproduce_the_live_fleet(self):
        config = get_scenario("contention-mix").config
        tables = fleet_tables(9, config)
        rebuilt = fleet_from_tables(
            config, tables["classes"], tables["positions"]
        )
        live = contention_fleet(config, RngRegistry(9))
        assert [n.node_id for n in rebuilt] == [n.node_id for n in live]
        assert [n.node_class for n in rebuilt] == [n.node_class for n in live]
        assert [n.position for n in rebuilt] == [n.position for n in live]

    def test_shape_mismatch_rejected(self):
        config = get_scenario("contention-mix").config
        tables = fleet_tables(9, config)
        with pytest.raises(ValueError):
            fleet_from_tables(
                config.replace(n_nodes=config.n_nodes + 1),
                tables["classes"], tables["positions"],
            )


# ==========================================================================
# Multi-shard runs stay healthy (structural sanity, not bit-identity)
# ==========================================================================


def test_multi_shard_run_partitions_and_serves():
    config = get_scenario("contention-mix").config.replace(
        horizon=120.0, n_nodes=64, area=480.0, radio_range=100.0
    )
    grid = ShardGrid(width=480.0, height=480.0, gx=2, gy=2)
    reset_all_sequences()
    result = run_sharded_contention(2, config, grid=grid)
    assert result.offered() > 0
    # And the cluster itself spreads the fleet over several shards.
    nodes = contention_fleet(config, RngRegistry(2))
    cluster = ShardedCluster(nodes, DiscRadio(range_m=100.0), grid)
    occupied = {cluster.home_shard(n.node_id) for n in nodes}
    assert len(occupied) > 1
