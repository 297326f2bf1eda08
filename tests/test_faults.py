"""repro.faults: deterministic fault injection, retry and degradation.

Four test families:

* plan validation — the frozen dataclasses reject nonsense eagerly;
* closed forms — the Gilbert–Elliott chain's empirical loss matches its
  stationary mixture (bootstrap CI over seeds), the backoff schedule is
  the pure function it claims to be;
* determinism — hazard schedules replay exactly, partitions heal
  bit-identically, the ``reliable``/zero-loss channel paths consume no
  draws (the invariant that makes an empty plan a no-op), and an e23
  run measures its geometry once and never searches for a route;
* behaviour — the injector's seams (filter_proposals, award_handshake,
  install) and the committed DEGRADED → OPERATING
  partition-heal scenario: a session survives a healed partition in
  place, without renegotiating.
"""

from __future__ import annotations

import math
import types

import numpy as np
import pytest

from repro.faults import (
    EMPTY_PLAN,
    AgentFaults,
    CrashHazard,
    FaultInjector,
    FaultPlan,
    GilbertElliott,
    Partition,
    ResilienceReport,
    make_injector,
)
from repro.faults.plan import award_backoff
from repro.metrics.bootstrap import bootstrap_ci
from repro.network.radio import DiscRadio
from repro.network.topology import Topology, _Geometry
from repro.resources.node import Node, NodeClass
from repro.resources.provider import QoSProvider
from repro.services import workload
from repro.sessions import SessionDriver, SessionPolicy, SessionState
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.sim.sequences import reset_all_sequences
from repro.workloads.arrivals import PoissonProcess
from repro.workloads.contention import ContentionConfig, run_contention
from repro.workloads.rates import ConstantRate


# -- plan validation --------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"p_gb": -0.1},
        {"p_bg": 1.5},
        {"loss_good": 2.0},
        {"loss_bad": -1.0},
    ],
)
def test_gilbert_elliott_rejects_non_probabilities(kwargs):
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        GilbertElliott(**kwargs)


def test_partition_and_cut_validation():
    with pytest.raises(ValueError, match="non-empty"):
        Partition(start=0.0, duration=1.0, group_a=(), group_b=("b",))
    with pytest.raises(ValueError, match="overlap"):
        Partition(start=0.0, duration=1.0, group_a=("x",), group_b=("x", "y"))
    part = Partition(start=5.0, duration=10.0, group_a=("a", "b"), group_b=("c",))
    assert part.heal_at == 15.0
    topo = Topology(_grid_nodes(), DiscRadio(range_m=100.0))
    with pytest.raises(ValueError, match="overlap"):
        topo.block_links(("n0",), ("n0", "n1"))
    with pytest.raises(ValueError, match="overlap"):
        topo.unblock_links(("n0",), ("n0", "n1"))
    assert topo.cuts == ()


def test_crash_hazard_validation():
    with pytest.raises(ValueError, match="recover_after"):
        CrashHazard(shape=ConstantRate(0.1), recover_after=0.0)


def test_award_backoff_is_capped_exponential():
    # Doubling from 0.05 s is exact in binary floating point; 1 s caps it.
    assert [award_backoff(a) for a in range(6)] == [0.05, 0.1, 0.2, 0.4, 0.8, 1.0]
    assert award_backoff(9) == 1.0


def test_plan_emptiness_is_the_injection_test():
    assert EMPTY_PLAN.empty
    assert FaultPlan(agents=AgentFaults()).empty  # all-zero agents
    assert not FaultPlan(link=GilbertElliott()).empty
    assert not FaultPlan(agents=AgentFaults(drop_propose=0.1)).empty
    plan = EMPTY_PLAN.replace(link=GilbertElliott())
    assert not plan.empty and EMPTY_PLAN.empty  # replace never mutates


# -- closed forms -----------------------------------------------------------


def test_gilbert_elliott_stationary_loss_matches_closed_form():
    """Empirical per-message loss over long chains brackets the
    stationary mixture ``(1 - pi_b) * loss_good + pi_b * loss_bad``
    (bootstrap CI over independent seeds)."""
    ge = GilbertElliott(p_gb=0.1, p_bg=0.4, loss_good=0.05, loss_bad=0.7)
    plan = FaultPlan(link=ge)
    n_messages = 4000
    rates = []
    for seed in range(12):
        injector = FaultInjector(plan, RngRegistry(seed))
        lost = sum(
            not injector.link_survives("a", "b") for _ in range(n_messages)
        )
        rates.append(lost / n_messages)
    ci = bootstrap_ci(rates)
    assert ci.contains(ge.stationary_loss), (ci, ge.stationary_loss)


def test_stationary_properties_degenerate_chains():
    frozen_good = GilbertElliott(p_gb=0.0, p_bg=0.0, loss_good=0.1)
    assert frozen_good.stationary_bad == 0.0
    assert frozen_good.stationary_loss == pytest.approx(0.1)
    always_bad = GilbertElliott(p_gb=1.0, p_bg=0.0, loss_bad=0.9)
    assert always_bad.stationary_bad == 1.0
    assert always_bad.stationary_loss == pytest.approx(0.9)


# -- determinism ------------------------------------------------------------


def _grid_nodes(n=24, cols=6, spacing=60.0):
    return [
        Node(
            f"n{i}",
            position=(spacing * (i % cols), spacing * (i // cols)),
        )
        for i in range(n)
    ]


def test_partition_heal_restores_routes_bit_identically():
    """Block + unblock leaves every route exactly as a never-partitioned
    twin computes it, and no cut stays active."""
    radio = DiscRadio(range_m=100.0)
    faulted = Topology(_grid_nodes(), radio)
    pristine = Topology(_grid_nodes(), radio)
    evens = tuple(f"n{i}" for i in range(0, 24, 2))
    odds = tuple(f"n{i}" for i in range(1, 24, 2))

    faulted.block_links(evens, odds)
    assert faulted.cuts  # cut active
    assert faulted.shortest_route("n0", "n1") != pristine.shortest_route("n0", "n1")
    faulted.unblock_links(evens, odds)

    assert not faulted.cuts
    ids = [n.node_id for n in _grid_nodes()]
    for src in ids:
        assert faulted.neighbors(src) == pristine.neighbors(src)
        for dst in ids:
            assert faulted.shortest_route(src, dst) == pristine.shortest_route(
                src, dst
            )


def test_overlapping_partitions_keep_shared_links_blocked():
    """Two partitions of one plan that overlap in time and cut the same
    link: the first heal must not restore the link while the second
    partition is still in force."""
    nodes = [
        Node("a", NodeClass.LAPTOP, position=(0.0, 0.0)),
        Node("b", NodeClass.LAPTOP, position=(10.0, 0.0)),
    ]
    topology = Topology(nodes, DiscRadio(range_m=100.0))
    plan = FaultPlan(
        partitions=(
            Partition(start=5.0, duration=20.0, group_a=("a",), group_b=("b",)),
            Partition(start=15.0, duration=30.0, group_a=("a",), group_b=("b",)),
        )
    )
    engine = Engine(seed=0)
    driver = types.SimpleNamespace(engine=engine, topology=topology)
    FaultInjector(plan, RngRegistry(0)).install(driver)

    seen = {}
    for t in (1.0, 10.0, 20.0, 30.0, 50.0):
        engine.run(until=t)
        seen[t] = (topology.connected("a", "b"), topology.cuts)
    cut = (("a",), ("b",))
    assert seen == {
        1.0: (True, ()),
        10.0: (False, (cut,)),
        20.0: (False, (cut, cut)),
        30.0: (False, (cut,)),  # first partition healed, second holds
        50.0: (True, ()),
    }


def test_healing_a_cut_that_is_not_active_does_nothing():
    """A heal removes one equal cut: a cut that was never blocked, and a
    cut healed a second time, change nothing; the groups name the same
    cut in either order and with repeats; and a link that two cuts
    share stays blocked until both heal."""
    topo = Topology(_grid_nodes(), DiscRadio(range_m=100.0))
    topo.block_links(["n0"], ["n1"])
    topo.block_links(["n1"], ["n2"])
    topo.block_links(["n2", "n2"], ["n1"])  # the same cut again
    cuts = topo.cuts
    assert cuts == ((("n0",), ("n1",)),) + ((("n1",), ("n2",)),) * 2

    topo.unblock_links(["n6"], ["n0"])  # never blocked
    assert topo.cuts == cuts
    topo.unblock_links(["n0"], ["n1", "n6"])  # a different cut
    assert topo.cuts == cuts
    topo.unblock_links(["n1"], ["n0"])  # either order names the cut
    assert topo.cuts == cuts[1:]
    topo.unblock_links(["n0"], ["n1"])  # healed twice
    assert topo.cuts == cuts[1:]
    assert topo.connected("n0", "n1") and not topo.connected("n1", "n2")

    topo.unblock_links(["n1"], ["n2"])  # one of its two blocks
    assert not topo.connected("n1", "n2")
    topo.unblock_links(["n2"], ["n1"])  # the other
    assert not topo.cuts
    assert topo.connected("n1", "n2")


def test_blocking_bumps_the_topology_epoch():
    topo = Topology(_grid_nodes(), DiscRadio(range_m=100.0))
    before = topo.epoch
    topo.block_links(["n0"], ["n1"])
    assert topo.epoch > before  # cached routes must invalidate


def _e23_config() -> ContentionConfig:
    """E23's bursty-part25-crash regime on 256 nodes over 40 s, as the
    perf benchmark's e23-crash-256 workload configures it: a partition
    from 13.3 s to 38.3 s puts the requesters and the even helpers on
    one side and the odd helpers on the other, and crashes arrive at
    1/s, each felling a uniformly drawn helper for 25 s."""
    n_nodes, n_requesters, horizon = 256, 4, 40.0
    helpers = n_nodes - n_requesters
    plan = FaultPlan(
        link=GilbertElliott(p_gb=0.02, p_bg=0.1, loss_good=0.01, loss_bad=0.8),
        partitions=(
            Partition(
                start=horizon / 3.0,
                duration=25.0,
                group_a=tuple(f"req{k}" for k in range(n_requesters))
                + tuple(f"n{i}" for i in range(0, helpers, 2)),
                group_b=tuple(f"n{i}" for i in range(1, helpers, 2)),
            ),
        ),
        crashes=CrashHazard(shape=ConstantRate(1.0), recover_after=25.0),
        agents=AgentFaults(drop_propose=0.02, stale_propose=0.02, refuse_award=0.01),
    )
    return ContentionConfig(
        n_requesters=n_requesters,
        families=("movie", "speech", "sensor-fusion", "navigation"),
        arrival=PoissonProcess(rate=1.0 / 6.0),
        horizon=horizon,
        n_nodes=n_nodes,
        area=60.0 * math.sqrt(n_nodes),
        radio_range=100.0,
        sessions=SessionPolicy(operate=True, keepalive=2.5, partition_grace=15.0),
        faults=plan,
    )


@pytest.mark.parametrize("seed", [1, 2])
def test_an_e23_run_slices_nothing_and_never_searches(seed, monkeypatch):
    """An e23 run measures its geometry once: every crash, recovery,
    partition and heal after that keeps the memo and only masks its
    rows. Its partition puts every node in a group, so a route across
    it is ``None`` without a search, and the certificate answers every
    other. Counted, not timed, from rewound id sequences as a benchmark
    replication runs (otherwise the counts depend on what ran before):
    the counts are the same on any host."""
    calls = {"measure": 0, "rebuild": 0, "route": 0, "search": 0}
    measure = _Geometry.measure.__func__
    rebuild, route = Topology.rebuild, Topology.shortest_route
    search = Topology._bidirectional_dijkstra

    def counted_measure(cls, ids, positions, radio):
        calls["measure"] += 1
        return measure(cls, ids, positions, radio)

    def counted_rebuild(self):
        calls["rebuild"] += 1
        return rebuild(self)

    def counted_route(self, a, b):
        calls["route"] += 1
        return route(self, a, b)

    def counted_search(self, a, b):
        calls["search"] += 1
        return search(self, a, b)

    monkeypatch.setattr(_Geometry, "measure", classmethod(counted_measure))
    monkeypatch.setattr(Topology, "rebuild", counted_rebuild)
    monkeypatch.setattr(Topology, "shortest_route", counted_route)
    monkeypatch.setattr(Topology, "_bidirectional_dijkstra", counted_search)
    reset_all_sequences()
    result = run_contention(seed, _e23_config())
    assert result.sessions
    assert calls["measure"] == 1
    assert calls["rebuild"] > 50  # crashes, recoveries, the partition and its heal
    assert calls["route"] > 0
    assert calls["search"] == 0


def test_crash_schedule_is_replay_exact():
    plan = FaultPlan(crashes=CrashHazard(shape=ConstantRate(0.5)))
    ids = tuple(f"n{i}" for i in range(8))
    first = FaultInjector(
        plan, RngRegistry(3), horizon=40.0, protected=("n0",)
    ).crash_schedule(ids)
    second = FaultInjector(
        plan, RngRegistry(3), horizon=40.0, protected=("n0",)
    ).crash_schedule(ids)
    assert first == second and first  # same seed, same stream, same events
    assert all(0.0 <= t <= 40.0 for t, _ in first)
    assert all(victim != "n0" for _, victim in first)  # protected exempt
    other = FaultInjector(
        plan, RngRegistry(4), horizon=40.0, protected=("n0",)
    ).crash_schedule(ids)
    assert other != first  # a different seed realizes a different stream


def test_reliable_channel_consumes_zero_draws():
    """The pin behind the empty-plan contract: ``reliable=True`` (and
    zero-loss links with zero jitter) never touch the RNG, so wrapping
    or unwrapping a fault-free channel cannot shift any stream."""
    from repro.network.channel import ChannelModel

    class CountingRng:
        draws = 0

        def __init__(self, inner):
            self.inner = inner

        def random(self):
            self.draws += 1
            return self.inner.random()

        def uniform(self, low, high):
            self.draws += 1
            return self.inner.uniform(low, high)

    class OneEdge:
        def __init__(self, loss):
            self.loss = loss

        def edge_quality(self, src, dst):
            return (1000.0, self.loss)

    rng = CountingRng(np.random.default_rng(0))
    reliable = ChannelModel(OneEdge(0.5), rng, reliable=True)
    for _ in range(10):
        assert reliable.transmit("a", "b", 1.0) is not None
    assert rng.draws == 0

    lossless = ChannelModel(OneEdge(0.0), rng, jitter=0.0)
    for _ in range(10):
        assert lossless.transmit("a", "b", 1.0) is not None
    assert rng.draws == 0  # no loss draw on loss=0, no jitter draw

    lossy = ChannelModel(OneEdge(0.5), rng, jitter=0.0)
    lossy.transmit("a", "b", 1.0)
    assert rng.draws == 1  # the loss draw, and only it


def test_empty_plan_injector_gate():
    registry = RngRegistry(0)
    assert make_injector(None, registry, 10.0) is None
    assert make_injector(EMPTY_PLAN, registry, 10.0) is None
    assert make_injector(FaultPlan(), registry, 10.0) is None
    assert "faults:link" not in registry  # nothing even created a stream
    injector = make_injector(FaultPlan(link=GilbertElliott()), registry, 10.0)
    assert isinstance(injector, FaultInjector)


def test_empty_plans_are_bit_identical_to_no_plan():
    """The empty-plan contract on whole streaming runs: no plan, the
    canonical empty plan and a plan whose agent faults are all zero
    admit, drop and recover identically, draw for draw."""
    config = ContentionConfig(
        n_requesters=2, horizon=120.0,
        sessions=SessionPolicy(failure_rate=1.0 / 60.0, drain=30.0),
    )
    for seed in (1, 2):
        runs = [
            run_contention(seed, config),
            run_contention(seed, config.replace(faults=EMPTY_PLAN)),
            run_contention(seed, config.replace(faults=FaultPlan(agents=AgentFaults()))),
        ]
        assert runs[0].sessions
        for run in runs[1:]:
            assert run.sessions == runs[0].sessions
            assert run.resilience.metrics() == runs[0].resilience.metrics()


# -- injector seams ---------------------------------------------------------


def test_filter_proposals_never_touches_the_requesters_own():
    class P:
        def __init__(self, node_id):
            self.node_id = node_id

    drop_all = AgentFaults(drop_propose=1.0)
    injector = FaultInjector(FaultPlan(agents=drop_all), RngRegistry(0))
    by_task = {"t1": [P("req"), P("n1")], "t2": [P("n2")]}
    filtered, stale = injector.filter_proposals(
        "req", ("req", "n1", "n2"), by_task
    )
    assert [p.node_id for p in filtered["t1"]] == ["req"]
    assert filtered["t2"] == []
    assert stale == frozenset()


def test_award_handshake_budgets_and_refusal():
    # A refusing winner never acks, and costs no link draws.
    refuser = FaultInjector(
        FaultPlan(agents=AgentFaults(refuse_award=1.0)), RngRegistry(0)
    )
    assert refuser.award_handshake("req", "n1") == (False, 0, 0.0)

    # A dead link exhausts the bounded budget with backoff accounting.
    dead = GilbertElliott(p_gb=0.0, p_bg=1.0, loss_good=1.0)
    injector = FaultInjector(FaultPlan(link=dead), RngRegistry(0))
    acked, retries, delay = injector.award_handshake("req", "n1")
    assert not acked
    assert retries == 2  # AWARD_ATTEMPTS - 1 waits
    assert delay == pytest.approx(0.05 + 0.1)

    # A clean link acks on the first attempt.
    clean = FaultInjector(
        FaultPlan(link=GilbertElliott(p_gb=0.0, p_bg=1.0, loss_good=0.0)),
        RngRegistry(0),
    )
    assert clean.award_handshake("req", "n1") == (True, 0, 0.0)


def test_install_rejects_partitions_without_link_overlays():
    plan = FaultPlan(
        partitions=(
            Partition(start=1.0, duration=1.0, group_a=("a",), group_b=("b",)),
        )
    )
    injector = FaultInjector(plan, RngRegistry(0))
    driver = types.SimpleNamespace(engine=None, topology=object())
    with pytest.raises(NotImplementedError, match="link overlays"):
        injector.install(driver)


# -- graceful degradation (the committed heal scenario) ---------------------


def _partition_cluster():
    nodes = [
        Node("requester", NodeClass.PHONE, position=(50.0, 50.0)),
        Node("pda", NodeClass.PDA, position=(60.0, 50.0)),
        Node("lap1", NodeClass.LAPTOP, position=(40.0, 50.0)),
        Node("lap2", NodeClass.LAPTOP, position=(50.0, 70.0)),
        Node("lap3", NodeClass.LAPTOP, position=(60.0, 60.0)),
    ]
    topology = Topology(nodes, DiscRadio(range_m=100.0))
    providers = {n.node_id: QoSProvider(n) for n in nodes}
    return topology, providers


HELPERS = ("pda", "lap1", "lap2", "lap3")


def test_partition_heal_recovers_in_place_without_renegotiation():
    """The tentpole scenario: a partition cuts the organizer off from
    every helper, the session degrades at the next keepalive, the
    partition heals inside the grace window, and the session recovers
    DEGRADED → OPERATING in place — same awards, zero renegotiations."""
    topology, providers = _partition_cluster()
    plan = FaultPlan(
        partitions=(
            Partition(
                start=6.0, duration=8.0,
                group_a=("requester",), group_b=HELPERS,
            ),
        )
    )
    policy = SessionPolicy(keepalive=5.0, partition_grace=10.0)
    driver = SessionDriver(topology, providers, policy)
    service = workload.movie_playback_service(requester="requester")
    session = driver.submit(service, 0.0, duration=30.0)
    injector = make_injector(plan, RngRegistry(0), horizon=30.0)
    injector.install(driver)
    driver.run()

    awarded_before_heal = {a.node_id for a in session.coalition.awards.values()}
    assert awarded_before_heal & set(HELPERS)  # the cut actually bit
    states = [(t, s) for t, s in session.transitions]
    timeline = [s for _, s in states]
    assert timeline == [
        SessionState.NEGOTIATING,
        SessionState.OPERATING,
        SessionState.DEGRADED,
        SessionState.OPERATING,
        SessionState.CLOSED,
    ]
    when = dict((s, t) for t, s in states)
    assert when[SessionState.DEGRADED] == 10.0  # keepalive after the cut
    assert when[SessionState.OPERATING] == 15.0  # keepalive after the heal
    assert session.renegotiations == 0
    assert session.coalition.reconfigurations == 0
    assert not session.suspended  # suspension cleared on recovery

    report = ResilienceReport.from_sessions([session])
    assert report.admitted == 1
    assert report.degraded_sessions == 1
    assert report.recovered == 1
    assert report.mean_recovery == pytest.approx(5.0)
    assert 0.0 < report.availability < 1.0


def test_partition_outliving_grace_expires_into_renegotiation():
    """Past the grace window, suspended members are released
    idempotently and the session renegotiates (or drops)."""
    topology, providers = _partition_cluster()
    plan = FaultPlan(
        partitions=(
            Partition(
                start=6.0, duration=40.0,  # never heals in-session
                group_a=("requester",), group_b=HELPERS,
            ),
        )
    )
    policy = SessionPolicy(
        keepalive=5.0, partition_grace=7.0, max_renegotiations=2
    )
    driver = SessionDriver(topology, providers, policy)
    service = workload.movie_playback_service(requester="requester")
    session = driver.submit(service, 0.0, duration=30.0)
    injector = make_injector(plan, RngRegistry(0), horizon=30.0)
    injector.install(driver)
    driver.run()

    # Degraded at the first post-cut keepalive; the suspension expires
    # past the 7 s grace and forces a renegotiation attempt. With every
    # helper unreachable the replacement search fails and the session
    # ends dropped (the degraded-vs-dropped split E23 reports).
    reached = {s for _, s in session.transitions}
    assert SessionState.DEGRADED in reached
    assert session.state in (SessionState.DROPPED, SessionState.CLOSED)
    assert session.renegotiations + session.failed_renegotiations >= 1

    report = ResilienceReport.from_sessions([session])
    assert report.degraded_sessions == 1
    assert report.recovered == 0


def test_grace_zero_keeps_the_legacy_path():
    """``partition_grace=0`` (the default) never probes routes: a
    partitioned-but-alive coalition keeps operating exactly as before
    the subsystem existed."""
    topology, providers = _partition_cluster()
    plan = FaultPlan(
        partitions=(
            Partition(
                start=6.0, duration=8.0,
                group_a=("requester",), group_b=HELPERS,
            ),
        )
    )
    policy = SessionPolicy(keepalive=5.0)  # grace defaults 0
    driver = SessionDriver(topology, providers, policy)
    service = workload.movie_playback_service(requester="requester")
    session = driver.submit(service, 0.0, duration=30.0)
    injector = make_injector(plan, RngRegistry(0), horizon=30.0)
    injector.install(driver)
    driver.run()
    assert session.state is SessionState.CLOSED
    assert all(s is not SessionState.DEGRADED for _, s in session.transitions)


def test_policy_rejects_negative_grace():
    with pytest.raises(ValueError, match="partition_grace"):
        SessionPolicy(partition_grace=-1.0)


# -- the resilience report --------------------------------------------------


def test_report_metrics_keys_are_stable():
    report = ResilienceReport.from_sessions([])
    assert set(report.metrics()) == {
        "admitted",
        "availability",
        "mean_recovery_s",
        "recovered",
        "degraded_sessions",
        "dropped",
        "award_retries",
        "retry_delay_s",
    }
    assert report.availability == 1.0  # vacuous: no admitted time
