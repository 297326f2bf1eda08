"""repro.faults: deterministic fault injection, retry and degradation.

Four test families:

* plan validation — the frozen dataclasses reject nonsense eagerly;
* closed forms — the Gilbert–Elliott chain's empirical loss matches its
  stationary mixture (bootstrap CI over seeds), the backoff schedule is
  the pure function it claims to be;
* determinism — hazard schedules replay exactly, partitions heal
  bit-identically, the ``reliable``/zero-loss channel paths consume no
  draws (the invariant that makes an empty plan a no-op);
* behaviour — the injector's seams (filter_proposals, award_handshake,
  install) and the committed DEGRADED → OPERATING
  partition-heal scenario: a session survives a healed partition in
  place, without renegotiating.
"""

from __future__ import annotations

import types

import numpy as np
import pytest

from repro.faults import (
    EMPTY_PLAN,
    AgentFaults,
    Brownout,
    CrashHazard,
    FaultInjector,
    FaultPlan,
    GilbertElliott,
    Partition,
    ResilienceReport,
    RetryPolicy,
    make_injector,
)
from repro.metrics.bootstrap import bootstrap_ci
from repro.network.radio import DiscRadio
from repro.network.topology import Topology
from repro.resources.node import Node, NodeClass
from repro.resources.provider import QoSProvider
from repro.services import workload
from repro.sessions import SessionDriver, SessionPolicy, SessionState
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
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


def test_partition_validation_and_cross_pairs():
    with pytest.raises(ValueError, match="non-empty"):
        Partition(start=0.0, duration=1.0, group_a=(), group_b=("b",))
    with pytest.raises(ValueError, match="overlap"):
        Partition(start=0.0, duration=1.0, group_a=("x",), group_b=("x", "y"))
    part = Partition(start=5.0, duration=10.0, group_a=("a", "b"), group_b=("c",))
    assert part.heal_at == 15.0
    assert part.cross_pairs() == (("a", "c"), ("b", "c"))


def test_crash_hazard_and_brownout_validation():
    with pytest.raises(ValueError, match="recover_after"):
        CrashHazard(shape=ConstantRate(0.1), recover_after=0.0)
    with pytest.raises(ValueError, match="fraction"):
        Brownout(time=1.0, fraction=1.5)
    with pytest.raises(ValueError, match="time"):
        Brownout(time=-1.0, fraction=0.5)


def test_retry_policy_backoff_is_capped_exponential():
    policy = RetryPolicy(max_attempts=5, base_delay=0.1, factor=2.0, max_delay=0.35)
    assert policy.backoff(0) == pytest.approx(0.1)
    assert policy.backoff(1) == pytest.approx(0.2)
    assert policy.backoff(2) == pytest.approx(0.35)  # capped
    assert policy.backoff(3) == pytest.approx(0.35)
    with pytest.raises(ValueError):
        policy.backoff(-1)
    with pytest.raises(ValueError, match="max_attempts"):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError, match="factor"):
        RetryPolicy(factor=0.5)


def test_plan_emptiness_is_the_injection_test():
    assert EMPTY_PLAN.empty
    # A retry policy alone is hardening config, not a fault.
    assert FaultPlan(retry=RetryPolicy(max_attempts=7)).empty
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
    twin computes it, and the overlay empties."""
    radio = DiscRadio(range_m=100.0)
    faulted = Topology(_grid_nodes(), radio)
    pristine = Topology(_grid_nodes(), radio)
    evens = tuple(f"n{i}" for i in range(0, 24, 2))
    odds = tuple(f"n{i}" for i in range(1, 24, 2))
    pairs = Partition(
        start=1.0, duration=1.0, group_a=evens, group_b=odds
    ).cross_pairs()

    faulted.block_links(pairs)
    assert faulted.blocked_links  # overlay active
    assert faulted.shortest_route("n0", "n1") != pristine.shortest_route("n0", "n1")
    faulted.unblock_links(pairs)

    assert not faulted.blocked_links
    ids = [n.node_id for n in _grid_nodes()]
    for src in ids:
        assert faulted.neighbors(src) == pristine.neighbors(src)
        for dst in ids:
            assert faulted.shortest_route(src, dst) == pristine.shortest_route(
                src, dst
            )


def test_overlapping_partitions_keep_shared_links_blocked():
    """Two partitions of one plan that overlap in time and share a cross
    pair: the first heal must not restore the link while the second
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
        seen[t] = (topology.connected("a", "b"), topology.blocked_links)
    assert seen == {
        1.0: (True, frozenset()),
        10.0: (False, {("a", "b")}),
        20.0: (False, {("a", "b")}),
        30.0: (False, {("a", "b")}),  # first partition healed, second holds
        50.0: (True, frozenset()),
    }


def test_blocking_bumps_the_topology_epoch():
    topo = Topology(_grid_nodes(), DiscRadio(range_m=100.0))
    before = topo.epoch
    topo.block_links([("n0", "n1")])
    assert topo.epoch > before  # cached routes must invalidate


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
    policy = RetryPolicy(max_attempts=3, base_delay=0.1, factor=2.0, max_delay=1.0)
    dead = GilbertElliott(p_gb=0.0, p_bg=1.0, loss_good=1.0)
    injector = FaultInjector(
        FaultPlan(link=dead, retry=policy), RngRegistry(0)
    )
    acked, retries, delay = injector.award_handshake("req", "n1")
    assert not acked
    assert retries == 2  # max_attempts - 1 waits
    assert delay == pytest.approx(0.1 + 0.2)

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
