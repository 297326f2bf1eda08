"""Multi-requester contention: K self-interested requesters, one cluster.

The paper studies one requester negotiating with its neighborhood. Here
K requester devices share a single cluster's providers: each requester
has its own service family and its own session arrival stream, sessions
hold real reservations (``negotiate(commit=True)``) for their duration,
and later arrivals see whatever capacity the earlier coalitions left —
exactly the self-interested-agents regime of the related
equilibrium-computation work on integer programming games.

A run is configured by one :class:`ContentionConfig` (which embeds a
:class:`~repro.sessions.SessionPolicy`) and executes in one of two
modes:

* **admission-only** (``sessions.operate=False``, the default and the
  historical semantics): an event loop over the merged arrival
  sequence — sessions negotiate, hold their reservations for their
  nominal duration, and are released; nothing happens *during* a
  session.
* **streaming** (``sessions.operate=True``): the same arrivals are
  submitted to a :class:`~repro.sessions.SessionDriver` on a discrete-
  event engine, so each admitted coalition's *operation phase* — crash
  and battery churn, degradation, in-place renegotiation against the
  currently contended cluster — interleaves with later admissions.

Both modes consume the ``fleet``, ``placement`` and
``arrivals:req<k>`` RNG streams identically; the streaming mode's extra
draws come from its own ``failures`` and ``mobility`` streams, which
are independently derived — so flipping the mode never perturbs the
cluster or the arrival sequence. Everything derives from the
replication seed, so a scenario is a pure function of its seed — the
precondition for running on the shared process pool with the
bit-identical parallel==serial guarantee.

The helpers borrowed from :mod:`repro.experiments.scenario` are
imported lazily inside :func:`build_contention_cluster` (and the
experiment-layer fleet tables inside
:class:`ContentionConfig.__post_init__`) so this package never imports
the experiment layer at module scope (the suites import us; see the
:mod:`repro.workloads` docstring on layering).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.core.negotiation import negotiate, release_coalition
from repro.metrics.utility import outcome_utility
from repro.network.mobility import RandomWaypoint
from repro.network.topology import Topology
from repro.resources.node import Node, NodeClass
from repro.resources.provider import QoSProvider
from repro.sessions.driver import SessionDriver
from repro.sessions.policy import SessionPolicy
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.workloads.arrivals import ArrivalProcess, PoissonProcess
from repro.workloads.services import SERVICE_FAMILIES, build_service

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.experiments.config import ClusterConfig
    from repro.faults.plan import FaultPlan
    from repro.faults.report import ResilienceReport

def requester_id(k: int) -> str:
    """Node id of the ``k``-th requester (``req0``, ``req1``, ...)."""
    return f"req{k}"


@dataclass(frozen=True)
class ContentionConfig:
    """Declarative configuration of one contention run.

    One frozen, ``replace``-sweepable value shared by
    :func:`run_contention`, :class:`~repro.workloads.registry.ScenarioSpec`,
    the experiment suites and the CLI.

    Attributes:
        n_requesters: K, the number of competing requester devices.
        families: Service family per requester
            (:data:`~repro.workloads.services.SERVICE_FAMILIES` keys),
            cycled when shorter than ``n_requesters``.
        arrival: Arrival process shared by every requester — each draws
            from its *own* RNG stream, so streams are independent.
            ``None`` (the default) normalizes to Poisson at one session
            per 40 s.
        horizon: Observation window (simulated seconds); arrivals stop
            here, but streaming sessions admitted before the horizon
            run out their span.
        n_nodes: Total cluster size, requesters included.
        area: Square deployment area side (m).
        radio_range: Disc-radio range (m).
        requester_class: Device class of every requester (weak by
            default, the paper's motivating client).
        mix: Named helper-class mix
            (:data:`repro.experiments.config.FLEET_MIXES` key).
        sessions: The streaming-session lifecycle policy; its
            ``operate`` flag selects admission-only vs streaming mode.
        faults: Optional declarative
            :class:`~repro.faults.plan.FaultPlan` injected into
            streaming runs (burst loss, partitions, crash hazards,
            agent faults — see :mod:`repro.faults`). ``None`` or an
            empty plan is the exact fault-free path, draw for draw.
            Faults act on the operation phase, so a non-empty plan
            needs ``sessions.operate=True``.
    """

    n_requesters: int = 2
    families: Tuple[str, ...] = ("movie", "speech")
    arrival: Optional[ArrivalProcess] = None
    horizon: float = 240.0
    n_nodes: int = 16
    area: float = 120.0
    radio_range: float = 100.0
    requester_class: NodeClass = NodeClass.PHONE
    mix: str = "default"
    sessions: SessionPolicy = SessionPolicy()
    faults: Optional["FaultPlan"] = None

    def __post_init__(self) -> None:
        # Lazy: keep repro.workloads importable without the experiment layer.
        from repro.experiments.config import FLEET_MIXES

        if self.n_requesters < 1:
            raise ValueError(
                f"need at least one requester, got {self.n_requesters}"
            )
        if self.n_nodes < self.n_requesters:
            raise ValueError(
                f"cluster of {self.n_nodes} cannot host "
                f"{self.n_requesters} requesters"
            )
        object.__setattr__(self, "families", tuple(self.families))
        unknown = [f for f in self.families if f not in SERVICE_FAMILIES]
        if unknown:
            raise KeyError(
                f"unknown service family {unknown[0]!r}; "
                f"available: {', '.join(SERVICE_FAMILIES)}"
            )
        if self.mix not in FLEET_MIXES:
            raise KeyError(
                f"unknown fleet mix {self.mix!r}; "
                f"available: {', '.join(FLEET_MIXES)}"
            )
        if self.arrival is None:
            object.__setattr__(self, "arrival", PoissonProcess(rate=1.0 / 40.0))
        if self.faults is not None and not self.faults.empty and not self.sessions.operate:
            raise ValueError(
                "a non-empty fault plan needs streaming sessions "
                "(sessions.operate=True); admission-only runs cannot inject faults"
            )

    def replace(self, **changes) -> "ContentionConfig":
        """A copy with fields changed (sweep helper)."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class SessionOutcome:
    """One session request and what the run made of it.

    ``final_state`` is ``"rejected"`` when admission failed,
    ``"closed"`` for a session that streamed its full span, and
    ``"dropped"`` for one torn down mid-stream (streaming mode only —
    admission-only runs never drop what they admit). ``utility`` is the
    admission-time utility; ``sustained_utility`` is the time-integrated
    utility actually delivered over the planned span (equal to
    ``utility`` when nothing churned, 0 for rejected sessions).
    """

    requester: int
    arrival: float
    family: str
    success: bool
    utility: float
    coalition_size: int
    concurrent: int
    """Sessions already holding reservations when this one negotiated."""
    final_state: str = "closed"
    sustained_utility: float = 0.0
    renegotiations: int = 0
    """In-place renegotiation attempts, successful or failed."""


@dataclass
class ContentionResult:
    """Everything one contention run produced.

    ``sessions`` is in processing order (arrival time, requester,
    ordinal), which is also deterministic given the seed.
    """

    n_requesters: int
    horizon: float
    sessions: List[SessionOutcome] = field(default_factory=list)
    resilience: Optional["ResilienceReport"] = None
    """Robustness accounting (streaming mode only; ``None`` in
    admission-only runs). Surfaced separately from :meth:`metrics` so
    the fixed metric row — and every committed benchmark built on it —
    is untouched by fault injection."""

    def offered(self, requester: Optional[int] = None) -> int:
        """Session count, overall or for one requester."""
        return len(list(self._of(requester)))

    def successes(self, requester: Optional[int] = None) -> int:
        return sum(1 for s in self._of(requester) if s.success)

    def _of(self, requester: Optional[int]):
        if requester is None:
            return iter(self.sessions)
        return (s for s in self.sessions if s.requester == requester)

    def per_requester_success_rates(self) -> Tuple[float, ...]:
        """Success rate per requester; requesters with no arrivals get 1.0
        (they were never denied anything)."""
        rates = []
        for k in range(self.n_requesters):
            offered = self.offered(k)
            rates.append(self.successes(k) / offered if offered else 1.0)
        return tuple(rates)

    def fairness(self) -> float:
        """Jain's fairness index over per-requester success rates.

        1.0 = every requester is served equally well; ``1/K`` = one
        requester captures the cluster while the rest starve.
        """
        rates = self.per_requester_success_rates()
        total = sum(rates)
        if total == 0.0:
            return 1.0  # everyone equally starved
        return total ** 2 / (len(rates) * sum(r * r for r in rates))

    def metrics(self) -> Dict[str, float]:
        """The flat metric row experiment replications return.

        Keys are fixed regardless of outcomes, as
        :func:`~repro.experiments.runner.summarize_replications`
        requires. The streaming-lifecycle keys are present in every
        mode (admission-only runs report ``sustained_utility`` equal to
        admission utility, zero renegotiations and zero drops), so
        sweeps can mix modes without ragged rows.
        """
        n = len(self.sessions)
        admitted = [s for s in self.sessions if s.success]
        return {
            "offered": float(n),
            "success_rate": (self.successes() / n) if n else 1.0,
            "utility": (
                float(np.mean([s.utility for s in self.sessions])) if n else 0.0
            ),
            "fairness": self.fairness(),
            "mean_concurrent": (
                float(np.mean([s.concurrent for s in self.sessions])) if n else 0.0
            ),
            "peak_concurrent": (
                float(max(s.concurrent for s in self.sessions)) if n else 0.0
            ),
            "mean_coalition_size": (
                float(np.mean([s.coalition_size for s in self.sessions])) if n else 0.0
            ),
            "sustained_utility": (
                float(np.mean([s.sustained_utility for s in self.sessions]))
                if n else 0.0
            ),
            "renegotiation_rate": (
                sum(s.renegotiations for s in admitted) / len(admitted)
                if admitted else 0.0
            ),
            "drop_rate": (
                sum(1 for s in admitted if s.final_state == "dropped")
                / len(admitted)
                if admitted else 0.0
            ),
        }


def build_contention_cluster(
    config: "ClusterConfig",
    n_requesters: int,
    registry: RngRegistry,
) -> Tuple[Topology, Dict[str, QoSProvider], List[Node]]:
    """A static cluster with ``n_requesters`` requester nodes.

    The multi-requester analogue of
    :func:`repro.experiments.scenario.build_cluster`: requesters come
    first (``req0`` ... ``req{K-1}``, all of the config's requester
    class), the remaining nodes are drawn from the config's class mix,
    and everything is placed by the registry's ``placement`` stream.
    """
    from repro.experiments.scenario import assemble_cluster, multi_requester_fleet

    nodes = multi_requester_fleet(config, registry.stream("fleet"), n_requesters)
    topology, providers = assemble_cluster(nodes, config, registry)
    return topology, providers, nodes


def run_contention(
    seed: int, config: Optional[ContentionConfig] = None
) -> ContentionResult:
    """Run one contention scenario.

    Args:
        seed: Master seed; the run is a pure function of it.
        config: The :class:`ContentionConfig` describing the run
            (``ContentionConfig()`` if omitted). The embedded
            :class:`~repro.sessions.SessionPolicy` selects
            admission-only vs streaming mode.

    Returns:
        The :class:`ContentionResult` with per-session outcomes.
    """
    if config is None:
        config = ContentionConfig()

    # Lazy: keep repro.workloads importable without the experiment layer.
    from repro.experiments.config import FLEET_MIXES, ClusterConfig

    registry = RngRegistry(seed)
    cluster = ClusterConfig(
        n_nodes=config.n_nodes,
        requester_class=config.requester_class,
        mix=dict(FLEET_MIXES[config.mix]),
        area=config.area,
        radio_range=config.radio_range,
    )
    topology, providers, nodes = build_contention_cluster(
        cluster, config.n_requesters, registry
    )

    events, family_of = merge_arrival_events(config, registry)

    if config.sessions.operate:
        return _run_streaming(
            config, registry, topology, providers, nodes, events, family_of
        )
    return _run_admission_only(config, topology, providers, events, family_of)


def merge_arrival_events(
    config: ContentionConfig, registry: RngRegistry
) -> Tuple[List[Tuple[float, int, int]], Dict[int, str]]:
    """Draw every requester's arrival stream and merge the events.

    Returns the time-sorted ``(t, requester, ordinal)`` events plus the
    requester → service-family map. The one home of the per-requester
    ``arrivals:req<k>`` stream consumption, shared by
    :func:`run_contention` and the sharded runner
    (:func:`repro.shard.driver.run_sharded_contention`) — both paths
    must consume the streams identically for the shard-vs-unsharded
    bit-identity pin to hold.
    """
    family_of = {
        k: config.families[k % len(config.families)]
        for k in range(config.n_requesters)
    }
    events: List[Tuple[float, int, int]] = []
    assert config.arrival is not None  # normalized by __post_init__
    for k in range(config.n_requesters):
        times = config.arrival.arrivals(
            registry.stream(f"arrivals:{requester_id(k)}"), config.horizon
        )
        events.extend((t, k, i) for i, t in enumerate(times))
    events.sort()
    return events, family_of


def _session_service(family: str, k: int, ordinal: int):
    return build_service(
        family,
        requester=requester_id(k),
        name=f"{family}-{requester_id(k)}-{ordinal}",
    )


def _run_admission_only(
    config: ContentionConfig,
    topology: Topology,
    providers: Dict[str, QoSProvider],
    events: List[Tuple[float, int, int]],
    family_of: Dict[int, str],
) -> ContentionResult:
    """The historical admission-only loop: sessions hold reservations
    for their nominal duration; nothing happens while they do."""
    result = ContentionResult(
        n_requesters=config.n_requesters, horizon=config.horizon
    )
    active: List[Tuple[float, object]] = []  # (end time, coalition)
    for t, k, ordinal in events:
        # Dissolve sessions whose duration has elapsed by now.
        still = []
        for end, coalition in active:
            if end <= t:
                release_coalition(coalition, providers, now=t)
            else:
                still.append((end, coalition))
        active = still

        family = family_of[k]
        service = _session_service(family, k, ordinal)
        outcome = negotiate(service, topology, providers, commit=True, now=t)
        utility = outcome_utility(outcome)
        result.sessions.append(
            SessionOutcome(
                requester=k,
                arrival=t,
                family=family,
                success=outcome.success,
                utility=utility,
                coalition_size=outcome.coalition.size,
                concurrent=len(active),
                final_state="closed" if outcome.success else "rejected",
                sustained_utility=utility if outcome.success else 0.0,
            )
        )
        if outcome.success:
            duration = max(task.duration for task in service.tasks)
            active.append((t + duration, outcome.coalition))
        else:
            # A failed negotiation must not strand partial reservations.
            release_coalition(outcome.coalition, providers, now=t)

    for _end, coalition in active:
        release_coalition(coalition, providers, now=config.horizon)
    return result


def _run_streaming(
    config: ContentionConfig,
    registry: RngRegistry,
    topology: Topology,
    providers: Dict[str, QoSProvider],
    nodes: List[Node],
    events: List[Tuple[float, int, int]],
    family_of: Dict[int, str],
    driver_cls: type = SessionDriver,
) -> ContentionResult:
    """The streaming mode: every admitted coalition's operation phase
    runs on a shared engine, interleaved with later admissions.

    ``driver_cls`` is the seam the sharded runner uses to substitute
    :class:`repro.shard.driver.ShardedDriver` (same lifecycle, delta
    topology maintenance) without duplicating this orchestration; the
    RNG stream consumption below is identical for every driver class.
    """
    policy = config.sessions
    driver = driver_cls(topology, providers, policy, engine=Engine())

    # Lazy: repro.faults is only pulled in when a run might use it.
    from repro.faults.injector import make_injector
    from repro.faults.report import ResilienceReport

    # Fault injection: an absent/empty plan yields no injector, and the
    # run below is bit-identical to the pre-fault path; an injector
    # wires partitions, crash hazards and brownouts onto the driver's
    # engine from its own faults:* streams, so the fleet/arrival/
    # failures draws are never perturbed.
    injector = make_injector(
        config.faults,
        registry,
        config.horizon,
        protected=tuple(requester_id(k) for k in range(config.n_requesters)),
    )
    if injector is not None:
        injector.install(driver)

    # Crash churn: one exponential time-to-crash per helper node, in
    # fleet order, from the run's own "failures" stream (independent of
    # the fleet/placement/arrival streams, so enabling churn never
    # perturbs the cluster or the arrivals).
    if policy.failure_rate > 0.0:
        requesters = {requester_id(k) for k in range(config.n_requesters)}
        crash_stream = registry.stream("failures")
        for node in nodes:
            if node.node_id in requesters:
                continue
            crash_at = float(crash_stream.exponential(1.0 / policy.failure_rate))
            if crash_at < config.horizon:
                driver.schedule_failure(crash_at, node.node_id)

    if policy.mobility == "waypoint":
        mobility = RandomWaypoint(
            width=config.area,
            height=config.area,
            speed_min=0.0,
            speed_max=policy.mobility_speed,
            pause=1.0,
            rng=registry.stream("mobility"),
        )
        driver.attach_mobility(mobility, nodes)

    submitted: List[Tuple[int, float, str]] = []
    for t, k, ordinal in events:
        family = family_of[k]
        driver.submit(_session_service(family, k, ordinal), t)
        submitted.append((k, t, family))
    driver.run()

    result = ContentionResult(
        n_requesters=config.n_requesters,
        horizon=config.horizon,
        resilience=ResilienceReport.from_sessions(driver.sessions),
    )
    for (k, t, family), session in zip(submitted, driver.sessions):
        admission = session.admission
        result.sessions.append(
            SessionOutcome(
                requester=k,
                arrival=t,
                family=family,
                success=session.admitted,
                utility=outcome_utility(admission) if admission is not None else 0.0,
                coalition_size=(
                    admission.coalition.size if admission is not None else 0
                ),
                concurrent=session.concurrent,
                final_state=(
                    session.state.value if session.admitted else "rejected"
                ),
                sustained_utility=session.sustained_utility,
                renegotiations=session.renegotiation_attempts,
            )
        )
    return result
