"""Multi-requester contention: K self-interested requesters, one cluster.

The paper studies one requester negotiating with its neighborhood. Here
K requester devices share a single cluster's providers: each requester
has its own service family and its own session arrival stream, sessions
hold real reservations (``negotiate(commit=True)``) for their duration,
and later arrivals see whatever capacity the earlier coalitions left —
exactly the self-interested-agents regime of the related
equilibrium-computation work on integer programming games.

A run is configured by one :class:`ContentionConfig` (which embeds a
:class:`~repro.sessions.SessionPolicy`). Its merged arrivals are
submitted to one :class:`~repro.sessions.SessionDriver` on a discrete-
event engine, so each admitted coalition's *operation phase* — crash
and battery churn, degradation, in-place renegotiation against the
currently contended cluster — interleaves with later admissions. With
no churn, mobility or faults configured, a session simply holds its
reservations for its span and is released.

The cluster and the arrivals come from the ``fleet``, ``placement`` and
``arrivals:req<k>`` RNG streams; churn draws come from the run's own
``failures`` and ``mobility`` streams, which are independently derived
— so enabling churn never perturbs the cluster or the arrival sequence.
Everything derives from the replication seed, so a scenario is a pure
function of its seed — the precondition for running on the shared
process pool with the bit-identical parallel==serial guarantee.

The cluster itself is only an input: :func:`run_on_cluster` runs the
merged arrivals on any built cluster, which is how the sharded runner
(:func:`repro.shard.run_sharded_contention`) shares this whole pipeline
with :func:`run_contention`. A run builds each service family once and
hands every later session of the family task shells over the same
:class:`~repro.services.task.TaskProfile` objects, so the family's
degrade walks are computed once per run; the profiles die with it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.metrics.utility import outcome_utility
from repro.network.mobility import RandomWaypoint
from repro.network.radio import DiscRadio
from repro.network.topology import Topology
from repro.resources.node import Node, NodeClass
from repro.resources.provider import QoSProvider
from repro.services.service import Service
from repro.services.task import Task
from repro.sessions.driver import SessionDriver
from repro.sessions.policy import SessionPolicy
from repro.sim.rng import RngRegistry
from repro.workloads.arrivals import ArrivalProcess, PoissonProcess
from repro.workloads.fleet import FLEET_MIXES, contention_fleet, requester_id
from repro.workloads.services import SERVICE_FAMILIES, build_service

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.faults.plan import FaultPlan
    from repro.faults.report import ResilienceReport


@dataclass(frozen=True)
class ContentionConfig:
    """Declarative configuration of one contention run.

    One frozen, ``replace``-sweepable value shared by
    :func:`run_contention`, the sharded runner,
    :class:`~repro.workloads.registry.ScenarioSpec`, the experiment
    suites and the CLI.

    Attributes:
        n_requesters: K, the number of competing requester devices.
        families: Service family per requester
            (:data:`~repro.workloads.services.SERVICE_FAMILIES` keys),
            cycled when shorter than ``n_requesters``; at least one.
        arrival: Arrival process shared by every requester — each draws
            from its *own* RNG stream, so streams are independent.
            ``None`` (the default) normalizes to Poisson at one session
            per 40 s.
        horizon: Observation window (simulated seconds); arrivals stop
            here, but sessions admitted before the horizon run out
            their span.
        n_nodes: Total cluster size, requesters included.
        area: Square deployment area side (m).
        radio_range: Disc-radio range (m).
        requester_class: Device class of every requester (weak by
            default, the paper's motivating client).
        mix: Named helper-class mix
            (:data:`~repro.workloads.fleet.FLEET_MIXES` key).
        sessions: The streaming-session lifecycle policy.
        faults: Optional declarative
            :class:`~repro.faults.plan.FaultPlan` injected into the run
            (burst loss, partitions, crash hazards, agent faults — see
            :mod:`repro.faults`). ``None`` or an empty plan is the exact
            fault-free path, draw for draw.
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
        if not self.families:
            raise ValueError("need at least one service family")
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

    def replace(self, **changes) -> "ContentionConfig":
        """A copy with fields changed (sweep helper)."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class SessionOutcome:
    """One session request and what the run made of it.

    ``final_state`` is ``"rejected"`` when admission failed,
    ``"closed"`` for a session that streamed its full span, and
    ``"dropped"`` for one torn down mid-stream. ``utility`` is the
    admission-time utility; ``sustained_utility`` is the time-integrated
    utility actually delivered over the planned span (equal to
    ``utility`` up to rounding when nothing churned, 0 for rejected
    sessions).
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
    resilience: "ResilienceReport"
    """Robustness accounting. Surfaced separately from :meth:`metrics`
    so the fixed metric row — and every committed benchmark built on
    it — is untouched by fault injection."""
    sessions: List[SessionOutcome] = field(default_factory=list)

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
        requires.
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
    config: ContentionConfig, registry: RngRegistry
) -> Tuple[Topology, Dict[str, QoSProvider], List[Node]]:
    """The static cluster of one run: the
    :func:`~repro.workloads.fleet.contention_fleet` under a disc radio
    of the config's range, plus a provider per node."""
    nodes = contention_fleet(config, registry)
    topology = Topology(nodes, DiscRadio(range_m=config.radio_range))
    providers = {n.node_id: QoSProvider(n) for n in nodes}
    return topology, providers, nodes


def run_contention(
    seed: int, config: Optional[ContentionConfig] = None
) -> ContentionResult:
    """Run one contention scenario.

    Args:
        seed: Master seed; the run is a pure function of it.
        config: The :class:`ContentionConfig` describing the run
            (``ContentionConfig()`` if omitted).

    Returns:
        The :class:`ContentionResult` with per-session outcomes.
    """
    if config is None:
        config = ContentionConfig()
    registry = RngRegistry(seed)
    topology, providers, nodes = build_contention_cluster(config, registry)
    return run_on_cluster(config, registry, topology, providers, nodes)


def run_on_cluster(
    config: ContentionConfig,
    registry: RngRegistry,
    topology: Topology,
    providers: Dict[str, QoSProvider],
    nodes: List[Node],
) -> ContentionResult:
    """Run the config's merged arrivals on an already-built cluster.

    Every arrival is submitted to one
    :class:`~repro.sessions.SessionDriver`, so each admitted coalition's
    operation phase runs on a shared engine, interleaved with later
    admissions. ``topology`` is anything with the
    :class:`~repro.network.topology.Topology` interface — the sharded
    runner passes a :class:`~repro.shard.cluster.ShardedCluster` — and
    ``nodes`` is the fleet in fleet order. Every stream after the fleet
    and placement draws is consumed here, so runs sharing this function
    consume them identically.
    """
    events, family_of = merge_arrival_events(config, registry)
    arrivals = _session_arrivals(events, family_of)
    policy = config.sessions
    driver = SessionDriver(topology, providers, policy)

    # Lazy: repro.faults imports repro.workloads (import cycle guard).
    from repro.faults.injector import make_injector
    from repro.faults.report import ResilienceReport

    # Fault injection: an absent/empty plan yields no injector, and the
    # run below is bit-identical to the pre-fault path; an injector
    # wires partitions and crash hazards onto the driver's engine from
    # its own faults:* streams, so the fleet/arrival/failures draws are
    # never perturbed.
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

    for t, _k, _family, service in arrivals:
        driver.submit(service, t)
    driver.run()

    result = ContentionResult(
        n_requesters=config.n_requesters,
        horizon=config.horizon,
        resilience=ResilienceReport.from_sessions(driver.sessions),
    )
    for (t, k, family, _service), session in zip(arrivals, driver.sessions):
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


def merge_arrival_events(
    config: ContentionConfig, registry: RngRegistry
) -> Tuple[List[Tuple[float, int, int]], Dict[int, str]]:
    """Draw every requester's arrival stream and merge the events.

    Returns the time-sorted ``(t, requester, ordinal)`` events plus the
    requester → service-family map. The one home of the per-requester
    ``arrivals:req<k>`` stream consumption.
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


def _session_arrivals(
    events: List[Tuple[float, int, int]], family_of: Dict[int, str]
) -> List[Tuple[float, int, str, Service]]:
    """The ``(t, requester, family, service)`` of every event, in order.

    A family's services differ only in their names, requesters and task
    ids, so a run builds each family once: its first session through
    :func:`~repro.workloads.services.build_service`, and every later one
    from shells (:meth:`~repro.services.task.Task.reissue`) over the
    first one's :class:`~repro.services.task.TaskProfile` objects, which
    then share their memoized degrade walks across the run. The map of
    first sessions is local, so the profiles and their memos die with
    the run. Task ids are drawn in the order and with the prefixes the
    builder would use, because selection's final tie-break hashes them.
    """
    first: Dict[str, Service] = {}
    arrivals = []
    for t, k, ordinal in events:
        family = family_of[k]
        requester = requester_id(k)
        name = f"{family}-{requester}-{ordinal}"
        template = first.get(family)
        if template is None:
            service = first[family] = build_service(family, requester, name=name)
        else:
            service = Service(
                name=name,
                tasks=tuple(
                    _reissue(task, template.name, name) for task in template.tasks
                ),
                requester=requester,
            )
        arrivals.append((t, k, family, service))
    return arrivals


def _reissue(task: Task, old_name: str, new_name: str) -> Task:
    """``task`` for a later session of its family: an id drawn by
    :meth:`Task.fresh_id` with the builder's prefix
    (``"<service name>-<role>"``) under ``new_name``."""
    prefix = task.task_id.rsplit("-", 1)[0]
    return task.reissue(Task.fresh_id(new_name + prefix[len(old_name):]))
