"""The experiment suites (the paper’s missing evaluation section).

E1–E14 and the E18/E19 scale sweeps live in this module; the
scenario-generation, sharding and fault suites (E15–E17 and E20–E23,
in :mod:`repro.experiments.workload_suites`,
:mod:`repro.experiments.shard_suites` and
:mod:`repro.experiments.fault_suites`) are imported and registered at
the bottom so :data:`SUITE_PLANS` stays the single source of truth for
"every suite".

Each suite is written as a *plan builder*: a function taking a
:class:`~repro.experiments.config.SweepConfig` and returning a
:class:`~repro.experiments.plan.SuitePlan` — the empty result table plus
one :class:`~repro.experiments.plan.SweepPoint` per row, each carrying
its replication callable. The builder's docstring opens with the claim
the suite checks (the CLI's ``--list`` prints that line). Two
consumers exist:

* :func:`~repro.experiments.plan.run_plan`, which runs one plan into
  its table — ``run_plan(SUITE_PLANS["E1"](sweep), sweep)`` is how the
  benchmarks and tests run a suite directly;
* :func:`~repro.experiments.parallel.run_batch`, which flattens the
  plans of a whole batch into ``(suite, sweep_point, seed)`` work units
  and fans them over one pool, filling idle workers across sweep points
  and suites.

Both go through :func:`~repro.experiments.parallel.run_units` and
produce bit-identical tables. Benchmarks print the tables,
and ``docs/experiments.md`` documents what each suite measures, its
sweep axis, and the paper claim it checks.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.agents.system import AgentSystem
from repro.core import baselines
from repro.core.evaluation import ProposalEvaluator, WeightScheme
from repro.core.formulation import formulate
from repro.core.negotiation import negotiate, release_coalition
from repro.core.operation import run_operation_phase
from repro.core.proposal import Proposal
from repro.core.reward import local_reward
from repro.core.selection import SelectionPolicy
from repro.experiments.config import ClusterConfig, SweepConfig
from repro.experiments.plan import SuitePlan, SweepPoint
from repro.experiments.reporting import Table
from repro.experiments.scenario import (
    build_agent_system,
    build_cluster,
    uniform_fleet,
)
from repro.metrics.utility import assignment_utility, outcome_utility
from repro.network.mobility import GroupMobility, RandomWaypoint
from repro.network.radio import DiscRadio
from repro.network.topology import Topology
from repro.qos import catalog
from repro.qos.levels import DegradationLadder
from repro.resources.capacity import Capacity
from repro.resources.kinds import ResourceKind
from repro.resources.node import Node, NodeClass
from repro.resources.provider import QoSProvider
from repro.experiments.fault_suites import e23_plan
from repro.experiments.shard_suites import e22_plan
from repro.experiments.workload_suites import (
    e15_plan,
    e16_plan,
    e17_plan,
    e20_plan,
    e21_plan,
)
from repro.services import workload
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry


# ==========================================================================
# E1 — coalition vs single node across neighborhood sizes
# ==========================================================================


def e1_plan(sweep: SweepConfig = SweepConfig()) -> SuitePlan:
    """Claim (§1, §4.1): coalitions satisfy requests a single node cannot.

    A weak (phone-class) requester asks for full-quality movie playback.
    We sweep the neighborhood size and compare the coalition allocator
    against the requester working alone, on success rate and utility.
    """
    sizes = (2, 4, 8, 16) if sweep.quick else (2, 4, 8, 16, 24)
    table = Table(
        "E1 — coalition vs single node (movie playback, phone requester)",
        ["nodes", "single success", "single utility", "coalition success",
         "coalition utility", "coalition size"],
        caption="Mean over seeds; utility in [0,1], 1 = every attribute at "
                "the user's preferred value.",
    )
    points = []
    for n in sizes:
        def run(seed: int, n=n) -> Dict[str, float]:
            config = ClusterConfig(n_nodes=n)
            topology, providers, nodes, _ = build_cluster(config, seed)
            service = workload.movie_playback_service(requester="requester")
            single = baselines.single_node(service, topology, providers)
            coal = negotiate(service, topology, providers, commit=False)
            return {
                "single_success": float(single.success),
                "single_utility": outcome_utility(single),
                "coal_success": float(coal.success),
                "coal_utility": outcome_utility(coal),
                "coal_size": float(coal.coalition.size),
            }

        points.append(SweepPoint(
            label=n, run=run,
            keys=("single_success", "single_utility", "coal_success",
                  "coal_utility", "coal_size"),
        ))
    return SuitePlan("E1", table, points)


# ==========================================================================
# E2 — the eq. 2–5 evaluator picks proposals closest to preferences
# ==========================================================================


def _random_admissible_proposal(
    request, rng: np.random.Generator, task_id: str = "t", node_id: str = "n"
) -> Proposal:
    """A uniformly random proposal over the request's acceptable ladders."""
    ladder = DegradationLadder.from_request(request)
    values = {}
    for attr in request.attribute_names:
        options = ladder.ladder(attr)
        values[attr] = options[int(rng.integers(len(options)))]
    return Proposal(task_id=task_id, node_id=node_id, values=values)


def e2_plan(sweep: SweepConfig = SweepConfig()) -> SuitePlan:
    """Claim (§6): the distance evaluator selects the proposal whose
    values are closest to the user's preferences.

    For pools of random admissible proposals, compare the utility of the
    eq. 2 winner against a random pick and the pool's true best/worst.
    """
    pool_sizes = (2, 5, 10) if sweep.quick else (2, 5, 10, 20, 50)
    request = catalog.surveillance_request()
    table = Table(
        "E2 — evaluator selection quality (surveillance request)",
        ["pool size", "eq.2 winner utility", "random pick utility",
         "pool best utility", "pool worst utility", "regret vs best"],
        caption="eq.2 winner should track the pool best (zero regret): the "
                "evaluator is exactly the utility metric's argmin.",
    )
    evaluator = ProposalEvaluator(request)
    points = []
    for pool_size in pool_sizes:
        def run(seed: int, pool_size=pool_size) -> Dict[str, float]:
            rng = RngRegistry(seed).stream("e2")
            pool = [
                _random_admissible_proposal(request, rng, node_id=f"n{i}")
                for i in range(pool_size)
            ]
            utilities = [
                assignment_utility(request, dict(p.values)) for p in pool
            ]
            winner = min(pool, key=evaluator.distance)
            winner_u = assignment_utility(request, dict(winner.values))
            random_u = utilities[int(rng.integers(len(pool)))]
            return {
                "winner": winner_u,
                "random": random_u,
                "best": max(utilities),
                "worst": min(utilities),
                "regret": max(utilities) - winner_u,
            }

        points.append(SweepPoint(
            label=pool_size, run=run,
            keys=("winner", "random", "best", "worst", "regret"),
        ))
    return SuitePlan("E2", table, points)


# ==========================================================================
# E3 — degradation heuristic: reward under rising load
# ==========================================================================


def _degrade_until_schedulable(
    task, capacity_fraction: float, strategy: str, rng: np.random.Generator
) -> Tuple[float, float, bool]:
    """One degradation run on a single node with scaled-down capacity.

    The node's capacity interpolates between the demand of the worst
    acceptable level (fraction 0) and the preferred level (fraction 1),
    so ``capacity_fraction`` is exactly "how much of the quality-dependent
    headroom exists" and every fraction admits *some* acceptable level.

    Returns (eq.1 reward, utility, feasible).
    """
    ladder = task.ladder()
    top_demand = task.demand_at(ladder.top().values())
    bottom_demand = task.demand_at(ladder.bottom().values())
    span = top_demand.minus_clamped(bottom_demand)
    node = Node(
        "solo",
        capacity=bottom_demand + span.scaled(capacity_fraction)
        + Capacity.of(energy=1e9),  # isolate rate-resource pressure
    )
    provider = QoSProvider(node)

    if strategy == "paper":
        result = formulate(
            [task],
            lambda a: provider.can_serve(task.demand_at(a[task.task_id].values())),
        )
        assignment = result.assignments[task.task_id]
        feasible = result.feasible
    else:
        assignment = ladder.top()
        feasible = True
        while not provider.can_serve(task.demand_at(assignment.values())):
            options = [
                a for a in assignment.degradable_attributes()
                if assignment.degrade(a).respects_dependencies()
            ]
            if not options:
                feasible = False
                break
            if strategy == "random":
                attr = options[int(rng.integers(len(options)))]
            else:  # round-robin: rotate by current total degradation
                attr = options[assignment.total_degradation() % len(options)]
            assignment = assignment.degrade(attr)

    reward = local_reward(assignment)
    utility = assignment_utility(task.request, assignment.values())
    return reward, utility, feasible


def e3_plan(sweep: SweepConfig = SweepConfig()) -> SuitePlan:
    """Claim (§5, eq. 1): minimum-reward-decrease degradation retains more
    reward/utility than uninformed degradation under the same load.
    """
    fractions = (1.0, 0.7, 0.5) if sweep.quick else (1.0, 0.8, 0.6, 0.5, 0.4, 0.3)
    service = workload.movie_playback_service(requester="r")
    task = service.tasks[0]
    table = Table(
        "E3 — degradation strategies under load (video decode task)",
        ["capacity fraction", "paper reward", "random reward", "round-robin reward",
         "paper utility", "random utility"],
        caption="Capacity fraction = share of the quality-dependent resource "
                "headroom available (1.0 admits the preferred level, 0.0 "
                "only the worst acceptable one); lower = more degradation "
                "forced.",
    )
    points = []
    for fraction in fractions:
        def run(seed: int, fraction=fraction) -> Dict[str, float]:
            rng = RngRegistry(seed).stream("e3")
            paper_r, paper_u, _ = _degrade_until_schedulable(task, fraction, "paper", rng)
            rand_r, rand_u, _ = _degrade_until_schedulable(task, fraction, "random", rng)
            rr_r, _, _ = _degrade_until_schedulable(task, fraction, "round-robin", rng)
            return {
                "paper_reward": paper_r,
                "random_reward": rand_r,
                "rr_reward": rr_r,
                "paper_utility": paper_u,
                "random_utility": rand_u,
            }

        points.append(SweepPoint(
            label=fraction, run=run,
            keys=("paper_reward", "random_reward", "rr_reward",
                  "paper_utility", "random_utility"),
        ))
    return SuitePlan("E3", table, points)


# ==========================================================================
# E4 — protocol scalability with neighborhood size
# ==========================================================================


def _agent_protocol_points(sizes: Tuple[int, ...]) -> List[SweepPoint]:
    """One sweep point per node count of the agent-based movie-playback
    protocol run — the measurement body shared by E4 and its E18 scale
    sweep, so the two suites can never drift apart in what they measure.
    """
    points = []
    for n in sizes:
        def run(seed: int, n=n) -> Dict[str, float]:
            config = ClusterConfig(n_nodes=n, area=100.0)
            system = build_agent_system(config, seed, reliable_channel=True)
            service = workload.movie_playback_service(requester="requester")
            start = system.engine.now
            outcome = system.negotiate(service)
            elapsed = system.engine.now - start
            assert outcome is not None
            return {
                "messages": float(system.network.sent_count),
                "time": elapsed,
                "success": float(outcome.success),
                "proposals": float(outcome.proposals_received),
            }

        points.append(SweepPoint(
            label=n, run=run,
            keys=("messages", "time", "success", "proposals"),
        ))
    return points


def e4_plan(sweep: SweepConfig = SweepConfig()) -> SuitePlan:
    """Claim (§1, §4.2): the distributed protocol scales with node count.

    Agent-based negotiation on the simulated network; messages should grow
    linearly in the audience and negotiation time stays bounded by the
    proposal window + award round-trips.
    """
    sizes = (4, 8, 16) if sweep.quick else (4, 8, 16, 32, 64)
    table = Table(
        "E4 — protocol scalability (agent-based, movie playback)",
        ["nodes", "messages", "sim time (s)", "success", "proposals"],
        caption="Messages = every radio transmission the protocol makes "
                "(CFP copies, bundled PROPOSE replies, awards, "
                "confirmations); sim time = CFP broadcast to outcome "
                "delivery.",
    )
    return SuitePlan("E4", table, _agent_protocol_points(sizes))


# ==========================================================================
# E5 — mobility: success under topology churn
# ==========================================================================


#: What :func:`_mobile_requests` measures, in table column order.
_MOBILE_KEYS = ("success", "utility", "candidates", "partners", "lost")


def _mobile_requests(system: AgentSystem, n_requests: int, gap: float) -> Dict[str, float]:
    """Negotiate ``n_requests`` sequential movie requests on a mobile
    agent system, idling ``gap`` simulated seconds after each, and
    measure them — the body shared by E5 and its E19 scale sweep, so the
    two suites can never drift apart in what they measure.
    """
    outcomes = []
    partners: set = set()
    for r in range(n_requests):
        service = workload.movie_playback_service(
            requester="requester", name=f"movie-{r}"
        )
        outcome = system.negotiate(service)
        if outcome is not None:
            outcomes.append(outcome)
            partners |= set(outcome.coalition.members)
            release_coalition(outcome.coalition, system.providers,
                              system.engine.now)
        # Idle until the next request so mobility resamples range.
        system.engine.run(until=system.engine.now + gap)
    if not outcomes:
        return {"success": 0.0, "utility": 0.0, "candidates": 0.0,
                "partners": 0.0,
                "lost": float(system.network.lost_count)}
    return {
        "success": float(np.mean([o.success for o in outcomes])),
        "utility": float(np.mean([outcome_utility(o) for o in outcomes])),
        "candidates": float(np.mean([len(o.candidates) for o in outcomes])),
        "partners": float(len(partners)),
        "lost": float(system.network.lost_count),
    }


def e5_plan(sweep: SweepConfig = SweepConfig()) -> SuitePlan:
    """Claim (§1): coalitions form opportunistically "as nodes move in
    range of each other".

    Nodes follow random waypoint in an area larger than one radio disc,
    so the requester's neighborhood is partial and keeps changing. Two
    opposing effects are measured across speeds:

    * **opportunity** — moving nodes bring fresh candidates into range
      between requests (distinct partners / mean candidates grow);
    * **churn risk** — nodes drifting away mid-negotiation lose
      messages (award timeouts, fall-throughs).

    Between consecutive requests the run idles 30 s of simulated time, so
    the topology at each request is genuinely resampled.
    """
    speeds = (0.0, 5.0) if sweep.quick else (0.0, 1.0, 3.0, 6.0, 12.0)
    table = Table(
        "E5 — mobility and opportunism (random waypoint, 12 nodes)",
        ["speed (m/s)", "success rate", "mean utility", "mean candidates",
         "distinct partners", "messages lost"],
        caption="8 sequential movie requests per run, 30 s apart, mobility "
                "ticking at 1 s. Static isolated requesters stay isolated; "
                "mobility brings candidates into range (opportunism) but "
                "loses more messages in flight (churn).",
    )
    n_requests = 4 if sweep.quick else 8
    points = []
    for speed in speeds:
        def run(seed: int, speed=speed) -> Dict[str, float]:
            registry = RngRegistry(seed)
            config = ClusterConfig(n_nodes=12, area=220.0)
            mobility = RandomWaypoint(
                width=220.0, height=220.0,
                speed_min=0.0, speed_max=speed, pause=1.0,
                rng=registry.stream("mobility"),
            )
            system = build_agent_system(config, seed, mobility=mobility)
            system.start_mobility_process(tick=1.0, until=n_requests * 40.0)
            return _mobile_requests(system, n_requests, gap=30.0)

        points.append(SweepPoint(label=speed, run=run, keys=_MOBILE_KEYS))
    return SuitePlan("E5", table, points)


# ==========================================================================
# E6 — tie-breaking ablation
# ==========================================================================


def e6_plan(sweep: SweepConfig = SweepConfig()) -> SuitePlan:
    """Claim (§4.2): the comm-cost and coalition-size tie-breaks cut
    operational overhead without sacrificing QoS distance.
    """
    table = Table(
        "E6 — selection tie-break ablation (16-node cluster, 2 services)",
        ["policy", "total distance", "comm cost", "coalition size", "success"],
        caption="Same proposals, different selection. Distance should be "
                "equal (tie-breaks only fire on distance ties); comm cost "
                "and size should favour the full triple.",
    )
    policies = {
        "distance only": SelectionPolicy(use_comm_cost=False, use_coalition_size=False),
        "+ comm cost": SelectionPolicy(use_comm_cost=True, use_coalition_size=False),
        "+ size only": SelectionPolicy(use_comm_cost=False, use_coalition_size=True),
        "full triple (paper)": SelectionPolicy(use_comm_cost=True, use_coalition_size=True),
    }
    # Coarser distance resolution makes ties frequent enough to observe
    # the tie-breaks with a synthetic workload (equal capacities → many
    # nodes propose identical levels).
    points = []
    for name, policy in policies.items():
        def run(seed: int, policy=policy) -> Dict[str, float]:
            config = ClusterConfig(n_nodes=16, requester_class=NodeClass.PDA, area=140.0)
            topology, providers, nodes, registry = build_cluster(config, seed)
            service = workload.synthetic_service(
                "requester", registry.stream("workload"),
                n_tasks=4, cpu_scale=30.0,
            )
            outcome = negotiate(service, topology, providers,
                                selection=policy, commit=False)
            comm = outcome.coalition.total_comm_cost()
            return {
                "distance": outcome.total_distance(),
                "comm": comm if comm != float("inf") else 99.0,
                "size": float(outcome.coalition.size),
                "success": float(outcome.success),
            }

        points.append(SweepPoint(
            label=name, run=run,
            keys=("distance", "comm", "size", "success"),
        ))
    return SuitePlan("E6", table, points)


# ==========================================================================
# E7 — heterogeneity: groups differ in efficiency
# ==========================================================================


def e7_plan(sweep: SweepConfig = SweepConfig()) -> SuitePlan:
    """Claim (§7): groups of different capability mixes differ in service
    efficiency; coalitions exploit heterogeneity.

    Fleets share the same mean CPU but differ in spread. With zero spread
    every node equals the requester; with large spread some nodes are far
    stronger, and the coalition's utility advantage over solo execution
    should widen.
    """
    spreads = (0.0, 0.5) if sweep.quick else (0.0, 0.25, 0.5, 0.75, 1.0)
    table = Table(
        "E7 — capacity heterogeneity (fixed mean CPU, varying spread)",
        ["cpu spread", "solo utility", "coalition utility", "gain",
         "coalition success"],
        caption="10 nodes, mean CPU 200 (PDA-level); the movie workload "
                "needs ~340 CPU at full quality.",
    )
    points = []
    for spread in spreads:
        def run(seed: int, spread=spread) -> Dict[str, float]:
            registry = RngRegistry(seed)
            nodes = uniform_fleet(10, cpu_mean=200.0, cpu_spread=spread,
                                  rng=registry.stream("fleet"))
            from repro.network.mobility import StaticPlacement

            placement = StaticPlacement(100.0, 100.0, registry.stream("placement"))
            placement.place(nodes)
            topology = Topology(nodes, DiscRadio(range_m=150.0))
            providers = {n.node_id: QoSProvider(n) for n in nodes}
            service = workload.movie_playback_service(requester="requester")
            solo = baselines.single_node(service, topology, providers)
            coal = negotiate(service, topology, providers, commit=False)
            solo_u = outcome_utility(solo)
            coal_u = outcome_utility(coal)
            return {
                "solo": solo_u,
                "coal": coal_u,
                "gain": coal_u - solo_u,
                "success": float(coal.success),
            }

        points.append(SweepPoint(
            label=spread, run=run,
            keys=("solo", "coal", "gain", "success"),
        ))
    return SuitePlan("E7", table, points)


# ==========================================================================
# E8 — failure recovery via reconfiguration
# ==========================================================================


def e8_plan(sweep: SweepConfig = SweepConfig()) -> SuitePlan:
    """Claim (§4): the operation phase reconfigures coalitions on partial
    failures.

    Form a coalition, crash 0–3 members mid-operation, and compare task
    completion with reconfiguration enabled vs disabled.
    """
    failure_counts = (0, 1, 2) if sweep.quick else (0, 1, 2, 3)
    table = Table(
        "E8 — failure recovery (16 nodes, movie + surveillance)",
        ["failures", "completed (reconfig)", "completed (none)",
         "reconfigurations", "recovery rate"],
        caption="Completed = fraction of tasks finishing; failures hit the "
                "busiest coalition members halfway through execution.",
    )
    points = []
    for n_failures in failure_counts:
        def run(seed: int, n_failures=n_failures) -> Dict[str, float]:
            results = {}
            for mode in ("reconfig", "none"):
                config = ClusterConfig(n_nodes=16, area=110.0)
                topology, providers, nodes, registry = build_cluster(config, seed)
                service = workload.movie_playback_service(requester="requester")
                engine = Engine(seed=seed)
                outcome = negotiate(service, topology, providers, commit=True)
                members = sorted(
                    outcome.coalition.members - {"requester"}
                ) or sorted(outcome.coalition.members)
                victims = members[:n_failures]
                failures = [(5.0 + i, v) for i, v in enumerate(victims)]
                report = run_operation_phase(
                    outcome.coalition, topology, providers, engine,
                    failures=failures,
                    allow_reconfiguration=(mode == "reconfig"),
                )
                total = len(service.tasks)
                results[mode] = (report.completed / total, report)
                for node in nodes:  # heal for the second mode's fresh build
                    node.recover()
            reconfig_frac, reconfig_report = results["reconfig"]
            none_frac, _ = results["none"]
            return {
                "completed_reconfig": reconfig_frac,
                "completed_none": none_frac,
                "reconfigs": float(reconfig_report.reconfigurations),
                "recovery": reconfig_report.recovery_rate,
            }

        points.append(SweepPoint(
            label=n_failures, run=run,
            keys=("completed_reconfig", "completed_none", "reconfigs",
                  "recovery"),
        ))
    return SuitePlan("E8", table, points)


# ==========================================================================
# E9 — weight-scheme ablation (eq. 3)
# ==========================================================================


def e9_plan(sweep: SweepConfig = SweepConfig()) -> SuitePlan:
    """Claim (§6, eq. 3): positional weights make the evaluator respect
    the user's importance order.

    The same random proposal pools are judged under the paper's linear
    weights, uniform weights, and geometric weights; we report how well
    the winner serves the *most important* dimension vs the least
    important one.
    """
    # A perfectly symmetric two-dimension spec: both dimensions have the
    # same attributes/domains, so a k-step degradation has *identical*
    # raw dif on either dimension — the weight scheme is the only thing
    # that can break the symmetry.
    spec = catalog.synthetic_spec(n_dimensions=2, attrs_per_dimension=2,
                                  levels_per_attribute=5, name="e9-spec")
    request = catalog.synthetic_request(spec, name="e9-request")
    evaluators = {
        "linear (paper)": ProposalEvaluator(request, weights=WeightScheme.LINEAR),
        "uniform": ProposalEvaluator(request, weights=WeightScheme.UNIFORM),
        "geometric": ProposalEvaluator(request, weights=WeightScheme.GEOMETRIC),
    }
    top_dim = request.dimensions[0].dimension
    bottom_dim = request.dimensions[-1].dimension
    ladder = DegradationLadder.from_request(request)
    table = Table(
        "E9 — eq. 3 weight-scheme ablation (symmetric antagonistic pairs)",
        ["scheme", "protects top dim %", "winner top-dim dist",
         "winner bottom-dim dist", "winner distance"],
        caption="Each trial pits a proposal degraded k steps on the most "
                "important dimension against its exact mirror degraded k "
                "steps on the least important one. 'protects top dim %' = "
                "how often the winner keeps the most important dimension "
                "at preference. Positional weights must protect it (100%); "
                "uniform weights are indifferent and fall to the node-id "
                "tie-break, here arranged to pick the wrong one (0%).",
    )

    def antagonistic_pair(depth: int) -> Tuple[Proposal, Proposal]:
        def degraded(dim_name: str) -> Dict[str, object]:
            a = ladder.top()
            budget = depth
            attrs = list(request.dimension_preference(dim_name).attributes)
            while budget > 0:
                progressed = False
                for ap in attrs:
                    if budget > 0 and a.can_degrade(ap.attribute):
                        a = a.degrade(ap.attribute)
                        budget -= 1
                        progressed = True
                if not progressed:
                    break
            return a.values()

        # Node ids chosen so the uniform scheme's tie-break lands on the
        # top-dimension-degrading proposal, exposing its indifference.
        bad_top = Proposal(task_id="t", node_id="a-bad-top",
                           values=degraded(top_dim))
        bad_bottom = Proposal(task_id="t", node_id="b-bad-bottom",
                              values=degraded(bottom_dim))
        return bad_top, bad_bottom

    points = []
    for name, evaluator in evaluators.items():
        def run(seed: int, evaluator=evaluator) -> Dict[str, float]:
            rng = RngRegistry(seed).stream("e9")
            protected = 0
            tops: List[float] = []
            bottoms: List[float] = []
            dists: List[float] = []
            trials = 10
            for _ in range(trials):
                depth = int(rng.integers(1, 7))
                bad_top, bad_bottom = antagonistic_pair(depth)
                d_top = evaluator.distance(bad_top)
                d_bottom = evaluator.distance(bad_bottom)
                if d_bottom < d_top:
                    winner = bad_bottom
                elif d_top < d_bottom:
                    winner = bad_top
                else:  # exact tie: the selection policy's node-id break
                    winner = min((bad_top, bad_bottom), key=lambda p: p.node_id)
                if winner is bad_bottom:
                    protected += 1
                tops.append(evaluator.dimension_distance(top_dim, winner))
                bottoms.append(evaluator.dimension_distance(bottom_dim, winner))
                dists.append(evaluator.distance(winner))
            return {
                "protects_pct": 100.0 * protected / trials,
                "top": float(np.mean(tops)),
                "bottom": float(np.mean(bottoms)),
                "distance": float(np.mean(dists)),
            }

        points.append(SweepPoint(
            label=name, run=run,
            keys=("protects_pct", "top", "bottom", "distance"),
        ))
    return SuitePlan("E9", table, points)


# ==========================================================================
# E10 — offloading saves requester energy and time
# ==========================================================================

#: Radio energy per kB transferred (joules), for the requester-side cost
#: of shipping task data to a remote executor. Calibrated so that
#: offloading a movie decode (≈550 kB) costs ~2% of a phone battery while
#: executing it locally (≈2800 J at full quality) would cost ~90%.
TRANSFER_ENERGY_PER_KB = 0.1


def e10_plan(sweep: SweepConfig = SweepConfig()) -> SuitePlan:
    """Claim (§1, §7): offloading to nearby stronger nodes saves the weak
    device time and battery, net of the extra data communication.
    """
    neighbor_counts = (1, 3) if sweep.quick else (0, 1, 3, 6)
    table = Table(
        "E10 — offloading economics (phone requester, laptop neighbors)",
        ["laptop neighbors", "local energy (J)", "coalition energy (J)",
         "energy saved %", "local utility", "coalition utility"],
        caption="Requester-side energy: execution energy if local, radio "
                "transfer energy for offloaded tasks. Local infeasible "
                "runs spend the fully-degraded energy (when even that "
                "fits) or mark the service failed.",
    )
    points = []
    for k in neighbor_counts:
        def run(seed: int, k=k) -> Dict[str, float]:
            registry = RngRegistry(seed)
            nodes = [Node("requester", NodeClass.PHONE)]
            nodes += [Node(f"lap{i}", NodeClass.LAPTOP) for i in range(k)]
            from repro.network.mobility import StaticPlacement

            placement = StaticPlacement(60.0, 60.0, registry.stream("placement"))
            placement.place(nodes)
            topology = Topology(nodes, DiscRadio(range_m=100.0))
            providers = {n.node_id: QoSProvider(n) for n in nodes}
            service = workload.surveillance_service(requester="requester")

            local = baselines.single_node(service, topology, providers)
            local_energy = sum(
                a.demand.get(ResourceKind.ENERGY)
                for a in local.coalition.awards.values()
            )
            coal = negotiate(service, topology, providers, commit=False)
            coal_energy = 0.0
            for task in service.tasks:
                award = coal.coalition.awards.get(task.task_id)
                if award is None:
                    continue
                if award.node_id == "requester":
                    coal_energy += award.demand.get(ResourceKind.ENERGY)
                else:
                    coal_energy += task.transfer_kb() * TRANSFER_ENERGY_PER_KB
            saved = (
                100.0 * (local_energy - coal_energy) / local_energy
                if local_energy > 0 else 0.0
            )
            return {
                "local_energy": local_energy,
                "coal_energy": coal_energy,
                "saved_pct": saved if local.success else 100.0,
                "local_utility": outcome_utility(local),
                "coal_utility": outcome_utility(coal),
            }

        points.append(SweepPoint(
            label=k, run=run,
            keys=("local_energy", "coal_energy", "saved_pct",
                  "local_utility", "coal_utility"),
        ))
    return SuitePlan("E10", table, points)


# ==========================================================================
# E11 — relayed CFP: coverage vs hop budget (extension)
# ==========================================================================


def e11_plan(sweep: SweepConfig = SweepConfig()) -> SuitePlan:
    """Extension of §1's scope ("encompass fixed set of nodes, even
    clusters"): the paper's CFP is one-hop; relaying it k hops reaches
    nodes beyond radio range of the requester.

    A sparse network (area ≫ radio range) is swept over the hop budget;
    success and utility should rise with reach, messages with the flood.
    """
    hop_budgets = (1, 2) if sweep.quick else (1, 2, 3, 4)
    table = Table(
        "E11 — relayed CFP in a sparse network (16 nodes, 420 m area)",
        ["max hops", "candidates", "success rate", "utility", "messages"],
        caption="Synchronous protocol with k-hop audiences; communication "
                "cost uses the best multi-hop route. One hop is the "
                "paper's broadcast.",
    )
    points = []
    for hops in hop_budgets:
        def run(seed: int, hops=hops) -> Dict[str, float]:
            config = ClusterConfig(n_nodes=16, area=420.0)
            topology, providers, nodes, _ = build_cluster(config, seed)
            service = workload.movie_playback_service(requester="requester")
            outcome = negotiate(service, topology, providers, commit=False,
                                max_hops=hops)
            return {
                "candidates": float(len(outcome.candidates)),
                "success": float(outcome.success),
                "utility": outcome_utility(outcome),
                "messages": float(outcome.message_count),
            }

        points.append(SweepPoint(
            label=hops, run=run,
            keys=("candidates", "success", "utility", "messages"),
        ))
    return SuitePlan("E11", table, points)


# ==========================================================================
# E12 — reputation-aware selection vs flaky nodes (extension)
# ==========================================================================


def e12_plan(sweep: SweepConfig = SweepConfig()) -> SuitePlan:
    """Extension (paper cites trust-based coalition formation [4]): feed
    operation-phase failure observations back into partner selection.

    Half the helper nodes are flaky (crash during execution with
    probability ``p_fail`` whenever they hold a task). Over repeated
    service rounds, reputation-aware selection should learn to avoid
    them, raising first-try completion above the memoryless protocol.
    """
    from repro.core.reputation import ReputationTracker

    modes = ("paper (no memory)", "reputation-aware")
    table = Table(
        "E12 — reputation vs flaky nodes (12 nodes, 50% flaky, 12 rounds)",
        ["policy", "first-try completion", "late-round completion",
         "flaky awards %"],
        caption="Flaky nodes crash with p=0.6 while executing. First-try "
                "completion counts tasks finishing without reconfiguration; "
                "late-round = last 6 rounds only (after learning). "
                "'flaky awards %' = share of awards given to flaky nodes.",
    )
    n_rounds = 6 if sweep.quick else 12
    points = []
    for mode in modes:
        def run(seed: int, mode=mode) -> Dict[str, float]:
            registry = RngRegistry(seed)
            flaky_rng = registry.stream("flaky")
            nodes = [Node("requester", NodeClass.PHONE)]
            flaky_ids = set()
            for i in range(11):
                node = Node(f"n{i}", NodeClass.LAPTOP)
                if i % 2 == 0:
                    flaky_ids.add(node.node_id)
                nodes.append(node)
            from repro.network.mobility import StaticPlacement

            placement = StaticPlacement(100.0, 100.0, registry.stream("place"))
            placement.place(nodes)
            topology = Topology(nodes, DiscRadio(range_m=150.0))
            providers = {n.node_id: QoSProvider(n) for n in nodes}
            tracker = ReputationTracker()
            selection = SelectionPolicy(use_reputation=(mode != "paper (no memory)"))

            first_try = []
            late = []
            flaky_awards = 0
            total_awards = 0
            for rnd in range(n_rounds):
                service = workload.movie_playback_service(
                    requester="requester", name=f"r{rnd}"
                )
                outcome = negotiate(
                    service, topology, providers, commit=True,
                    selection=selection,
                    reputation=tracker if mode != "paper (no memory)" else None,
                )
                for award in outcome.coalition.awards.values():
                    total_awards += 1
                    if award.node_id in flaky_ids:
                        flaky_awards += 1
                # Flaky members crash mid-run with probability 0.6.
                failures = [
                    (2.0 + i, member)
                    for i, member in enumerate(sorted(outcome.coalition.members))
                    if member in flaky_ids and flaky_rng.random() < 0.6
                ]
                engine = Engine(seed=seed * 1000 + rnd)
                report = run_operation_phase(
                    outcome.coalition, topology, providers, engine,
                    failures=failures,
                )
                tracker.observe_operation(report, outcome.coalition)
                frac_first = sum(
                    1 for o in report.outcomes.values()
                    if o.status == "completed" and o.reallocations == 0
                ) / len(service.tasks)
                first_try.append(frac_first)
                if rnd >= n_rounds // 2:
                    late.append(frac_first)
                # Crashed nodes reboot between rounds.
                for node in nodes:
                    node.recover()
                topology.rebuild()
            return {
                "first_try": float(np.mean(first_try)),
                "late": float(np.mean(late)),
                "flaky_pct": 100.0 * flaky_awards / max(total_awards, 1),
            }

        points.append(SweepPoint(
            label=mode, run=run,
            keys=("first_try", "late", "flaky_pct"),
        ))
    return SuitePlan("E12", table, points)


# ==========================================================================
# E13 — battery-aware selection and network lifetime (extension)
# ==========================================================================


def e13_plan(sweep: SweepConfig = SweepConfig()) -> SuitePlan:
    """Extension of the §1/§7 energy motivation: spread energy drain
    across batteries.

    Total service extracted is energy-conserved (both policies serve a
    similar number of rounds), so the benefit of battery-awareness is
    *balance*: after a fixed number of rounds the residual batteries are
    far more even, keeping every helper available for future demands
    instead of a dead nearest neighbor and untouched far ones. We report
    Jain's fairness index over the residual helper batteries and the
    minimum residual fraction at a mid-experiment checkpoint.
    """
    modes = ("paper triple", "battery-aware")
    checkpoint = 12
    table = Table(
        "E13 — battery-aware selection (6 equal helpers, graded distances)",
        ["policy", "fairness @12 rounds", "min battery @12 rounds",
         "total rounds served"],
        caption="Identical helpers (800 J) at graded distances; all "
                "proposals tie on eq. 2 distance. Jain's fairness index "
                "over residual helper batteries: 1.0 = perfectly even, "
                "1/6 = one node carried everything. Total rounds is "
                "energy-conserved and should match across policies.",
    )
    points = []
    for mode in modes:
        def run(seed: int, mode=mode) -> Dict[str, float]:
            helper_cap = Capacity.of(
                cpu=400.0, memory=256.0, bus_bandwidth=100.0,
                net_bandwidth=4000.0, energy=800.0,
            )
            nodes = [Node("requester", NodeClass.PHONE, position=(0.0, 0.0))]
            # Graded distances: comm cost strictly prefers h0 > h1 > ...
            # (bandwidth falls off beyond half range = 75 m).
            nodes += [
                Node(f"h{i}", capacity=helper_cap,
                     position=(80.0 + 10.0 * i, 0.0))
                for i in range(6)
            ]
            topology = Topology(nodes, DiscRadio(range_m=150.0))
            providers = {n.node_id: QoSProvider(n) for n in nodes}
            selection = SelectionPolicy(use_battery=(mode == "battery-aware"))

            def fairness() -> Tuple[float, float]:
                residuals = [n.battery_fraction for n in nodes[1:]]
                total = sum(residuals)
                if total == 0:
                    return 1.0, 0.0
                jain = total ** 2 / (len(residuals) * sum(r * r for r in residuals))
                return jain, min(residuals)

            served = 0
            jain_at_checkpoint, min_at_checkpoint = 1.0, 1.0
            for rnd in range(60):
                service = workload.surveillance_service(
                    requester="requester", name=f"b{rnd}"
                )
                outcome = negotiate(service, topology, providers,
                                    commit=True, selection=selection)
                release_coalition(outcome.coalition, providers)
                if not outcome.success:
                    break
                served += 1
                if served == checkpoint:
                    jain_at_checkpoint, min_at_checkpoint = fairness()
                topology.rebuild()
            return {
                "jain": jain_at_checkpoint,
                "min_battery": min_at_checkpoint,
                "served": float(served),
            }

        points.append(SweepPoint(
            label=mode, run=run,
            keys=("jain", "min_battery", "served"),
        ))
    return SuitePlan("E13", table, points)


# ==========================================================================
# E14 — precedence pipelines: makespan and mid-pipeline failures (extension)
# ==========================================================================


def e14_plan(sweep: SweepConfig = SweepConfig()) -> SuitePlan:
    """Extension of §4.1's "(for now) independent tasks": a three-stage
    media pipeline with precedence edges, executed by a coalition.

    Expected shape: without failures, makespan equals the critical path
    (three sequential stages) even though four tasks were allocated;
    failing the middle stage's executor mid-run triggers reconfiguration
    and extends the makespan by roughly one stage restart, while
    completion stays at 1.0.
    """
    table = Table(
        "E14 — precedence pipeline (fetch→decode→enhance ∥ audio)",
        ["mid-stage failures", "completed", "makespan (s)",
         "critical path (s)", "reconfigurations"],
        caption="Stage duration 8 s; critical path = 24 s. A failure hits "
                "the decode stage's executor 4 s after the stage starts.",
    )
    points = []
    for n_failures in (0, 1):
        def run(seed: int, n_failures=n_failures) -> Dict[str, float]:
            config = ClusterConfig(n_nodes=10, area=100.0)
            topology, providers, nodes, _ = build_cluster(config, seed)
            service = workload.pipeline_service(requester="requester")
            outcome = negotiate(service, topology, providers, commit=True)
            engine = Engine(seed=seed)
            decode_tid = service.tasks[1].task_id
            failures = []
            if outcome.success and n_failures > 0:
                executor = outcome.coalition.awards[decode_tid].node_id
                # The decode stage starts at t=8 (after fetch completes);
                # crash its executor 4 s into the stage.
                failures = [(12.0, executor)]
            report = run_operation_phase(
                outcome.coalition, topology, providers, engine,
                failures=failures,
            )
            return {
                "completed": report.completed / len(service.tasks),
                "makespan": report.makespan,
                "critical": service.critical_path_length(),
                "reconfigs": float(report.reconfigurations),
            }

        points.append(SweepPoint(
            label=n_failures, run=run,
            keys=("completed", "makespan", "critical", "reconfigs"),
        ))
    return SuitePlan("E14", table, points)


# ==========================================================================
# E18 — scale sweep: the negotiation hot path at large audiences
# ==========================================================================


def e18_plan(sweep: SweepConfig = SweepConfig()) -> SuitePlan:
    """Perf trajectory (ROADMAP: scale the simulator itself): E4's
    agent-based movie-playback scenario pushed to large audiences.

    Same protocol and metrics as E4, swept to 16/32/64/128 nodes — the
    regime where the pre-batching simulator spent most of its wall time
    in per-proposal evaluation and per-node reformulation. The table's
    metrics are deterministic (bit-identical serial vs parallel, like
    every suite); the *wall time* recorded in ``BENCH_E18.json`` is the
    speedup gauge. CI re-runs the full sweep and diffs it against the
    committed ``benchmarks/results/BENCH_E18.json`` with
    ``tools/bench_diff.py --wall-rtol 4.0`` — exact on results, coarse
    on wall time (see ``docs/performance.md``).
    """
    sizes = (16, 32) if sweep.quick else (16, 32, 64, 128)
    table = Table(
        "E18 — scale sweep (agent-based, movie playback, 16–128 nodes)",
        ["nodes", "messages", "sim time (s)", "success", "proposals"],
        caption="E4's scenario at E4-and-beyond audiences. Messages = "
                "every radio transmission (CFP copies, bundled PROPOSE "
                "replies, awards, confirmations); wall time lives in "
                "the bench report, not the table, so the determinism "
                "gate stays exact.",
    )
    return SuitePlan("E18", table, _agent_protocol_points(sizes))


# ==========================================================================
# E19 — mobility at scale: the vectorized network layer under churn
# ==========================================================================


def e19_plan(sweep: SweepConfig = SweepConfig()) -> SuitePlan:
    """Perf trajectory (ROADMAP: as fast as the hardware allows): E5's
    mobility scenario pushed to large fleets, swept over node count ×
    mobility model, with relayed two-hop CFPs.

    Every simulated second the whole fleet moves and the topology is
    rebuilt — the dense pairwise-recompute workload the numpy arena
    vectorizes — and every CFP prices its candidates over best multi-hop
    routes, hitting the per-epoch route cache. Metrics are deterministic
    (bit-identical serial vs parallel); wall time lives in
    ``BENCH_E19.json``, and CI diffs a full sweep against the committed
    snapshot with ``tools/bench_diff.py`` like E18.
    """
    combos = (
        [("waypoint", 16), ("waypoint", 32)] if sweep.quick
        else [
            ("waypoint", 32), ("waypoint", 64), ("waypoint", 128),
            ("group", 32), ("group", 64), ("group", 128),
        ]
    )
    table = Table(
        "E19 — mobility at scale (random waypoint / group mobility, 2-hop CFPs)",
        ["model × nodes", "success rate", "mean utility", "mean candidates",
         "distinct partners", "messages lost"],
        caption="Sequential movie requests 20 s apart, mobility ticking at "
                "1 s (a full topology rebuild per tick), CFPs relayed two "
                "hops with route-cost tie-breaks over the epoch-cached "
                "multi-hop routes. Area grows with sqrt(nodes) so density "
                "stays comparable across scales.",
    )
    n_requests = 2 if sweep.quick else 3
    points = []
    for model_name, n_nodes in combos:
        def run(seed: int, model_name=model_name, n_nodes=n_nodes) -> Dict[str, float]:
            registry = RngRegistry(seed)
            area = 60.0 * float(np.sqrt(n_nodes))
            if model_name == "waypoint":
                mobility = RandomWaypoint(
                    width=area, height=area,
                    speed_min=0.0, speed_max=6.0, pause=1.0,
                    rng=registry.stream("mobility"),
                )
            else:
                leader = RandomWaypoint(
                    width=area, height=area,
                    speed_min=1.0, speed_max=4.0, pause=0.0,
                    rng=registry.stream("leader"),
                )
                mobility = GroupMobility(
                    leader, spread=min(140.0, area / 2.0),
                    rng=registry.stream("mobility"),
                )
            config = ClusterConfig(n_nodes=n_nodes, area=area)
            system = build_agent_system(
                config, seed, mobility=mobility, max_hops=2
            )
            system.start_mobility_process(tick=1.0, until=n_requests * 25.0)
            return _mobile_requests(system, n_requests, gap=20.0)

        points.append(SweepPoint(
            label=f"{model_name}-{n_nodes}", run=run, keys=_MOBILE_KEYS,
        ))
    return SuitePlan("E19", table, points)


#: Plan builders, keyed by experiment id — what
#: :func:`repro.experiments.parallel.run_batch` consumes.
SUITE_PLANS: Dict[str, Callable[[SweepConfig], SuitePlan]] = {
    "E1": e1_plan,
    "E2": e2_plan,
    "E3": e3_plan,
    "E4": e4_plan,
    "E5": e5_plan,
    "E6": e6_plan,
    "E7": e7_plan,
    "E8": e8_plan,
    "E9": e9_plan,
    "E10": e10_plan,
    "E11": e11_plan,
    "E12": e12_plan,
    "E13": e13_plan,
    "E14": e14_plan,
    "E15": e15_plan,
    "E16": e16_plan,
    "E17": e17_plan,
    "E18": e18_plan,
    "E19": e19_plan,
    "E20": e20_plan,
    "E21": e21_plan,
    "E22": e22_plan,
    "E23": e23_plan,
}
