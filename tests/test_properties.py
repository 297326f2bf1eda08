"""Property-based tests (hypothesis) for core invariants.

These encode the mathematical guarantees the paper's equations and our
substrates must uphold, over randomized inputs:

* eq. 5 ``dif``: bounded by 1, zero iff proposed == preferred (domain
  normalization), monotone in quality-index distance;
* eq. 3 weights: in (0, 1], non-increasing in rank;
* eq. 2 distance: non-negative, zero exactly at the preferred proposal;
* eq. 1 reward: maximal at the top level, monotone under degradation;
* formulation: terminates, result schedulable when feasible, never
  violates dependencies;
* Resource Manager: reserved + available == capacity under arbitrary
  reserve/release interleavings;
* Capacity algebra: addition/subtraction roundtrips, covers() ordering,
  exact component-wise sums and scales, ``+0.0`` for a zero difference,
  and covers() as the per-kind ``d <= h + SLACK`` rule;
* DES engine: events fire in non-decreasing time order;
* topology: disc-model symmetry.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.evaluation import ProposalEvaluator, WeightScheme
from repro.core.formulation import formulate
from repro.core.proposal import Proposal
from repro.core.reward import local_reward
from repro.network.radio import DiscRadio
from repro.network.topology import Topology
from repro.qos import catalog
from repro.qos.catalog import COLOR_DEPTH, FRAME_RATE, SAMPLE_BITS, SAMPLING_RATE
from repro.qos.levels import DegradationLadder
from repro.resources.capacity import SLACK, Capacity
from repro.resources.kinds import KINDS, ResourceKind
from repro.resources.manager import ResourceManager
from repro.resources.node import Node
from repro.services import workload
from repro.services.task import Task
from repro.sim.engine import Engine

REQUEST = catalog.surveillance_request()
EVALUATOR = ProposalEvaluator(REQUEST)
LADDER = DegradationLadder.from_request(REQUEST)

frame_rates = st.integers(min_value=1, max_value=30)
color_depths = st.sampled_from([1, 3, 8, 16, 24])
sampling_rates = st.sampled_from([8, 16, 24, 44])
sample_bits = st.sampled_from([8, 16, 24])


def _proposal(fr, cd, sr, sb):
    return Proposal(
        task_id="t", node_id="n",
        values={FRAME_RATE: fr, COLOR_DEPTH: cd,
                SAMPLING_RATE: sr, SAMPLE_BITS: sb},
    )


# -- eq. 5 --------------------------------------------------------------------


@given(frame_rates)
def test_dif_continuous_bounded_and_zero_iff_preferred(fr):
    d = EVALUATOR.dif(FRAME_RATE, fr)
    assert 0.0 <= d <= 1.0
    assert (d == 0.0) == (fr == 10)


@given(color_depths)
def test_dif_discrete_bounded_and_zero_iff_preferred(cd):
    d = EVALUATOR.dif(COLOR_DEPTH, cd)
    assert 0.0 <= d <= 1.0
    assert (d == 0.0) == (cd == 3)


@given(st.sampled_from([1, 3, 8, 16, 24]), st.sampled_from([1, 3, 8, 16, 24]))
def test_dif_discrete_monotone_in_position_distance(a, b):
    """Larger quality-index distance from the preferred value => larger dif."""
    domain = REQUEST.spec.attribute(COLOR_DEPTH).domain
    pref_pos = domain.position(3)
    da, db = EVALUATOR.dif(COLOR_DEPTH, a), EVALUATOR.dif(COLOR_DEPTH, b)
    if abs(domain.position(a) - pref_pos) < abs(domain.position(b) - pref_pos):
        assert da < db


# -- eq. 3 --------------------------------------------------------------------


@given(st.integers(min_value=1, max_value=30))
def test_weights_bounded_and_monotone(n):
    for scheme in WeightScheme:
        ws = [scheme.weight(k, n) for k in range(1, n + 1)]
        assert all(0.0 < w <= 1.0 for w in ws)
        assert all(ws[i] >= ws[i + 1] for i in range(n - 1))


@given(st.integers(min_value=1, max_value=30))
def test_linear_weight_formula_exact(n):
    """eq. 3 verbatim: w_k = (n - k + 1)/n."""
    for k in range(1, n + 1):
        assert WeightScheme.LINEAR.weight(k, n) == (n - k + 1) / n


# -- eq. 2 --------------------------------------------------------------------


@given(frame_rates, color_depths, sampling_rates, sample_bits)
def test_distance_nonnegative_and_bounded(fr, cd, sr, sb):
    d = EVALUATOR.distance(_proposal(fr, cd, sr, sb))
    assert 0.0 <= d <= EVALUATOR.max_distance() + 1e-12


@given(frame_rates, color_depths, sampling_rates, sample_bits)
def test_distance_zero_iff_fully_preferred(fr, cd, sr, sb):
    d = EVALUATOR.distance(_proposal(fr, cd, sr, sb))
    preferred = (fr == 10 and cd == 3 and sr == 8 and sb == 8)
    assert (d == 0.0) == preferred


@given(frame_rates, frame_rates)
def test_distance_respects_frame_rate_dominance(fr_a, fr_b):
    """All else equal, the frame rate closer to preference scores lower."""
    da = EVALUATOR.distance(_proposal(fr_a, 3, 8, 8))
    db = EVALUATOR.distance(_proposal(fr_b, 3, 8, 8))
    if abs(fr_a - 10) < abs(fr_b - 10):
        assert da < db


# -- eq. 1 --------------------------------------------------------------------


@st.composite
def assignments(draw):
    indices = {}
    for attr, ladder in LADDER.ladders.items():
        indices[attr] = draw(st.integers(0, len(ladder) - 1))
    from repro.qos.levels import QualityAssignment

    return QualityAssignment(LADDER, indices)


@given(assignments())
def test_reward_maximal_at_top(a):
    n = len(LADDER.ladders)
    assert local_reward(a) <= n
    assert (local_reward(a) == n) == a.at_top


@given(assignments())
def test_reward_monotone_under_degradation(a):
    for attr in LADDER.ladders:
        if a.can_degrade(attr):
            assert local_reward(a.degrade(attr)) < local_reward(a)


# -- formulation --------------------------------------------------------------


@given(st.floats(min_value=10.0, max_value=400.0))
@settings(max_examples=25, deadline=None)
def test_formulation_terminates_and_respects_budget(budget):
    task = Task(
        task_id="v", request=catalog.surveillance_request(),
        demand_model=workload.video_decode_demand(),
    )

    def check(assignments):
        demand = task.demand_at(assignments["v"].values())
        return demand.get(ResourceKind.CPU) <= budget

    result = formulate([task], check)
    if result.feasible:
        assert task.demand_at(result.values("v")).get(ResourceKind.CPU) <= budget
    else:
        assert result.assignments["v"].at_bottom


@given(st.floats(min_value=50.0, max_value=800.0))
@settings(max_examples=20, deadline=None)
def test_formulation_never_violates_dependencies(budget):
    task = Task(
        task_id="c", request=catalog.video_conference_request(),
        demand_model=workload.conference_demand(),
    )

    def check(assignments):
        demand = task.demand_at(assignments["c"].values())
        return demand.get(ResourceKind.CPU) <= budget

    result = formulate([task], check)
    assert task.request.spec.dependencies.satisfied(result.values("c"))


# -- Resource Manager accounting ------------------------------------------------


@given(st.lists(
    st.tuples(st.sampled_from(["reserve", "release"]),
              st.floats(min_value=0.1, max_value=40.0)),
    max_size=60,
))
def test_manager_invariant_under_interleaving(ops):
    mgr = ResourceManager(Capacity.of(cpu=100.0), name="prop")
    live = []
    for op, amount in ops:
        if op == "reserve":
            r = mgr.try_reserve("h", Capacity.of(cpu=amount))
            if r is not None:
                live.append(r)
        elif live:
            mgr.release(live.pop())
        # Invariants hold after every operation.
        assert mgr.reserved.get(ResourceKind.CPU) <= 100.0 + 1e-9
        assert mgr.reserved + mgr.available == mgr.capacity
    for r in live:
        mgr.release(r)
    assert mgr.reserved.is_zero


# -- Capacity algebra -------------------------------------------------------------


capacities = st.builds(
    lambda c, m, e: Capacity.of(cpu=c, memory=m, energy=e),
    st.floats(min_value=0.0, max_value=1e6),
    st.floats(min_value=0.0, max_value=1e6),
    st.floats(min_value=0.0, max_value=1e6),
)


@given(capacities, capacities)
def test_capacity_add_sub_roundtrip(a, b):
    assert (a + b) - b == a


@given(capacities, capacities)
def test_capacity_covers_sum(a, b):
    assert (a + b).covers(a)
    assert (a + b).covers(b)


@given(capacities, st.floats(min_value=0.0, max_value=10.0))
def test_capacity_scaling_linear(a, f):
    scaled = a.scaled(f)
    for kind in a.kinds():
        assert math.isclose(scaled.get(kind), a.get(kind) * f, rel_tol=1e-12,
                            abs_tol=1e-12)


#: Vectors over any subset of the kinds: the others are absent.
sparse_capacities = st.dictionaries(
    st.sampled_from(KINDS), st.floats(min_value=0.0, max_value=1e6)
).map(Capacity)


@given(sparse_capacities, sparse_capacities, st.floats(min_value=0.0, max_value=10.0))
def test_capacity_sums_and_scales_are_exact_per_kind(a, b, f):
    for kind in KINDS:
        assert (a + b).get(kind) == a.get(kind) + b.get(kind)
        assert a.scaled(f).get(kind) == a.get(kind) * f


@given(sparse_capacities, sparse_capacities)
def test_a_zero_difference_is_positive_zero(a, b):
    for zero in (a - a, a.minus_clamped(a + b), Capacity.zero().minus_clamped(b)):
        assert all(math.copysign(1.0, zero.get(kind)) == 1.0 for kind in KINDS)
        assert zero.is_zero
        assert repr(zero) == "Capacity()"


@given(sparse_capacities, sparse_capacities, st.lists(
    st.sampled_from((-2 * SLACK, -SLACK, 0.0, SLACK, 2 * SLACK)),
    min_size=len(KINDS), max_size=len(KINDS),
))
def test_covers_is_the_per_kind_slack_rule(headroom, other, nudges):
    on_the_boundary = Capacity({
        kind: max(headroom.get(kind) + nudge, 0.0)
        for kind, nudge in zip(KINDS, nudges)
    })
    for demand in (other, on_the_boundary):
        fits = all(demand.get(kind) <= headroom.get(kind) + 1e-9 for kind in KINDS)
        assert headroom.covers(demand) == fits


# -- DES engine ordering --------------------------------------------------------


@given(st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=1, max_size=50))
def test_engine_fires_in_time_order(delays):
    eng = Engine()
    fired = []
    for d in delays:
        eng.schedule(d, lambda now: fired.append(now))
    eng.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


# -- topology symmetry ------------------------------------------------------------


@given(st.lists(
    st.tuples(st.floats(min_value=0, max_value=300),
              st.floats(min_value=0, max_value=300)),
    min_size=2, max_size=12,
))
@settings(max_examples=30, deadline=None)
def test_disc_topology_symmetric_and_distance_consistent(points):
    nodes = [Node(f"n{i}", position=p) for i, p in enumerate(points)]
    topo = Topology(nodes, DiscRadio(range_m=120.0))
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            linked = topo.connected(a.node_id, b.node_id)
            assert linked == topo.connected(b.node_id, a.node_id)
            assert linked == (a.distance_to(b) <= 120.0)
