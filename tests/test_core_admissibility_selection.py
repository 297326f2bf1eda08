"""Unit tests for admissibility (Section 6) and winner selection (4.2)."""

from __future__ import annotations

import pytest

from repro.core.admissibility import admissibility_failures, is_admissible
from repro.core.proposal import Proposal
from repro.core.selection import (
    DISTANCE_RESOLUTION,
    ScoredProposal,
    SelectionPolicy,
)
from repro.errors import NoAdmissibleProposalError
from repro.qos import catalog
from repro.qos.catalog import COLOR_DEPTH, FRAME_RATE, SAMPLE_BITS, SAMPLING_RATE


@pytest.fixture
def request_():
    return catalog.surveillance_request()


def _proposal(node="n", **values):
    defaults = {FRAME_RATE: 10, COLOR_DEPTH: 3, SAMPLING_RATE: 8, SAMPLE_BITS: 8}
    defaults.update(values)
    return Proposal(task_id="t", node_id=node, values=defaults)


# -- admissibility ------------------------------------------------------------


def test_preferred_proposal_admissible(request_):
    assert is_admissible(request_, _proposal())
    assert admissibility_failures(request_, _proposal()) == []


def test_acceptable_degraded_proposal_admissible(request_):
    assert is_admissible(request_, _proposal(**{FRAME_RATE: 2, COLOR_DEPTH: 1}))


def test_missing_attribute_inadmissible(request_):
    p = Proposal(task_id="t", node_id="n",
                 values={FRAME_RATE: 10, COLOR_DEPTH: 3, SAMPLING_RATE: 8})
    failures = admissibility_failures(request_, p)
    assert any("missing attribute" in f for f in failures)


def test_out_of_domain_value_inadmissible(request_):
    failures = admissibility_failures(request_, _proposal(**{FRAME_RATE: 99}))
    assert any("domain violation" in f for f in failures)


def test_unacceptable_value_inadmissible(request_):
    """24-bit color is in the domain but the user never listed it."""
    failures = admissibility_failures(request_, _proposal(**{COLOR_DEPTH: 24}))
    assert any("not among the user's acceptable values" in f for f in failures)
    # Same for a frame rate above the acceptable intervals.
    assert not is_admissible(request_, _proposal(**{FRAME_RATE: 20}))


def test_dependency_violation_inadmissible():
    req = catalog.video_conference_request()
    from repro.qos.catalog import CODEC, RESOLUTION

    bad = Proposal(
        task_id="t", node_id="n",
        values={FRAME_RATE: 30, RESOLUTION: "720p", SAMPLING_RATE: 16,
                CODEC: "wavelet"},
    )
    # 30 fps isn't acceptable anyway ([20..10],[9..5]); use 20 vs dep:
    ok_fps = Proposal(
        task_id="t", node_id="n",
        values={FRAME_RATE: 20, RESOLUTION: "720p", SAMPLING_RATE: 16,
                CODEC: "wavelet"},
    )
    assert is_admissible(req, ok_fps)
    failures = admissibility_failures(req, bad)
    assert failures  # inadmissible for acceptability (and deps if applicable)


def test_multiple_failures_all_reported(request_):
    p = Proposal(task_id="t", node_id="n",
                 values={FRAME_RATE: 99, COLOR_DEPTH: 24})
    failures = admissibility_failures(request_, p)
    assert len(failures) >= 3  # bad fr, bad cd, two missing audio attrs


# -- selection ----------------------------------------------------------------


def _scored(node, distance, comm, new):
    return ScoredProposal(
        proposal=_proposal(node=node), distance=distance,
        comm_cost=comm, new_member=new,
    )


def test_lowest_distance_wins():
    policy = SelectionPolicy()
    best = policy.select([
        _scored("a", 0.5, 0.0, True),
        _scored("b", 0.1, 9.0, True),
        _scored("c", 0.3, 0.0, False),
    ])
    assert best.proposal.node_id == "b"


def test_comm_cost_breaks_distance_ties():
    policy = SelectionPolicy()
    best = policy.select([
        _scored("a", 0.2, 5.0, True),
        _scored("b", 0.2, 1.0, True),
    ])
    assert best.proposal.node_id == "b"


def test_member_reuse_breaks_remaining_ties():
    policy = SelectionPolicy()
    best = policy.select([
        _scored("a", 0.2, 1.0, True),
        _scored("b", 0.2, 1.0, False),  # already a member
    ])
    assert best.proposal.node_id == "b"


def test_disabled_criteria_are_ignored():
    no_comm = SelectionPolicy(use_comm_cost=False, use_coalition_size=False)
    candidates = [
        _scored("a", 0.2, 9.0, False),
        _scored("b", 0.2, 0.0, True),
    ]
    # Without comm/size, the stable-hash determinism break decides; both
    # orders give the same winner.
    w1 = no_comm.select(candidates)
    w2 = no_comm.select(list(reversed(candidates)))
    assert w1.proposal.node_id == w2.proposal.node_id


def test_distance_resolution_quantizes():
    policy = SelectionPolicy()
    best = policy.select([
        _scored("a", 0.2, 5.0, True),
        # same quantum -> comm decides
        _scored("b", 0.2 + DISTANCE_RESOLUTION / 4, 1.0, True),
    ])
    assert best.proposal.node_id == "b"
    best2 = policy.select([
        _scored("a", 0.2, 5.0, True),
        _scored("b", 0.2 + 3 * DISTANCE_RESOLUTION, 1.0, True),
    ])
    assert best2.proposal.node_id == "a"


def test_rank_returns_sorted():
    policy = SelectionPolicy()
    ranked = policy.rank([
        _scored("a", 0.3, 0.0, True),
        _scored("b", 0.1, 0.0, True),
        _scored("c", 0.2, 0.0, True),
    ])
    assert [s.proposal.node_id for s in ranked] == ["b", "c", "a"]


def test_empty_selection_raises():
    with pytest.raises(NoAdmissibleProposalError):
        SelectionPolicy().select([])


def test_score_helper(request_):
    from repro.core.evaluation import ProposalEvaluator

    evaluator = ProposalEvaluator(request_)
    proposals = [_proposal(node="x"), _proposal(node="y", **{FRAME_RATE: 5})]
    scored = SelectionPolicy.score(
        proposals, evaluator.distances(proposals).tolist(),
        lambda n: 1.0 if n == "x" else 2.0, members={"y"},
    )
    by_node = {s.proposal.node_id: s for s in scored}
    assert by_node["x"].distance == 0.0
    assert by_node["x"].comm_cost == 1.0
    assert by_node["x"].new_member is True
    assert by_node["y"].new_member is False
