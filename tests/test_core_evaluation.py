"""Unit tests for the eqs. 2–5 proposal evaluator."""

from __future__ import annotations

import pytest

from repro.core.evaluation import ProposalEvaluator, WeightScheme
from repro.core.proposal import Proposal
from repro.errors import NegotiationError
from repro.qos import catalog
from repro.qos.catalog import (
    COLOR_DEPTH,
    FRAME_RATE,
    SAMPLE_BITS,
    SAMPLING_RATE,
    VIDEO_QUALITY,
    AUDIO_QUALITY,
)


@pytest.fixture
def request_():
    return catalog.surveillance_request()


@pytest.fixture
def evaluator(request_):
    return ProposalEvaluator(request_)


def _proposal(**values):
    defaults = {FRAME_RATE: 10, COLOR_DEPTH: 3, SAMPLING_RATE: 8, SAMPLE_BITS: 8}
    defaults.update(values)
    return Proposal(task_id="t", node_id="n", values=defaults)


# -- eq. 3 weights -----------------------------------------------------------


def test_eq3_linear_dimension_weights(evaluator):
    """w_k = (n - k + 1)/n with n = 2 dimensions."""
    assert evaluator.dimension_weight(VIDEO_QUALITY) == pytest.approx(1.0)
    assert evaluator.dimension_weight(AUDIO_QUALITY) == pytest.approx(0.5)


def test_eq3_attribute_weights(evaluator):
    assert evaluator.attribute_weight(VIDEO_QUALITY, FRAME_RATE) == pytest.approx(1.0)
    assert evaluator.attribute_weight(VIDEO_QUALITY, COLOR_DEPTH) == pytest.approx(0.5)


def test_weights_strictly_decreasing_in_rank():
    for scheme in WeightScheme:
        weights = [scheme.weight(k, 5) for k in range(1, 6)]
        if scheme is WeightScheme.UNIFORM:
            assert all(w == 1.0 for w in weights)
        else:
            assert all(weights[i] > weights[i + 1] for i in range(4))
        assert all(0 < w <= 1.0 for w in weights)


def test_weight_rank_out_of_range():
    with pytest.raises(NegotiationError):
        WeightScheme.LINEAR.weight(0, 3)
    with pytest.raises(NegotiationError):
        WeightScheme.LINEAR.weight(4, 3)


def test_geometric_weights():
    assert WeightScheme.GEOMETRIC.weight(1, 4) == 1.0
    assert WeightScheme.GEOMETRIC.weight(3, 4) == 0.25


# -- eq. 5 dif ----------------------------------------------------------------


def test_dif_zero_at_preferred(evaluator):
    for attr, pref in [(FRAME_RATE, 10), (COLOR_DEPTH, 3),
                       (SAMPLING_RATE, 8), (SAMPLE_BITS, 8)]:
        assert evaluator.dif(attr, pref) == 0.0


def test_dif_continuous_normalized_by_domain_span(evaluator):
    # frame rate domain [1, 30]: span 29; |5 - 10| / 29.
    assert evaluator.dif(FRAME_RATE, 5) == pytest.approx(5 / 29)


def test_dif_discrete_uses_quality_index(evaluator):
    # color depth domain (24,16,8,3,1): pos(1)=4, pos(3)=3, span 4.
    assert evaluator.dif(COLOR_DEPTH, 1) == pytest.approx((4 - 3) / 4)


def test_dif_bounded_by_one(evaluator):
    # Any in-domain value: |dif| <= 1 under domain normalization.
    for fr in (1, 5, 10, 20, 30):
        assert abs(evaluator.dif(FRAME_RATE, fr)) <= 1.0
    for cd in (1, 3, 8, 16, 24):
        assert abs(evaluator.dif(COLOR_DEPTH, cd)) <= 1.0


# -- eq. 4 / eq. 2 ------------------------------------------------------------


def test_distance_zero_for_preferred_proposal(evaluator):
    assert evaluator.distance(_proposal()) == 0.0


def test_distance_positive_for_degraded(evaluator):
    assert evaluator.distance(_proposal(**{FRAME_RATE: 5})) > 0.0


def test_distance_weights_dimensions(evaluator):
    """The same dif magnitude hurts more on the more important dimension."""
    # One color-depth position step vs one sample-bits position step
    # (identical raw |dif| = 1/4? no: different domains). Use dimension
    # distance directly for a clean comparison.
    video_d = evaluator.dimension_distance(VIDEO_QUALITY, _proposal(**{COLOR_DEPTH: 1}))
    audio_d = evaluator.dimension_distance(AUDIO_QUALITY, _proposal(**{SAMPLE_BITS: 16}))
    full_video = evaluator.dimension_weight(VIDEO_QUALITY) * video_d
    full_audio = evaluator.dimension_weight(AUDIO_QUALITY) * audio_d
    # dimension 1 carries weight 1.0, dimension 2 carries 0.5
    assert evaluator.dimension_weight(VIDEO_QUALITY) == 2 * evaluator.dimension_weight(AUDIO_QUALITY)


def test_distance_additive_across_dimensions(evaluator):
    d_video = evaluator.distance(_proposal(**{FRAME_RATE: 5}))
    d_audio = evaluator.distance(_proposal(**{SAMPLING_RATE: 16}))
    d_both = evaluator.distance(_proposal(**{FRAME_RATE: 5, SAMPLING_RATE: 16}))
    assert d_both == pytest.approx(d_video + d_audio)


def test_distance_monotone_in_frame_rate_gap(evaluator):
    distances = [
        evaluator.distance(_proposal(**{FRAME_RATE: fr})) for fr in (10, 8, 5, 2)
    ]
    assert all(distances[i] < distances[i + 1] for i in range(3))


def test_lowest_distance_wins_semantics(evaluator):
    """The paper's rule: lowest evaluation = closest to preferences."""
    close = _proposal(**{FRAME_RATE: 9})
    far = _proposal(**{FRAME_RATE: 2, COLOR_DEPTH: 1})
    assert evaluator.distance(close) < evaluator.distance(far)


def test_max_distance_bounds_all_in_domain_proposals(evaluator):
    bound = evaluator.max_distance()
    worst = _proposal(**{FRAME_RATE: 30, COLOR_DEPTH: 24,
                         SAMPLING_RATE: 44, SAMPLE_BITS: 24})
    assert evaluator.distance(worst) <= bound + 1e-9


def test_missing_attribute_in_proposal_raises(evaluator):
    p = Proposal(task_id="t", node_id="n", values={FRAME_RATE: 10})
    with pytest.raises(KeyError):
        evaluator.distance(p)


def test_uniform_scheme_ignores_order(request_):
    ev = ProposalEvaluator(request_, weights=WeightScheme.UNIFORM)
    assert ev.dimension_weight(VIDEO_QUALITY) == ev.dimension_weight(AUDIO_QUALITY)
