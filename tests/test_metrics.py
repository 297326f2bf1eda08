"""Unit tests for utility metrics, collection, and statistics."""

from __future__ import annotations

import math

import pytest

from repro.core.negotiation import negotiate
from repro.core.proposal import Proposal
from repro.metrics.stats import confidence_interval, describe, mean_ci, summarize_rows
from repro.metrics.utility import (
    allocation_utility,
    assignment_utility,
    outcome_utility,
    proposal_utility,
)
from repro.qos import catalog
from repro.qos.catalog import COLOR_DEPTH, FRAME_RATE, SAMPLE_BITS, SAMPLING_RATE


@pytest.fixture
def request_():
    return catalog.surveillance_request()


def _values(**overrides):
    base = {FRAME_RATE: 10, COLOR_DEPTH: 3, SAMPLING_RATE: 8, SAMPLE_BITS: 8}
    base.update(overrides)
    return base


# -- utility ----------------------------------------------------------------


def test_preferred_assignment_has_utility_one(request_):
    assert assignment_utility(request_, _values()) == pytest.approx(1.0)


def test_utility_decreases_with_degradation(request_):
    u_top = assignment_utility(request_, _values())
    u_mid = assignment_utility(request_, _values(**{FRAME_RATE: 5}))
    u_low = assignment_utility(request_, _values(**{FRAME_RATE: 1, COLOR_DEPTH: 1}))
    assert u_top > u_mid > u_low >= 0.0


def test_utility_bounded(request_):
    for fr in (1, 10, 30):
        for cd in (1, 3, 24):
            u = assignment_utility(request_, _values(**{FRAME_RATE: fr, COLOR_DEPTH: cd}))
            assert 0.0 <= u <= 1.0


def test_proposal_utility_matches_assignment(request_):
    p = Proposal(task_id="t", node_id="n", values=_values(**{FRAME_RATE: 7}))
    assert proposal_utility(request_, p) == pytest.approx(
        assignment_utility(request_, _values(**{FRAME_RATE: 7}))
    )


def test_allocation_utility_from_distance(request_):
    assert allocation_utility(request_, 0.0) == 1.0
    assert allocation_utility(request_, 1e9) == 0.0


def test_outcome_utility_counts_unallocated_as_zero(small_cluster, movie_service):
    topology, providers, nodes = small_cluster
    outcome = negotiate(movie_service, topology, providers, commit=False)
    full = outcome_utility(outcome)
    # Remove one award: mean utility drops by that task's share.
    tid = movie_service.tasks[0].task_id
    del outcome.coalition.awards[tid]
    partial = outcome_utility(outcome)
    assert partial < full
    assert partial == pytest.approx(full - 0.5, abs=1e-9)


# -- statistics ----------------------------------------------------------------


def test_describe_basics():
    s = describe([1.0, 2.0, 3.0])
    assert s.mean == pytest.approx(2.0)
    assert s.n == 3
    assert s.minimum == 1.0 and s.maximum == 3.0
    assert s.std == pytest.approx(1.0)
    assert s.ci_half_width == pytest.approx(1.959963984540054 / math.sqrt(3))


def test_describe_single_sample():
    s = describe([5.0])
    assert s.mean == 5.0 and s.std == 0.0 and s.ci_half_width == 0.0


def test_describe_empty_raises():
    with pytest.raises(ValueError):
        describe([])


def test_mean_ci_and_interval():
    mean, half = mean_ci([2.0, 4.0])
    lo, hi = confidence_interval([2.0, 4.0])
    assert mean == 3.0
    assert lo == pytest.approx(3.0 - half)
    assert hi == pytest.approx(3.0 + half)


def test_summarize_rows():
    rows = [{"a": 1.0, "b": 10.0}, {"a": 3.0, "b": 30.0}]
    out = summarize_rows(rows)
    assert out["a"].mean == 2.0 and out["b"].mean == 20.0
    with pytest.raises(ValueError):
        summarize_rows([])


def test_summary_str():
    assert "n=2" in str(describe([1.0, 2.0]))
