"""Unit tests for eq. 1 local reward and its depth-normalized penalty."""

from __future__ import annotations

import pytest

from repro.core.reward import local_reward
from repro.qos import catalog
from repro.qos.catalog import COLOR_DEPTH, FRAME_RATE, SAMPLING_RATE
from repro.qos.levels import DegradationLadder


@pytest.fixture
def ladder():
    return DegradationLadder.from_request(catalog.surveillance_request())


def test_reward_at_top_is_n(ladder):
    """eq. 1 first branch: r = n when served at Q_k1 everywhere."""
    assert local_reward(ladder.top()) == 4.0  # 4 attributes in the request


def test_reward_decreases_with_degradation(ladder):
    top = local_reward(ladder.top())
    one = local_reward(ladder.top().degrade(FRAME_RATE))
    two = local_reward(ladder.top().degrade(FRAME_RATE).degrade(FRAME_RATE))
    assert top > one > two


def test_reward_at_bottom_linear(ladder):
    # Both degradable attributes fully degraded: penalty 1 each.
    assert local_reward(ladder.bottom()) == pytest.approx(4.0 - 2.0)


def test_linear_penalty_normalized_by_depth(ladder):
    """One step costs ``1 / (depth - 1)``: a frame-rate step (10 levels)
    costs exactly 1/9, a color-depth step (2 levels) a full 1, and the
    one-level sampling-rate ladder adds nothing to either sum."""
    assert ladder.depth(FRAME_RATE) == 10
    assert ladder.depth(COLOR_DEPTH) == 2
    assert ladder.depth(SAMPLING_RATE) == 1
    assert local_reward(ladder.top().degrade(FRAME_RATE)) == 4.0 - 1 / 9
    assert local_reward(ladder.top().degrade(COLOR_DEPTH)) == 4.0 - 1.0
