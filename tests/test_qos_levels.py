"""Unit tests for degradation ladders and quality assignments."""

from __future__ import annotations

import pytest

from repro.errors import DomainError, RequestError
from repro.qos import catalog
from repro.qos.catalog import COLOR_DEPTH, FRAME_RATE, SAMPLE_BITS, SAMPLING_RATE
from repro.qos.levels import FLOAT_STEPS, DegradationLadder, build_ladder
from repro.qos.request import AttributePreference, ValueInterval
from repro.qos.types import ValueType


def test_build_ladder_expands_integer_intervals():
    ap = AttributePreference("fr", (ValueInterval(10, 5), ValueInterval(4, 1)))
    ladder = build_ladder(ap, ValueType.INTEGER)
    assert ladder == (10, 9, 8, 7, 6, 5, 4, 3, 2, 1)


def test_build_ladder_scalars_keep_order():
    ap = AttributePreference("cd", (3, 1))
    assert build_ladder(ap, ValueType.INTEGER) == (3, 1)


def test_build_ladder_deduplicates_touching_intervals():
    ap = AttributePreference("fr", (ValueInterval(5, 3), ValueInterval(3, 1)))
    assert build_ladder(ap, ValueType.INTEGER) == (5, 4, 3, 2, 1)


def test_build_ladder_float_steps():
    ap = AttributePreference("gain", (ValueInterval(1.0, 0.0),))
    ladder = build_ladder(ap, ValueType.FLOAT)
    assert len(ladder) == FLOAT_STEPS
    assert ladder[0] == 1.0 and ladder[-1] == 0.0
    assert all(ladder[i] > ladder[i + 1] for i in range(FLOAT_STEPS - 1))


def test_build_ladder_degenerate_float_interval():
    ap = AttributePreference("gain", (ValueInterval(0.5, 0.5),))
    assert build_ladder(ap, ValueType.FLOAT) == (0.5,)


def test_ladder_from_surveillance_request():
    req = catalog.surveillance_request()
    ls = DegradationLadder.from_request(req)
    assert ls.ladder(FRAME_RATE) == (10, 9, 8, 7, 6, 5, 4, 3, 2, 1)
    assert ls.ladder(COLOR_DEPTH) == (3, 1)
    assert ls.ladder(SAMPLING_RATE) == (8,)
    assert ls.depth(SAMPLE_BITS) == 1
    with pytest.raises(RequestError):
        ls.ladder("ghost")


def test_top_and_bottom_assignments():
    req = catalog.surveillance_request()
    ls = DegradationLadder.from_request(req)
    top = ls.top()
    bottom = ls.bottom()
    assert top.at_top and not top.at_bottom
    assert bottom.at_bottom and not bottom.at_top
    assert top.value(FRAME_RATE) == 10
    assert bottom.value(FRAME_RATE) == 1
    assert top.total_degradation() == 0
    assert bottom.total_degradation() == (10 - 1) + (2 - 1)  # fr + cd ladders


def test_degrade_walks_one_step():
    req = catalog.surveillance_request()
    ls = DegradationLadder.from_request(req)
    a = ls.top()
    b = a.degrade(FRAME_RATE)
    assert b.value(FRAME_RATE) == 9
    assert a.value(FRAME_RATE) == 10  # immutability
    assert b.index(FRAME_RATE) == 1


def test_degrade_at_bottom_raises():
    req = catalog.surveillance_request()
    ls = DegradationLadder.from_request(req)
    with pytest.raises(DomainError):
        ls.bottom().degrade(FRAME_RATE)
    assert not ls.bottom().can_degrade(FRAME_RATE)


def test_degradable_attributes_in_importance_order():
    req = catalog.surveillance_request()
    ls = DegradationLadder.from_request(req)
    # Audio attributes have single-value ladders: never degradable.
    assert ls.top().degradable_attributes() == (FRAME_RATE, COLOR_DEPTH)


def test_assignment_from_values_and_errors():
    req = catalog.surveillance_request()
    ls = DegradationLadder.from_request(req)
    a = ls.assignment_from_values(
        {FRAME_RATE: 7, COLOR_DEPTH: 1, SAMPLING_RATE: 8, SAMPLE_BITS: 8}
    )
    assert a.index(FRAME_RATE) == 3
    with pytest.raises(DomainError):
        ls.assignment_from_values(
            {FRAME_RATE: 30, COLOR_DEPTH: 1, SAMPLING_RATE: 8, SAMPLE_BITS: 8}
        )
    with pytest.raises(RequestError):
        ls.assignment_from_values({FRAME_RATE: 7})


def test_assignment_equality_and_hash():
    req = catalog.surveillance_request()
    ls = DegradationLadder.from_request(req)
    assert ls.top() == ls.top()
    assert hash(ls.top()) == hash(ls.top())
    assert ls.top() != ls.top().degrade(FRAME_RATE)


def test_values_roundtrip():
    req = catalog.surveillance_request()
    ls = DegradationLadder.from_request(req)
    a = ls.top().degrade(FRAME_RATE).degrade(COLOR_DEPTH)
    assert ls.assignment_from_values(a.values()) == a


def test_respects_dependencies_with_conference_spec():
    req = catalog.video_conference_request()
    ls = DegradationLadder.from_request(req)
    top = ls.top()
    # Top level: wavelet codec at 20 fps — allowed (<= 20 limit).
    assert top.respects_dependencies()
