"""Unit tests for capacity vectors."""

from __future__ import annotations

import math

import pytest

from repro.errors import ResourceError
from repro.resources.capacity import SLACK, Capacity
from repro.resources.kinds import KINDS, ResourceKind


def test_construction_and_get():
    c = Capacity({ResourceKind.CPU: 100.0, ResourceKind.MEMORY: 64.0})
    assert c.get(ResourceKind.CPU) == 100.0
    assert c.get(ResourceKind.NET_BANDWIDTH) == 0.0  # missing = zero


def test_of_constructor():
    c = Capacity.of(cpu=10, memory=20)
    assert c.get(ResourceKind.CPU) == 10.0
    assert c.get(ResourceKind.MEMORY) == 20.0
    with pytest.raises(ResourceError):
        Capacity.of(plutonium=1.0)


def test_zero_and_is_zero():
    assert Capacity.zero().is_zero
    assert not Capacity.of(cpu=1).is_zero
    # Zero components are dropped entirely.
    assert Capacity.of(cpu=0.0).is_zero


def test_negative_amount_rejected():
    with pytest.raises(ResourceError):
        Capacity.of(cpu=-1.0)


def test_bad_key_rejected():
    with pytest.raises(ResourceError):
        Capacity({"cpu": 1.0})  # type: ignore[dict-item]


def test_addition():
    a = Capacity.of(cpu=10, memory=5)
    b = Capacity.of(cpu=3, energy=7)
    c = a + b
    assert c.get(ResourceKind.CPU) == 13.0
    assert c.get(ResourceKind.MEMORY) == 5.0
    assert c.get(ResourceKind.ENERGY) == 7.0


def test_subtraction_and_underflow():
    a = Capacity.of(cpu=10)
    b = Capacity.of(cpu=4)
    assert (a - b).get(ResourceKind.CPU) == 6.0
    with pytest.raises(ResourceError):
        b - a


def test_minus_clamped_floors_at_zero():
    a = Capacity.of(cpu=3)
    b = Capacity.of(cpu=10, memory=1)
    out = a.minus_clamped(b)
    assert out.get(ResourceKind.CPU) == 0.0
    assert out.get(ResourceKind.MEMORY) == 0.0


def test_scaled():
    c = Capacity.of(cpu=10).scaled(2.5)
    assert c.get(ResourceKind.CPU) == 25.0
    assert Capacity.of(cpu=10).scaled(0.0).is_zero
    with pytest.raises(ResourceError):
        Capacity.of(cpu=1).scaled(-1.0)


def test_covers():
    cap = Capacity.of(cpu=10, memory=64)
    assert cap.covers(Capacity.of(cpu=10))
    assert cap.covers(Capacity.of(cpu=5, memory=64))
    assert not cap.covers(Capacity.of(cpu=11))
    assert not cap.covers(Capacity.of(energy=1))
    assert cap.covers(Capacity.zero())
    # The rule is d <= h + SLACK on every kind; limits() is its right side.
    assert cap.limits() == tuple(amount + SLACK for amount in cap.row)
    assert cap.covers(Capacity.of(cpu=10 + SLACK, energy=SLACK))
    assert not cap.covers(Capacity.of(cpu=10 + 2 * SLACK))
    assert not cap.covers(Capacity.of(memory=64, energy=2 * SLACK))


def test_utilization_of():
    cap = Capacity.of(cpu=10, memory=100)
    assert cap.utilization_of(Capacity.of(cpu=5, memory=20)) == 0.5
    assert cap.utilization_of(Capacity.zero()) == 0.0
    assert cap.utilization_of(Capacity.of(energy=1)) == float("inf")


def test_equality_tolerance_and_hash():
    a = Capacity.of(cpu=1.0)
    b = Capacity.of(cpu=1.0 + 1e-12)
    assert a == b
    assert Capacity.of(cpu=1) != Capacity.of(cpu=2)
    assert hash(Capacity.of(cpu=1)) == hash(Capacity.of(cpu=1))


def test_kinds_and_total():
    c = Capacity.of(cpu=1, memory=2)
    assert set(c.kinds()) == {ResourceKind.CPU, ResourceKind.MEMORY}


def test_the_row_is_one_amount_per_kind_in_kinds_order():
    c = Capacity.of(energy=5, bus_bandwidth=3, cpu=1)
    assert KINDS == tuple(ResourceKind)
    assert c.row == (1.0, 0.0, 3.0, 0.0, 5.0)
    assert c.kinds() == (ResourceKind.CPU, ResourceKind.BUS_BANDWIDTH, ResourceKind.ENERGY)
    assert repr(c) == "Capacity(bus_bandwidth=3, cpu=1, energy=5)"  # by name


def test_zero_differences_are_stored_as_positive_zero():
    one = Capacity.of(cpu=1.0, energy=2.0)
    for c in (
        one - one,
        Capacity.of(cpu=1.0) - Capacity.of(cpu=1.0 + 1e-12),
        one.minus_clamped(Capacity.of(cpu=3.0, energy=2.0, memory=1.0)),
    ):
        assert all(math.copysign(1.0, c.get(kind)) == 1.0 for kind in KINDS)
        assert c.is_zero
        assert repr(c) == "Capacity()"
