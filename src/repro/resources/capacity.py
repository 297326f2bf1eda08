"""Capacity vectors: typed amounts of resources, and the rule for a fit.

A :class:`Capacity` is one fixed row of non-negative floats over
:data:`~repro.resources.kinds.KINDS` (0.0 for a kind it was not given).
Every operator works component by component; adding a 0.0 component is
exact, and a zero or negative result is stored as ``+0.0``. A demand fits
a headroom when ``demand <= headroom + SLACK`` on every kind: that is
:meth:`Capacity.covers`, and :meth:`Capacity.limits` is its right side.
"""

from __future__ import annotations

from operator import add, le, sub
from typing import Iterable, Mapping, Tuple

from repro.errors import ResourceError
from repro.resources.kinds import COLUMN, KINDS, ResourceKind

SLACK = 1e-9
"""Float residue tolerated by a fit, by subtraction and by equality."""

Row = Tuple[float, ...]


class Capacity:
    """An immutable non-negative resource vector.

    Construct from a mapping or keyword-style pairs::

        Capacity({ResourceKind.CPU: 100.0, ResourceKind.MEMORY: 256.0})

    ``row`` holds the amounts over :data:`~repro.resources.kinds.KINDS`;
    it is never rebound. Arithmetic never produces negative components
    unless explicitly using :meth:`minus_clamped`; plain subtraction
    raises when it would go negative, catching accounting bugs early.
    """

    __slots__ = ("row",)

    def __init__(self, amounts: Mapping[ResourceKind, float] | None = None) -> None:
        row = [0.0] * len(KINDS)
        if amounts:
            for kind, amount in amounts.items():
                if not isinstance(kind, ResourceKind):
                    raise ResourceError(f"capacity key must be ResourceKind, got {kind!r}")
                amount = float(amount)
                if amount < 0:
                    raise ResourceError(f"negative capacity for {kind}: {amount}")
                row[COLUMN[kind]] = amount
        self.row: Row = _clamped(row)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "Capacity":
        """The all-zero capacity vector."""
        return _of_row((0.0,) * len(KINDS))

    @classmethod
    def of(cls, **kinds: float) -> "Capacity":
        """Build from lowercase kind names: ``Capacity.of(cpu=10, memory=64)``."""
        mapping = {}
        for name, amount in kinds.items():
            try:
                kind = ResourceKind(name)
            except ValueError:
                raise ResourceError(f"unknown resource kind name: {name!r}") from None
            mapping[kind] = amount
        return cls(mapping)

    # -- access --------------------------------------------------------------

    def get(self, kind: ResourceKind) -> float:
        """Amount of ``kind`` (0.0 when absent)."""
        return self.row[COLUMN[kind]]

    def kinds(self) -> Tuple[ResourceKind, ...]:
        """Resource kinds with strictly positive amounts, in ``KINDS`` order."""
        return tuple(kind for kind, amount in zip(KINDS, self.row) if amount)

    @property
    def is_zero(self) -> bool:
        return not any(self.row)

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "Capacity") -> "Capacity":
        return _of_row(tuple(map(add, self.row, other.row)))

    def __sub__(self, other: "Capacity") -> "Capacity":
        remaining = tuple(map(sub, self.row, other.row))
        for kind, amount in zip(KINDS, remaining):
            if amount < -SLACK:
                raise ResourceError(
                    f"capacity underflow on {kind}: {self.get(kind)} - {other.get(kind)}"
                )
        return _of_row(_clamped(remaining))

    def minus_clamped(self, other: "Capacity") -> "Capacity":
        """Subtraction that floors each component at zero."""
        return _of_row(_clamped(map(sub, self.row, other.row)))

    def scaled(self, factor: float) -> "Capacity":
        """Multiply every component by a non-negative factor."""
        if factor < 0:
            raise ResourceError(f"negative scale factor: {factor}")
        return _of_row(_clamped(amount * factor for amount in self.row))

    # -- comparisons ------------------------------------------------------------

    def limits(self) -> Row:
        """The largest demand that fits, kind by kind: ``row + SLACK``."""
        return tuple(amount + SLACK for amount in self.row)

    def covers(self, demand: "Capacity") -> bool:
        """True when every component of ``demand`` fits within ``self``."""
        return all(map(le, demand.row, self.limits()))

    def utilization_of(self, used: "Capacity") -> float:
        """Max component-wise used/capacity ratio (bottleneck utilization).

        Components where this vector is zero but usage is positive yield
        ``inf``; an all-zero usage yields 0.0.
        """
        worst = 0.0
        for cap, amount in zip(self.row, used.row):
            if not amount:
                continue
            if cap <= 0.0:
                return float("inf")
            worst = max(worst, amount / cap)
        return worst

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Capacity):
            return NotImplemented
        return all(abs(a - b) <= SLACK for a, b in zip(self.row, other.row))

    def __hash__(self) -> int:
        return hash(tuple(round(amount, 9) for amount in self.row))

    def __repr__(self) -> str:
        named = sorted(zip(KINDS, self.row), key=lambda pair: pair[0].value)
        parts = ", ".join(f"{kind.value}={amount:g}" for kind, amount in named if amount)
        return f"Capacity({parts})"


def _clamped(values: Iterable[float]) -> Row:
    """``values`` as a row: a zero, negative or NaN component becomes +0.0."""
    return tuple(value if value > 0.0 else 0.0 for value in values)


def _of_row(row: Row) -> Capacity:
    """A :class:`Capacity` over a row that is already clean."""
    capacity = object.__new__(Capacity)
    capacity.row = row
    return capacity
