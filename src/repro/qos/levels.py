"""Quality levels and degradation ladders.

The Section 5 heuristic degrades one attribute at a time, "from level
``Q_kj`` to ``Q_k(j+1)``". For that to be executable we need, per
attribute, a concrete *ordered list of acceptable values* — the
**degradation ladder** — derived from the request's preference items:

* scalar items contribute themselves;
* intervals contribute every step from ``best`` to ``worst`` (step 1 for
  integer attributes; :data:`FLOAT_STEPS` evenly spaced steps, both ends
  included, for float attributes).

A :class:`QualityAssignment` is one point in the level lattice: a mapping
from attribute name to the *index on its ladder* (0 = most preferred),
with helpers to materialize the concrete values, compare quality, and walk
degradation steps without ever violating the spec's ``Deps``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Tuple

from repro.errors import DomainError, RequestError
from repro.qos.request import AttributePreference, ServiceRequest, ValueInterval
from repro.qos.types import ValueType


FLOAT_STEPS = 8
"""Number of ladder steps an interval of a float attribute expands into."""


def _expand_interval(interval: ValueInterval, value_type: ValueType) -> list[Any]:
    """Expand an interval into concrete ladder values, best end first."""
    if value_type is ValueType.INTEGER:
        best, worst = int(interval.best), int(interval.worst)
        step = -1 if worst < best else 1
        return list(range(best, worst + step, step))
    # Float: evenly spaced samples including both ends.
    best, worst = float(interval.best), float(interval.worst)
    if best == worst:
        return [best]
    return [
        best + (worst - best) * i / (FLOAT_STEPS - 1) for i in range(FLOAT_STEPS)
    ]


def build_ladder(
    preference: AttributePreference, value_type: ValueType
) -> Tuple[Any, ...]:
    """Build the ordered acceptable-value ladder for one attribute.

    Values appear most-preferred first and duplicates (e.g. touching
    intervals) are removed keeping the earliest occurrence.
    """
    out: list[Any] = []
    seen: set[Any] = set()
    for item in preference.items:
        if isinstance(item, ValueInterval):
            values = _expand_interval(item, value_type)
        else:
            values = [item]
        for v in values:
            if v not in seen:
                seen.add(v)
                out.append(v)
    if not out:  # pragma: no cover - AttributePreference forbids empty items
        raise RequestError(f"empty ladder for attribute {preference.attribute!r}")
    return tuple(out)


@dataclass(frozen=True)
class DegradationLadder:
    """All attribute ladders of one request, in importance order.

    Attributes:
        request: The originating service request.
        ladders: attribute name -> ordered acceptable values (best first).
    """

    request: ServiceRequest
    ladders: Mapping[str, Tuple[Any, ...]]

    @classmethod
    def from_request(cls, request: ServiceRequest) -> "DegradationLadder":
        """Derive ladders for every attribute of ``request``."""
        ladders: Dict[str, Tuple[Any, ...]] = {}
        for name in request.attribute_names:
            attr = request.spec.attribute(name)
            ladders[name] = build_ladder(
                request.preference_for(name), attr.domain.value_type
            )
        return cls(request=request, ladders=dict(ladders))

    def ladder(self, attribute: str) -> Tuple[Any, ...]:
        try:
            return tuple(self.ladders[attribute])
        except KeyError:
            raise RequestError(f"no ladder for attribute {attribute!r}") from None

    def depth(self, attribute: str) -> int:
        """Number of acceptable levels for ``attribute``."""
        return len(self.ladder(attribute))

    def top(self) -> "QualityAssignment":
        """The most-preferred assignment (every attribute at index 0)."""
        return QualityAssignment(self, {a: 0 for a in self.ladders})

    def bottom(self) -> "QualityAssignment":
        """The least-preferred acceptable assignment."""
        return QualityAssignment(
            self, {a: len(l) - 1 for a, l in self.ladders.items()}
        )

    def assignment_from_values(self, values: Mapping[str, Any]) -> "QualityAssignment":
        """Build an assignment from concrete values (must be on ladders)."""
        idx: Dict[str, int] = {}
        for attr, ladder in self.ladders.items():
            if attr not in values:
                raise RequestError(f"missing value for attribute {attr!r}")
            try:
                idx[attr] = ladder.index(values[attr])
            except ValueError:
                raise DomainError(
                    f"value {values[attr]!r} not on the acceptable ladder "
                    f"of {attr!r}: {ladder!r}"
                ) from None
        return QualityAssignment(self, idx)


class QualityAssignment:
    """One quality level per attribute, as indices on degradation ladders.

    Index 0 is the most-preferred level; larger indices are degradations.
    Instances are immutable; degradation steps return new assignments.
    """

    __slots__ = ("ladder_set", "_indices", "_key")

    def __init__(self, ladder_set: DegradationLadder, indices: Mapping[str, int]) -> None:
        if set(indices) != set(ladder_set.ladders):
            raise RequestError("assignment does not cover exactly the ladder attributes")
        for attr, i in indices.items():
            depth = len(ladder_set.ladders[attr])
            if not (0 <= i < depth):
                raise DomainError(
                    f"level index {i} out of range for {attr!r} (depth {depth})"
                )
        self.ladder_set = ladder_set
        self._indices: Dict[str, int] = dict(indices)
        self._key: Tuple[Tuple[str, int], ...] | None = None

    @classmethod
    def _trusted(
        cls, ladder_set: DegradationLadder, indices: Dict[str, int]
    ) -> "QualityAssignment":
        """Construct from already-validated indices, skipping the checks
        (and taking ownership of ``indices``). Internal fast path for
        :meth:`degrade`, whose results are valid by construction."""
        self = object.__new__(cls)
        self.ladder_set = ladder_set
        self._indices = indices
        self._key = None
        return self

    # -- views ------------------------------------------------------------

    def index(self, attribute: str) -> int:
        """Ladder index of ``attribute`` (0 = best)."""
        try:
            return self._indices[attribute]
        except KeyError:
            raise RequestError(f"attribute {attribute!r} not in assignment") from None

    def value(self, attribute: str) -> Any:
        """Concrete value of ``attribute`` at its current level."""
        return self.ladder_set.ladders[attribute][self.index(attribute)]

    def values(self) -> Dict[str, Any]:
        """Concrete attribute -> value mapping."""
        return {a: self.value(a) for a in self._indices}

    def indices(self) -> Dict[str, int]:
        return dict(self._indices)

    def index_key(self) -> Tuple[Tuple[str, int], ...]:
        """Hashable, order-independent ``(attribute, level)`` key.

        Used as a memoization key by the formulation heuristic (two
        assignments over the same ladders are the same quality level iff
        their keys are equal). Computed once per (immutable) instance."""
        key = self._key
        if key is None:
            key = tuple(sorted(self._indices.items()))
            self._key = key
        return key

    @property
    def at_top(self) -> bool:
        """True when every attribute is at its preferred level (the
        ``Q_k1`` condition of eq. 1)."""
        return all(i == 0 for i in self._indices.values())

    @property
    def at_bottom(self) -> bool:
        """True when no further degradation is possible anywhere."""
        return all(
            i == len(self.ladder_set.ladders[a]) - 1
            for a, i in self._indices.items()
        )

    def total_degradation(self) -> int:
        """Sum of ladder indices — a simple coarseness measure."""
        return sum(self._indices.values())

    # -- transitions ------------------------------------------------------

    def can_degrade(self, attribute: str) -> bool:
        """Whether ``attribute`` has a lower acceptable level."""
        return self.index(attribute) + 1 < len(self.ladder_set.ladders[attribute])

    def degrade(self, attribute: str) -> "QualityAssignment":
        """Return a new assignment with ``attribute`` one level lower.

        Raises:
            DomainError: If the attribute is already at its worst level.
        """
        if not self.can_degrade(attribute):
            raise DomainError(f"attribute {attribute!r} already at worst level")
        idx = dict(self._indices)
        idx[attribute] += 1
        return QualityAssignment._trusted(self.ladder_set, idx)

    def degradable_attributes(self) -> Tuple[str, ...]:
        """All attributes that still have a lower level, in request
        importance order."""
        order = self.ladder_set.request.attribute_names
        return tuple(a for a in order if self.can_degrade(a))

    def respects_dependencies(self) -> bool:
        """Whether the concrete values satisfy the spec's ``Deps``."""
        return self.ladder_set.request.spec.dependencies.satisfied(self.values())

    # -- dunder -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, QualityAssignment)
            and other.ladder_set is self.ladder_set
            and other._indices == self._indices
        )

    def __hash__(self) -> int:
        return hash(self.index_key())

    def __repr__(self) -> str:
        parts = ", ".join(f"{a}={self.value(a)!r}@{i}" for a, i in sorted(self._indices.items()))
        return f"<QualityAssignment {parts}>"
