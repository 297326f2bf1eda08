"""Service requests as qualitative preference orders (paper Section 3.1).

The paper argues users cannot assign numeric utilities to every quality
choice; instead a request imposes a *relative decreasing order of
importance* on dimensions, on each dimension's attributes, and on each
attribute's acceptable values. The paper's surveillance example::

    1. Video Quality
       (a) frame rate:  [10,...,5], [4,...,1]
       (b) color depth: 3, 1
    2. Audio Quality
       (a) sampling rate: 8
       (b) sample bits:   8

is expressed here as a :class:`ServiceRequest` whose
:class:`DimensionPreference` entries appear in decreasing importance, each
holding :class:`AttributePreference` entries in decreasing importance, each
holding :class:`PreferenceItem` values/intervals in decreasing preference.
Lower index == more important, exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Sequence, Tuple, Union

from repro.errors import RequestError
from repro.qos.domain import DiscreteDomain
from repro.qos.spec import QoSSpec


@dataclass(frozen=True)
class ValueInterval:
    """A preference interval for a continuous attribute.

    ``best`` is the user's favourite end; preference decreases toward
    ``worst``. The paper writes ``[10,...,5]`` meaning 10 is preferred and
    5 is the least-preferred value of the interval.
    """

    best: float
    worst: float

    def __contains__(self, value: Any) -> bool:
        lo, hi = min(self.best, self.worst), max(self.best, self.worst)
        return lo <= value <= hi

    @property
    def lo(self) -> float:
        return min(self.best, self.worst)

    @property
    def hi(self) -> float:
        return max(self.best, self.worst)

    def __str__(self) -> str:
        return f"[{self.best},...,{self.worst}]"


PreferenceItem = Union[ValueInterval, int, float, str]
"""One entry of an attribute's preference list: a scalar or an interval."""


@dataclass(frozen=True)
class AttributePreference:
    """Ordered acceptable values for one attribute (decreasing preference).

    Attributes:
        attribute: Attribute identifier.
        items: Acceptable scalars / intervals, most preferred first.
    """

    attribute: str
    items: Tuple[PreferenceItem, ...]

    def __post_init__(self) -> None:
        if not self.items:
            raise RequestError(
                f"attribute preference {self.attribute!r} lists no acceptable values"
            )

    @property
    def preferred(self) -> Any:
        """The user's single most preferred value (``Pref_ki`` of eq. 5)."""
        first = self.items[0]
        if isinstance(first, ValueInterval):
            return first.best
        return first

    def accepts(self, value: Any) -> bool:
        """Whether ``value`` appears in any preference item."""
        for item in self.items:
            if isinstance(item, ValueInterval):
                if value in item:
                    return True
            elif item == value:
                return True
        return False

    def scalar_values(self) -> Tuple[Any, ...]:
        """All scalar items (intervals excluded), in preference order."""
        return tuple(i for i in self.items if not isinstance(i, ValueInterval))

    def bounds(self) -> Tuple[float, float]:
        """(min, max) over every scalar and interval endpoint.

        Only meaningful for numeric attributes.
        """
        lows: list[float] = []
        highs: list[float] = []
        for item in self.items:
            if isinstance(item, ValueInterval):
                lows.append(item.lo)
                highs.append(item.hi)
            else:
                lows.append(float(item))  # type: ignore[arg-type]
                highs.append(float(item))  # type: ignore[arg-type]
        return min(lows), max(highs)


@dataclass(frozen=True)
class DimensionPreference:
    """Ordered attribute preferences for one dimension.

    Attributes:
        dimension: Dimension identifier.
        attributes: Attribute preferences, most important first.
    """

    dimension: str
    attributes: Tuple[AttributePreference, ...]

    def __post_init__(self) -> None:
        if not self.attributes:
            raise RequestError(
                f"dimension preference {self.dimension!r} lists no attributes"
            )
        names = [a.attribute for a in self.attributes]
        if len(set(names)) != len(names):
            raise RequestError(
                f"dimension preference {self.dimension!r} repeats an attribute"
            )

    def __iter__(self) -> Iterator[AttributePreference]:
        return iter(self.attributes)


class ServiceRequest:
    """A user's QoS request: preference orders over an application spec.

    Args:
        spec: The application's QoS specification the request refers to.
        dimensions: Dimension preferences, most important first. Every
            dimension of the spec must appear exactly once (the paper's
            evaluator requires proposals to "satisfy all the QoS
            dimensions requested by the user", so requests are total).
        name: Optional request label for traces.

    Raises:
        RequestError: On unknown identifiers, missing/duplicate dimensions
            or attributes, or values outside the attribute domains.
    """

    def __init__(
        self,
        spec: QoSSpec,
        dimensions: Sequence[DimensionPreference],
        name: str = "request",
    ) -> None:
        self.spec = spec
        self.name = name
        self.dimensions: Tuple[DimensionPreference, ...] = tuple(dimensions)
        self._validate()
        self._attr_index: dict[str, AttributePreference] = {
            ap.attribute: ap
            for dp in self.dimensions
            for ap in dp.attributes
        }

    def _validate(self) -> None:
        seen_dims = [dp.dimension for dp in self.dimensions]
        if len(set(seen_dims)) != len(seen_dims):
            raise RequestError("request repeats a dimension")
        spec_dims = set(self.spec.dimension_names)
        if set(seen_dims) != spec_dims:
            missing = spec_dims - set(seen_dims)
            extra = set(seen_dims) - spec_dims
            raise RequestError(
                f"request dimensions must match the spec exactly; "
                f"missing={sorted(missing)!r} extra={sorted(extra)!r}"
            )
        for dp in self.dimensions:
            spec_dim = self.spec.dimension(dp.dimension)
            req_attrs = {ap.attribute for ap in dp.attributes}
            if req_attrs != set(spec_dim.attributes):
                raise RequestError(
                    f"dimension {dp.dimension!r}: request attributes "
                    f"{sorted(req_attrs)!r} do not match spec attributes "
                    f"{sorted(spec_dim.attributes)!r}"
                )
            for ap in dp.attributes:
                self._validate_attribute_pref(ap)

    def _validate_attribute_pref(self, ap: AttributePreference) -> None:
        attr = self.spec.attribute(ap.attribute)
        domain = attr.domain
        for item in ap.items:
            if isinstance(item, ValueInterval):
                if isinstance(domain, DiscreteDomain):
                    raise RequestError(
                        f"attribute {ap.attribute!r} is discrete; intervals "
                        f"are only valid for continuous attributes"
                    )
                domain.validate(item.best)
                domain.validate(item.worst)
            else:
                domain.validate(item)

    # -- lookups ----------------------------------------------------------

    def preference_for(self, attribute: str) -> AttributePreference:
        """The preference entry for ``attribute``."""
        try:
            return self._attr_index[attribute]
        except KeyError:
            raise RequestError(f"attribute {attribute!r} not in request") from None

    def dimension_preference(self, dimension: str) -> DimensionPreference:
        for dp in self.dimensions:
            if dp.dimension == dimension:
                return dp
        raise RequestError(f"dimension {dimension!r} not in request")

    def dimension_rank(self, dimension: str) -> int:
        """1-based importance rank of a dimension (paper's ``k``)."""
        for k, dp in enumerate(self.dimensions, start=1):
            if dp.dimension == dimension:
                return k
        raise RequestError(f"dimension {dimension!r} not in request")

    def attribute_rank(self, dimension: str, attribute: str) -> int:
        """1-based importance rank of an attribute within its dimension
        (paper's ``i``)."""
        dp = self.dimension_preference(dimension)
        for i, ap in enumerate(dp.attributes, start=1):
            if ap.attribute == attribute:
                return i
        raise RequestError(
            f"attribute {attribute!r} not in dimension {dimension!r} preference"
        )

    @property
    def attribute_names(self) -> Tuple[str, ...]:
        """All attributes in importance order (dimension-major)."""
        return tuple(
            ap.attribute for dp in self.dimensions for ap in dp.attributes
        )

    def preferred_assignment(self) -> dict[str, Any]:
        """The top-quality assignment: every attribute at its preferred
        value. (Starting point of the Section 5 heuristic.)"""
        return {name: self.preference_for(name).preferred for name in self.attribute_names}

    def accepts(self, attribute: str, value: Any) -> bool:
        """Whether ``value`` is acceptable for ``attribute``."""
        return self.preference_for(attribute).accepts(value)

    def __repr__(self) -> str:
        dims = ", ".join(dp.dimension for dp in self.dimensions)
        return f"<ServiceRequest {self.name!r} spec={self.spec.name!r} dims=[{dims}]>"
