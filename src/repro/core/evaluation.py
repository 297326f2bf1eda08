"""Proposal evaluation: eqs. 2–5 (paper Section 6).

.. math::

    \\text{distance} = \\sum_{k=1}^{n} w_k \\cdot \\text{dist}(Q_k)
    \\qquad (eq.\\ 2)

    w_k = \\frac{n - k + 1}{n} \\qquad (eq.\\ 3)

    \\text{dist}(Q_k) = \\sum_{i=1}^{attr_k} w_i \\cdot
        \\text{dif}(Prop_{ki}, Pref_{ki}) \\qquad (eq.\\ 4)

    \\text{dif} = \\begin{cases}
        \\dfrac{Prop_{ki} - Pref_{ki}}{\\max(Q_k) - \\min(Q_k)} &
            \\text{continuous} \\\\[1ex]
        \\dfrac{pos(Prop_{ki}) - pos(Pref_{ki})}{length(Q_k) - 1} &
            \\text{discrete}
        \\end{cases} \\qquad (eq.\\ 5)

Interpretation choices (documented because the paper under-specifies):

* **Attribute weights** ``w_i`` in eq. 4 reuse the positional scheme of
  eq. 3 within the dimension: ``w_i = (attr_k − i + 1)/attr_k``. The paper
  introduces the same relative-importance indexing for attributes and says
  weights encode that order; eq. 3 is the only weight formula it gives.
* **Magnitude of dif**: eq. 5 is signed as written, but a signed value
  would *reward* offers numerically below the preferred one (e.g. 5 fps
  when 10 fps is preferred ⇒ negative "distance"), contradicting the
  paper's "lowest evaluation … closer to the preferred ones". We take the
  absolute value.
* **Normalization set** ``Q_k``: eq. 5 normalizes by the attribute's value
  span/length. We use the application spec's domain — the quality-index
  reading of Lee et al. [12] that the paper cites. The request's
  acceptable set (Section 4.1 defines ``Q_kj`` as the requested quality
  choices) is the other defensible reading; we do not use it.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import NegotiationError, RequestError
from repro.core.proposal import Proposal
from repro.qos.domain import ContinuousDomain, DiscreteDomain
from repro.qos.request import ServiceRequest


class WeightScheme(enum.Enum):
    """How positional importance ranks map to numeric weights."""

    LINEAR = "linear"
    """The paper's eq. 3: ``w_k = (n - k + 1) / n``."""

    UNIFORM = "uniform"
    """All ranks weigh 1 — ignores the user's importance order."""

    GEOMETRIC = "geometric"
    """``w_k = 2^-(k-1)`` — sharply front-loaded importance."""

    def weight(self, rank: int, count: int) -> float:
        """Weight of the item at 1-based ``rank`` among ``count`` items."""
        if not (1 <= rank <= count):
            raise NegotiationError(f"rank {rank} out of range 1..{count}")
        if self is WeightScheme.LINEAR:
            return (count - rank + 1) / count
        if self is WeightScheme.UNIFORM:
            return 1.0
        return 2.0 ** (-(rank - 1))


class _CompiledAttribute:
    """One attribute's precompiled eq. 5 state (see ProposalEvaluator).

    ``dif_cache`` maps ``(value class, value)`` to the finished dif — the
    class is part of the key so an ``int`` and a numerically equal
    ``float`` cannot alias each other's (type-sensitive) validation.
    """

    __slots__ = (
        "name", "continuous", "domain", "pref_value", "pref_position",
        "span", "dif_cache",
    )

    def __init__(
        self,
        name: str,
        continuous: bool,
        domain: Any,
        pref_value: float,
        pref_position: int,
        span: float,
    ) -> None:
        self.name = name
        self.continuous = continuous
        self.domain = domain
        self.pref_value = pref_value
        self.pref_position = pref_position
        self.span = span
        self.dif_cache: Dict[Tuple[type, Any], float] = {}


#: One dimension's compiled state: ``w_k`` and its ``(attribute, w_i)``
#: pairs in importance order.
_Dimension = Tuple[float, List[Tuple[_CompiledAttribute, float]]]


class ProposalEvaluator:
    """Scores proposals against a service request (lower = better).

    The request is **compiled once** at construction — dimension
    weights (eq. 3), attribute weights (eq. 4), continuous spans and
    discrete domain positions — because in the negotiation hot path
    (one evaluation per proposal per task per service) re-deriving them
    per call would dominate. :meth:`distances` scores a whole proposal
    list in one call, with per-attribute dif values cached per distinct
    offered value and the eq. 4/eq. 2 reductions done as numpy array
    arithmetic across proposals.

    Every entry point performs the same float operations in the same
    order — per dimension, ``w_i · dif`` terms accumulate in attribute
    order; across dimensions, ``w_k · dist(Q_k)`` terms accumulate in
    importance order — so ``distances(props)[i] == distance(props[i])``
    exactly. ``tests/data/evaluation_golden.json`` records the answers
    of the original per-call implementation, and
    ``tests/test_batch_evaluation.py`` pins this one to them bit for
    bit. Out-of-domain values raise :class:`~repro.errors.DomainError`,
    missing attributes ``KeyError``.

    Args:
        request: The user's request (supplies preference orders and the
            preferred values ``Pref_ki``).
        weights: Rank→weight scheme for both dimensions and attributes.
    """

    def __init__(
        self,
        request: ServiceRequest,
        weights: WeightScheme = WeightScheme.LINEAR,
    ) -> None:
        self.request = request
        self.weights = weights

        # -- compile: one pass over the request ---------------------------
        n_dims = len(request.dimensions)
        self._dims: List[_Dimension] = []
        self._by_dimension: Dict[str, _Dimension] = {}
        self._by_attribute: Dict[str, _CompiledAttribute] = {}
        for k, dp in enumerate(request.dimensions, start=1):
            count = len(dp.attributes)
            compiled_attrs: List[Tuple[_CompiledAttribute, float]] = []
            for i, ap in enumerate(dp.attributes, start=1):
                entry = self._compile_attribute(ap.attribute)
                self._by_attribute[ap.attribute] = entry
                compiled_attrs.append((entry, weights.weight(i, count)))
            dim = (weights.weight(k, n_dims), compiled_attrs)
            self._dims.append(dim)
            self._by_dimension[dp.dimension] = dim

    def _compile_attribute(self, name: str) -> _CompiledAttribute:
        pref = self.request.preference_for(name).preferred
        domain = self.request.spec.attribute(name).domain
        if isinstance(domain, ContinuousDomain):
            return _CompiledAttribute(
                name, True, domain, float(pref), 0, domain.span(),
            )
        assert isinstance(domain, DiscreteDomain)
        return _CompiledAttribute(
            name, False, domain, 0.0, domain.position(pref), domain.span(),
        )

    def _dimension(self, dimension: str) -> _Dimension:
        try:
            return self._by_dimension[dimension]
        except KeyError:
            raise RequestError(f"dimension {dimension!r} not in request") from None

    # -- eq. 3 ------------------------------------------------------------

    def dimension_weight(self, dimension: str) -> float:
        """``w_k`` for a dimension (eq. 3 under the configured scheme)."""
        return self._dimension(dimension)[0]

    def attribute_weight(self, dimension: str, attribute: str) -> float:
        """``w_i`` for an attribute within its dimension."""
        for entry, w_i in self._dimension(dimension)[1]:
            if entry.name == attribute:
                return w_i
        raise RequestError(
            f"attribute {attribute!r} not in dimension {dimension!r} preference"
        )

    # -- eq. 5 ------------------------------------------------------------

    def _dif(self, entry: _CompiledAttribute, proposed: Any) -> float:
        """``dif(Prop_ki, Pref_ki)`` from the compiled tables, cached per
        distinct offered value."""
        key = (proposed.__class__, proposed)
        cached = entry.dif_cache.get(key)
        if cached is not None:
            return cached
        if entry.continuous:
            raw = (float(entry.domain.validate(proposed)) - entry.pref_value) \
                / entry.span
        else:
            raw = (entry.domain.position(proposed) - entry.pref_position) \
                / entry.span
        dif = abs(raw)
        entry.dif_cache[key] = dif
        return dif

    def dif(self, attribute: str, proposed: Any) -> float:
        """``dif(Prop_ki, Pref_ki)`` for one attribute."""
        try:
            entry = self._by_attribute[attribute]
        except KeyError:
            raise RequestError(f"attribute {attribute!r} not in request") from None
        return self._dif(entry, proposed)

    # -- eq. 4 ------------------------------------------------------------

    def _dimension_sum(
        self, compiled_attrs: List[Tuple[_CompiledAttribute, float]], proposal: Proposal
    ) -> float:
        total = 0.0
        for entry, w_i in compiled_attrs:
            total += w_i * self._dif(entry, proposal.value(entry.name))
        return total

    def dimension_distance(self, dimension: str, proposal: Proposal) -> float:
        """``dist(Q_k)``: weighted attribute differences of one dimension."""
        return self._dimension_sum(self._dimension(dimension)[1], proposal)

    # -- eq. 2 ------------------------------------------------------------

    def distance(self, proposal: Proposal) -> float:
        """The full eq. 2 evaluation of a proposal (lower is better)."""
        total = 0.0
        for w_k, compiled_attrs in self._dims:
            total += w_k * self._dimension_sum(compiled_attrs, proposal)
        return total

    def distances(self, proposals: Sequence[Proposal]) -> np.ndarray:
        """eq. 2 distances of every proposal, in input order.

        Each element equals :meth:`distance` of that proposal exactly
        (see the class docs for the op-order argument).
        """
        n = len(proposals)
        total = np.zeros(n)
        if n == 0:
            return total
        column = np.empty(n)
        for w_k, compiled_attrs in self._dims:
            dim_total = np.zeros(n)
            for entry, w_i in compiled_attrs:
                cache = entry.dif_cache
                name = entry.name
                for j, proposal in enumerate(proposals):
                    value = proposal.value(name)
                    dif = cache.get((value.__class__, value))
                    if dif is None:
                        dif = self._dif(entry, value)
                    column[j] = dif
                dim_total += w_i * column
            total += w_k * dim_total
        return total

    def max_distance(self) -> float:
        """Upper bound of :meth:`distance` over in-domain proposals
        (the module's :func:`max_distance` of this request)."""
        return max_distance(self.request, self.weights)


def max_distance(
    request: ServiceRequest, weights: WeightScheme = WeightScheme.LINEAR
) -> float:
    """Upper bound of the eq. 2 distance over in-domain proposals.

    With absolute differences every ``|dif|`` is at most 1, so the bound
    is ``Σ_k w_k · Σ_i w_i``, summed in importance order as the compiled
    evaluator sums its distances. It reads only the request's preference
    orders, so utility reporting normalizes distances into [0, 1]
    without compiling a :class:`ProposalEvaluator`.
    """
    n_dims = len(request.dimensions)
    total = 0.0
    for k, dp in enumerate(request.dimensions, start=1):
        count = len(dp.attributes)
        total += weights.weight(k, n_dims) * sum(
            weights.weight(i, count) for i in range(1, count + 1)
        )
    return total


#: Alias for callers that name the batch scorer, such as the perf
#: benchmark's span table (``benchmarks/perf/spans.py``).
BatchProposalEvaluator = ProposalEvaluator
