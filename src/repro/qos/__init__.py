"""QoS requirements representation (Section 3 of the paper).

The paper models application QoS requirements as

    ``QoS = {Dim, Attr, Val, DAr, AVr, Deps}``

* ``Dim``  — set of QoS dimension identifiers (e.g. *Video Quality*);
* ``Attr`` — set of attribute identifiers (e.g. *frame rate*);
* ``Val``  — typed value sets: ``{Type, Domain}`` with
  ``Type ∈ {integer, float, string}`` and
  ``Domain ∈ {continuous, discrete}``;
* ``DAr``  — assigns each dimension its attributes;
* ``AVr``  — assigns each attribute its value set;
* ``Deps`` — inter-attribute value dependencies.

This subpackage implements that scheme faithfully
(:class:`~repro.qos.spec.QoSSpec`), plus the *service request* format of
Section 3.1 (:class:`~repro.qos.request.ServiceRequest`), in which users
express preferences as qualitative decreasing-importance orders over
dimensions, attributes, and values rather than numeric utilities.
"""

from repro.qos.types import ValueType, DomainKind
from repro.qos.domain import ContinuousDomain, DiscreteDomain, Domain
from repro.qos.attribute import Attribute
from repro.qos.dimension import QoSDimension
from repro.qos.dependencies import Dependency, DependencySet
from repro.qos.spec import QoSSpec
from repro.qos.request import (
    AttributePreference,
    DimensionPreference,
    PreferenceItem,
    ServiceRequest,
    ValueInterval,
)
from repro.qos.levels import DegradationLadder, QualityAssignment, build_ladder
from repro.qos import catalog

__all__ = [
    "ValueType",
    "DomainKind",
    "Domain",
    "ContinuousDomain",
    "DiscreteDomain",
    "Attribute",
    "QoSDimension",
    "Dependency",
    "DependencySet",
    "QoSSpec",
    "AttributePreference",
    "DimensionPreference",
    "PreferenceItem",
    "ServiceRequest",
    "ValueInterval",
    "DegradationLadder",
    "QualityAssignment",
    "build_ladder",
    "catalog",
]
