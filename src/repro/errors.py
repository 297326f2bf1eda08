"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
applications can catch a single base class. Sub-hierarchies mirror the
package layout: QoS-specification errors, resource/admission errors,
network errors, negotiation errors, and simulation-kernel errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


# --------------------------------------------------------------------------
# QoS specification / request errors (repro.qos)
# --------------------------------------------------------------------------


class QoSSpecError(ReproError):
    """A QoS specification is malformed or internally inconsistent."""


class UnknownDimensionError(QoSSpecError):
    """A dimension identifier is not present in the specification."""

    def __init__(self, dimension: str) -> None:
        super().__init__(f"unknown QoS dimension: {dimension!r}")
        self.dimension = dimension


class UnknownAttributeError(QoSSpecError):
    """An attribute identifier is not present in the specification."""

    def __init__(self, attribute: str) -> None:
        super().__init__(f"unknown QoS attribute: {attribute!r}")
        self.attribute = attribute


class DomainError(QoSSpecError):
    """A value is outside its attribute's domain, or a domain is invalid."""


class DependencyError(QoSSpecError):
    """An inter-attribute dependency (``Deps``) is violated or malformed."""


class RequestError(ReproError):
    """A service request's preference structure is malformed."""


# --------------------------------------------------------------------------
# Resource / admission errors (repro.resources)
# --------------------------------------------------------------------------


class ResourceError(ReproError):
    """Base class for resource-management errors."""


class CapacityExceededError(ResourceError):
    """An admission request exceeds the remaining capacity of a resource."""


class UnknownReservationError(ResourceError):
    """A reservation handle does not correspond to a live reservation."""


class MappingError(ResourceError):
    """No QoS-level -> resource-demand mapping exists for a task/level."""


# --------------------------------------------------------------------------
# Network errors (repro.network)
# --------------------------------------------------------------------------


class NetworkError(ReproError):
    """Base class for simulated-network errors."""


class NotConnectedError(NetworkError):
    """Two nodes are not within radio range of each other."""


class UnknownNodeError(NetworkError):
    """A node identifier is not registered with the network/topology."""

    def __init__(self, node_id: object) -> None:
        super().__init__(f"unknown node: {node_id!r}")
        self.node_id = node_id


# --------------------------------------------------------------------------
# Negotiation / coalition errors (repro.core, repro.agents)
# --------------------------------------------------------------------------


class NegotiationError(ReproError):
    """Base class for negotiation-protocol errors."""


class NoAdmissibleProposalError(NegotiationError):
    """No received proposal satisfies all requested QoS dimensions."""


class InfeasibleTaskError(NegotiationError):
    """A task cannot be served at any acceptable quality level."""


class CoalitionError(ReproError):
    """Coalition life-cycle errors (formation / operation / dissolution)."""


class CoalitionStateError(CoalitionError):
    """An operation is invalid in the coalition's current phase."""


class SessionStateError(CoalitionError):
    """An illegal streaming-session life-cycle transition was attempted
    (see :class:`repro.sessions.SessionState` for the legal machine)."""


# --------------------------------------------------------------------------
# Simulation kernel errors (repro.sim)
# --------------------------------------------------------------------------


class SimulationError(ReproError):
    """Base class for discrete-event-simulation kernel errors."""


class SchedulingError(SimulationError):
    """An event was scheduled in the past or the engine is in a bad state."""
