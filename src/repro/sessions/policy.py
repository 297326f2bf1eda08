"""The session-lifecycle policy: one frozen knob block for streaming runs.

:class:`SessionPolicy` collects every knob of the streaming-session
lifecycle — the keepalive cadence, the renegotiation budget, and the
churn drivers (crash hazard, streaming energy drain, mobility) — into
one frozen, purely-primitive dataclass. It rides inside
:class:`~repro.workloads.contention.ContentionConfig` and
:class:`~repro.workloads.registry.ScenarioSpec`, so a scenario's whole
lifecycle behaviour is declarative, printable and ``replace``-sweepable
like every other spec field.

All fields are plain floats/ints/strings: a policy never holds RNG
state, so a run configured by one stays a pure function of its seed
(the determinism contract of :mod:`repro.experiments`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

#: Mobility models a streaming run can drive its cluster with.
MOBILITY_MODES = ("static", "waypoint")


@dataclass(frozen=True)
class SessionPolicy:
    """Lifecycle knobs for streaming sessions under contention.

    Attributes:
        operate: Must be ``True`` (``False`` raises
            :class:`ValueError`): every contention run streams its
            sessions through the :class:`~repro.sessions.SessionDriver`,
            so each admitted coalition's operation phase runs inside
            the run.
        keepalive: Seconds between a session's keepalive ticks — the
            cadence at which member liveness is checked, streaming
            upkeep energy is drawn, and degradation is detected (a crash
            is noticed at the *next* keepalive, not instantly, matching
            the request/keepalive/renegotiate protocol shape).
        max_renegotiations: Failed in-place renegotiation attempts a
            session tolerates; reaching the bound drops the session.
            Successful renegotiations do not consume the budget. A
            failed attempt with budget left does not retry by itself:
            the lost tasks are already out of the session's live set,
            so the session stays ``DEGRADED`` and renegotiates again
            only when a later keepalive finds another dead member (or a
            partition grace expires). Otherwise it streams degraded
            until its span ends and closes cleanly.
        failure_rate: Per-helper-node crash hazard (1/s). Each
            non-requester node draws one exponential time-to-crash from
            the run's ``failures`` stream; draws landing inside the
            arrival horizon are scheduled as crashes. ``0`` disables
            crash churn (and consumes no draws).
        drain: Streaming upkeep in joules per second per held award,
            drawn from the serving node's battery at every keepalive
            tick *on top of* the energy reserved at admission. Drained
            batteries kill nodes mid-session. ``0`` disables.
        duration_scale: Multiplier on the nominal session duration
            (the service's longest task duration) — the E20 sweep's
            session-length axis.
        mobility: ``"static"`` (nodes stay put) or ``"waypoint"``
            (random-waypoint motion with a topology rebuild per
            one-second tick).
        mobility_speed: Maximum waypoint speed (m/s).
        partition_grace: Seconds a session tolerates an *alive but
            unreachable* member (a network partition) before treating it
            as lost. While any member is within grace the session is
            ``DEGRADED``, not dropped; if the partition heals in time it
            recovers in place (``DEGRADED → OPERATING``, same awards, no
            renegotiation). ``0`` (the default) disables the grace
            window entirely — reachability is never probed, preserving
            the pre-fault keepalive path draw for draw.
    """

    operate: bool = True
    keepalive: float = 5.0
    max_renegotiations: int = 2
    failure_rate: float = 0.0
    drain: float = 0.0
    duration_scale: float = 1.0
    mobility: str = "static"
    mobility_speed: float = 4.0
    partition_grace: float = 0.0

    def __post_init__(self) -> None:
        if not self.operate:
            raise ValueError(
                "operate=False is not supported: every contention run "
                "streams its sessions through the SessionDriver"
            )
        if self.keepalive <= 0:
            raise ValueError(f"keepalive must be positive, got {self.keepalive}")
        if self.max_renegotiations < 0:
            raise ValueError(
                f"max_renegotiations must be >= 0, got {self.max_renegotiations}"
            )
        if self.failure_rate < 0:
            raise ValueError(f"failure_rate must be >= 0, got {self.failure_rate}")
        if self.drain < 0:
            raise ValueError(f"drain must be >= 0, got {self.drain}")
        if self.duration_scale <= 0:
            raise ValueError(
                f"duration_scale must be positive, got {self.duration_scale}"
            )
        if self.mobility not in MOBILITY_MODES:
            raise ValueError(
                f"unknown mobility mode {self.mobility!r}; "
                f"available: {', '.join(MOBILITY_MODES)}"
            )
        if self.mobility_speed < 0:
            raise ValueError(
                f"mobility_speed must be >= 0, got {self.mobility_speed}"
            )
        if self.partition_grace < 0:
            raise ValueError(
                f"partition_grace must be >= 0, got {self.partition_grace}"
            )

    def replace(self, **changes) -> "SessionPolicy":
        """A copy with fields changed (sweep helper, like
        :meth:`~repro.workloads.contention.ContentionConfig.replace`)."""
        return dataclasses.replace(self, **changes)
