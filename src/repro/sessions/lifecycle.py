"""The streaming-session state machine.

The paper's coalition life cycle (Section 4) ends at dissolution, but a
*streaming* session — movie playback, conferencing, telemetry — lives
through admission, sustained operation, partial failure and in-place
renegotiation before it dissolves. :class:`Session` tracks one request
through that machine::

    NEGOTIATING ──► OPERATING ◄──► DEGRADED ──► RENEGOTIATING
         │            │    ▲          │   ▲            │
         ▼            ▼    └──────────┼───┼────────────┤
      DROPPED       CLOSED ◄──────────┘   └────────────┤
         ▲                                             ▼
         └──────────────(DEGRADED, RENEGOTIATING)── DROPPED

* ``NEGOTIATING → OPERATING`` — admission succeeded (a complete
  coalition holds reservations); ``NEGOTIATING → DROPPED`` — admission
  was refused.
* ``OPERATING → DEGRADED`` — a keepalive tick found a coalition member
  dead (crash, drained battery) or unreachable behind a network
  partition (within the policy's partition-grace window); the orphaned
  tasks stream nothing.
* ``DEGRADED → OPERATING`` — every suspended member became reachable
  again before its grace expired (a healed partition): the session
  recovers *in place*, same awards, no renegotiation.
* ``DEGRADED → RENEGOTIATING`` — the organizer re-runs the Section 4.2
  protocol for the orphaned tasks against the *currently contended*
  cluster; ``RENEGOTIATING → OPERATING`` on success,
  ``→ DEGRADED`` on a failed attempt with budget left,
  ``→ DROPPED`` once the attempt budget is spent.
* ``OPERATING/DEGRADED → CLOSED`` — the planned streaming span ended.
* ``DEGRADED → DROPPED`` — the requester itself died (nobody is left to
  consume the stream).

``CLOSED`` and ``DROPPED`` are terminal. Illegal transitions raise
:class:`~repro.errors.SessionStateError` — the machine is enforced, not
advisory.

Sustained utility
-----------------
A session integrates its instantaneous utility (mean per-task
normalized utility of the awards it currently holds; orphaned tasks
contribute 0) piecewise-constantly between life-cycle events, and
normalizes by the *planned* streaming span::

    sustained_utility = (1/D) · ∫₀ᴰ u(t) dt

so a session that streamed at admission quality for its whole span
scores its admission utility (up to floating-point rounding), one
renegotiated to degraded levels scores less, and one dropped halfway
scores at most half. Everything is event-driven — no sampling — so the
value is an exact function of the event trace (and therefore of the
seed).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.errors import SessionStateError
from repro.services.service import Service

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.coalition import Coalition
    from repro.core.negotiation import NegotiationOutcome


class SessionState(enum.Enum):
    """Life-cycle states of a streaming session."""

    NEGOTIATING = "negotiating"
    OPERATING = "operating"
    DEGRADED = "degraded"
    RENEGOTIATING = "renegotiating"
    CLOSED = "closed"
    DROPPED = "dropped"


#: The legal transition relation; everything else raises.
SESSION_TRANSITIONS: Dict[SessionState, Tuple[SessionState, ...]] = {
    SessionState.NEGOTIATING: (SessionState.OPERATING, SessionState.DROPPED),
    SessionState.OPERATING: (SessionState.DEGRADED, SessionState.CLOSED),
    SessionState.DEGRADED: (
        SessionState.OPERATING,
        SessionState.RENEGOTIATING,
        SessionState.CLOSED,
        SessionState.DROPPED,
    ),
    SessionState.RENEGOTIATING: (
        SessionState.OPERATING,
        SessionState.DEGRADED,
        SessionState.DROPPED,
    ),
    SessionState.CLOSED: (),
    SessionState.DROPPED: (),
}

#: States in which a session holds reservations and counts as active.
ACTIVE_STATES = (
    SessionState.OPERATING,
    SessionState.DEGRADED,
    SessionState.RENEGOTIATING,
)


class Session:
    """One streaming request tracked through the session state machine.

    Sessions are passive records: the
    :class:`~repro.sessions.driver.SessionDriver` drives every
    transition on its engine. All bookkeeping — the transition trace,
    the utility integral, renegotiation counters — is event-driven and
    deterministic given the driver's event order.

    Args:
        service: The service (tasks + requester) the session streams.
        arrival: Simulated arrival time (when negotiation starts).
        duration: Planned streaming span in simulated seconds.
    """

    def __init__(self, service: Service, arrival: float, duration: float) -> None:
        if duration <= 0:
            raise ValueError(f"session duration must be positive, got {duration}")
        self.service = service
        self.arrival = float(arrival)
        self.duration = float(duration)
        self.state = SessionState.NEGOTIATING
        self.transitions: List[Tuple[float, SessionState]] = [
            (self.arrival, SessionState.NEGOTIATING)
        ]
        self.coalition: Optional["Coalition"] = None
        self.admission: Optional["NegotiationOutcome"] = None
        self.live_tasks: Set[str] = set()
        self.concurrent = 0
        """Sessions already active when this one negotiated."""
        self.renegotiations = 0
        """Successful in-place renegotiations."""
        self.failed_renegotiations = 0
        """Failed renegotiation attempts (the bounded budget)."""
        self.suspended: Dict[str, float] = {}
        """Task id → when its (alive) member became unreachable behind a
        partition; cleared when the member is reachable again. Only
        populated when the policy's partition grace is enabled."""
        self.award_retries = 0
        """Award-handshake retransmissions across this session's
        negotiation rounds (admission + renegotiations)."""
        self.retry_delay = 0.0
        """Total simulated backoff delay those retries spent."""
        self.ended_at: Optional[float] = None
        self._integral = 0.0
        self._mark = self.arrival
        self._utility = 0.0

    # -- state machine -----------------------------------------------------

    def transition(self, state: SessionState, now: float) -> None:
        """Move to ``state`` at time ``now``.

        Raises:
            SessionStateError: If the transition is not in
                :data:`SESSION_TRANSITIONS`.
        """
        if state not in SESSION_TRANSITIONS[self.state]:
            raise SessionStateError(
                f"session {self.service.name!r}: illegal transition "
                f"{self.state.value} -> {state.value}"
            )
        self._accrue(now)
        self.state = state
        self.transitions.append((now, state))
        if state in (SessionState.CLOSED, SessionState.DROPPED):
            self.ended_at = now
            self._utility = 0.0  # nothing streams after the end

    @property
    def admitted(self) -> bool:
        """Whether admission ever succeeded (the session operated)."""
        return self.coalition is not None

    @property
    def active(self) -> bool:
        return self.state in ACTIVE_STATES

    # -- utility accounting ------------------------------------------------

    def set_utility(self, now: float, value: float) -> None:
        """Record a change of instantaneous utility at ``now`` (awards
        gained, lost, or replaced); the previous value is integrated up
        to this instant."""
        self._accrue(now)
        self._utility = float(value)

    def _accrue(self, now: float) -> None:
        if now > self._mark:
            self._integral += (now - self._mark) * self._utility
            self._mark = now

    @property
    def utility(self) -> float:
        """Current instantaneous utility (mean per-task, in [0, 1])."""
        return self._utility

    @property
    def sustained_utility(self) -> float:
        """Time-integrated utility over the planned streaming span.

        Exact (piecewise-constant integration between life-cycle
        events), normalized by the planned duration, clamped to [0, 1].
        """
        if self.duration <= 0:
            return 0.0
        return max(0.0, min(1.0, self._integral / self.duration))

    @property
    def renegotiation_attempts(self) -> int:
        """All in-place renegotiation attempts, successful or not."""
        return self.renegotiations + self.failed_renegotiations

    def __repr__(self) -> str:
        return (
            f"<Session {self.service.name!r} state={self.state.value} "
            f"arrival={self.arrival:g} renegotiations={self.renegotiations}>"
        )
