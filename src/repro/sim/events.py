"""Event records for the discrete-event engine.

An :class:`Event` couples a firing time with a callback. Events carry a
:class:`Priority` so that logically-ordered activities happening at the same
simulated instant fire in a defined order (e.g. message deliveries before
timers), and a monotonically increasing sequence number breaks any remaining
ties, making runs fully deterministic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Optional


class Priority(enum.IntEnum):
    """Firing order among events scheduled at the same simulated time.

    Lower numeric value fires first. The defaults are chosen so that
    network deliveries are visible to callbacks firing at the same instant.
    """

    DELIVERY = 0
    """Message deliveries / external stimuli."""

    NORMAL = 1
    """Ordinary callbacks."""

    TIMER = 2
    """Timeouts and watchdogs: fire after same-time deliveries."""

    MONITOR = 3
    """Probes and statistics sampling: observe the settled state."""


@dataclass(order=True)
class Event:
    """A scheduled callback, ordered by ``(time, priority, seq)``.

    Attributes:
        time: Simulated time at which the callback fires.
        priority: Tie-break class for same-time events.
        seq: Engine-assigned sequence number; final tie-break (FIFO).
        callback: Called as ``callback(time)`` when the event fires.
        cancelled: When ``True`` the engine silently discards the event.
    """

    time: float
    priority: int
    seq: int
    callback: Callable[[float], Any] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    fired: bool = field(default=False, compare=False)


class EventHandle:
    """Cancellation token returned by :meth:`repro.sim.Engine.schedule`.

    Cancelling is O(1): the underlying event is flagged and skipped when it
    reaches the head of the queue (lazy deletion). The engine passes an
    ``on_cancel`` callback so its live pending-event counter stays exact
    without scanning the heap.
    """

    __slots__ = ("_event", "_on_cancel")

    def __init__(
        self, event: Event, on_cancel: Optional[Callable[[], None]] = None
    ) -> None:
        self._event = event
        self._on_cancel = on_cancel

    @property
    def time(self) -> float:
        """Scheduled firing time."""
        return self._event.time

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called."""
        return self._event.cancelled

    def cancel(self) -> bool:
        """Cancel the event. Returns ``True`` if it had not already fired
        or been cancelled."""
        if self._event.cancelled or self._event.fired:
            return False
        self._event.cancelled = True
        if self._on_cancel is not None:
            self._on_cancel()
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time} {state}>"
