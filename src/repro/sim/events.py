"""Event records for the discrete-event engine.

An :class:`Event` couples a firing time with a callback. Events carry a
:class:`Priority` so that logically-ordered activities happening at the same
simulated instant fire in a defined order (e.g. message deliveries before
timers), and a monotonically increasing sequence number breaks any remaining
ties, making runs fully deterministic.
"""

from __future__ import annotations

import enum
import weakref
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
        or been cancelled.

        The event stays in the heap until it surfaces, but its callback
        is dropped at once: a timer's callback usually holds its owner,
        which holds the engine, and a cancelled timer would otherwise
        keep that cycle alive."""
        if self._event.cancelled or self._event.fired:
            return False
        self._event.cancelled = True
        self._event.callback = _cancelled
        if self._on_cancel is not None:
            self._on_cancel()
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time} {state}>"


def _cancelled(now: float) -> None:
    """The callback of a cancelled event, which never fires."""


def weak_callback(method: Callable[[float], Any]) -> Callable[[float], None]:
    """An event callback that calls the bound ``method`` while its object
    lives and does nothing once it has been freed.

    A pending event holds its callback, and the engine holds the event,
    so a bound method of an object that holds the engine ties the two
    into a cycle for as long as the event is pending. Scheduling the
    weak callback instead leaves the object to its owner: whoever holds
    it must keep it reachable while its events should fire.
    """
    ref = weakref.WeakMethod(method)

    def fire(now: float) -> None:
        target = ref()
        if target is not None:
            target(now)

    return fire
