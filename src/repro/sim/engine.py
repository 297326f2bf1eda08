"""The discrete-event engine.

:class:`Engine` owns the simulated clock, the pending-event heap, the RNG
registry and the tracer. It is single-threaded and deterministic: given the
same seed and the same schedule of calls, two runs produce identical traces.

Typical use::

    eng = Engine(seed=7)
    eng.schedule(1.0, lambda now: print("tick", now))
    eng.run(until=10.0)
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, Optional

from repro.errors import SchedulingError
from repro.sim.events import Event, EventHandle, Priority
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer


class Engine:
    """Deterministic discrete-event simulation engine.

    Args:
        seed: Master seed for all named RNG streams (see
            :class:`repro.sim.rng.RngRegistry`).
        trace: Optional tracer; a fresh quiet tracer is created if omitted.

    Attributes:
        now: Current simulated time. Starts at 0.0.
        rng: The engine's RNG registry.
        tracer: Structured trace sink.
    """

    def __init__(self, seed: int = 0, trace: Optional[Tracer] = None) -> None:
        self.now: float = 0.0
        self.rng = RngRegistry(seed)
        self.tracer = trace if trace is not None else Tracer()
        self._heap: list[Event] = []
        self._seq: int = 0
        self._running: bool = False
        self._stopped: bool = False
        self._fired: int = 0
        self._pending: int = 0

    # -- scheduling -------------------------------------------------------

    def schedule(
        self,
        delay: float,
        callback: Callable[[float], Any],
        *,
        priority: int = Priority.NORMAL,
    ) -> EventHandle:
        """Schedule ``callback(now)`` to fire ``delay`` time units from now.

        Args:
            delay: Non-negative offset from the current simulated time.
            callback: Invoked with the firing time as its only argument.
            priority: Same-time ordering class (see :class:`Priority`).

        Returns:
            A handle that can cancel the event before it fires.

        Raises:
            SchedulingError: If ``delay`` is negative or not finite.
        """
        if not (delay >= 0.0):  # also rejects NaN
            raise SchedulingError(f"cannot schedule in the past: delay={delay!r}")
        return self.schedule_at(self.now + delay, callback, priority=priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[[float], Any],
        *,
        priority: int = Priority.NORMAL,
    ) -> EventHandle:
        """Schedule ``callback`` at an absolute simulated time.

        Raises:
            SchedulingError: If ``time`` is before the current time.
        """
        if not (time >= self.now):
            raise SchedulingError(
                f"cannot schedule at t={time!r} (now={self.now!r})"
            )
        event = Event(time=time, priority=int(priority), seq=self._seq, callback=callback)
        self._seq += 1
        heapq.heappush(self._heap, event)
        self._pending += 1
        return EventHandle(event, on_cancel=self._on_cancel)

    def _on_cancel(self) -> None:
        """A queued event was cancelled; keep the live counter exact (the
        event itself is lazily discarded when it reaches the heap top)."""
        self._pending -= 1

    # -- execution --------------------------------------------------------

    def step(self) -> bool:
        """Fire the single next pending event.

        Returns:
            ``True`` if an event fired, ``False`` if the queue was empty.
        """
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue  # already subtracted from the pending counter
            if event.time < self.now:  # pragma: no cover - defensive
                raise SchedulingError("event heap yielded a past event")
            self.now = event.time
            self._fired += 1
            self._pending -= 1
            event.fired = True
            event.callback(self.now)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run until the queue drains, ``until`` is reached, or stopped.

        Args:
            until: Inclusive time horizon. Events scheduled exactly at
                ``until`` still fire; later events stay queued and ``now``
                is advanced to ``until``.
            max_events: Optional safety valve on the number of events fired.

        Returns:
            The number of events fired during this call.
        """
        if self._running:
            raise SchedulingError("engine is already running (re-entrant run())")
        self._running = True
        self._stopped = False
        fired = 0
        try:
            while self._heap and not self._stopped:
                if max_events is not None and fired >= max_events:
                    break
                head = self._heap[0]
                if head.cancelled:
                    heapq.heappop(self._heap)
                    continue
                if until is not None and head.time > until:
                    break
                if self.step():
                    fired += 1
            if until is not None and not self._stopped and self.now < until:
                self.now = until
        finally:
            self._running = False
        return fired

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    # -- introspection ----------------------------------------------------

    @property
    def pending(self) -> int:
        """Number of queued, non-cancelled events.

        O(1): a live counter maintained on push, cancel and pop, so
        callers polling this on every tick stay cheap on long runs
        (the old implementation scanned the whole heap each call).
        """
        return self._pending

    @property
    def events_fired(self) -> int:
        """Total events fired over the engine's lifetime."""
        return self._fired

    def peek(self) -> Optional[float]:
        """Time of the next pending event, or ``None`` if the queue is empty."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].time if self._heap else None

    def drain(self) -> Iterable[float]:
        """Run to exhaustion, yielding the time of each fired event.

        Mostly useful in tests that assert on event ordering.
        """
        while self.step():
            yield self.now

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Engine now={self.now} pending={self.pending}>"
