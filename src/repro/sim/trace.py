"""Structured event tracing.

Components report events through :meth:`repro.sim.engine.Engine.emit`.
The engine builds a :class:`TraceRecord` only when a :data:`TraceSink`
is attached, and hands it to that sink; without one an event costs one
attribute check. Nothing in the model reads a record back, so attaching
a sink never changes a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass(frozen=True)
class TraceRecord:
    """One trace entry.

    Attributes:
        time: Simulated time of the event.
        category: Coarse grouping, e.g. ``"net"``, ``"negotiation"``.
        event: Event name within the category, e.g. ``"broadcast"``.
        data: Free-form payload (kept small; values should be printable).
    """

    time: float
    category: str
    event: str
    data: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        kv = " ".join(f"{k}={v}" for k, v in self.data.items())
        return f"[{self.time:12.6f}] {self.category}/{self.event} {kv}".rstrip()


#: Receives each record as it is emitted (``list.append``, ``print``, ...).
TraceSink = Callable[[TraceRecord], None]
