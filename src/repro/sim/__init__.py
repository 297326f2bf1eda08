"""Discrete-event simulation kernel.

This subpackage is the substrate everything else runs on: a deterministic,
seedable discrete-event engine of scheduled callbacks, named RNG streams,
an optional trace sink (off by default), and the rewindable id sequences
replications reset.

The kernel is deliberately small and dependency-free. Determinism is a hard
requirement for a reproduction: two runs with the same seed must produce
identical traces, so simultaneous events are totally ordered by
``(time, priority, sequence number)``.

Quick example::

    from repro.sim import Engine

    eng = Engine(seed=42)

    def hello(now):
        print(f"hello at t={now}")

    eng.schedule(5.0, hello)
    eng.run(until=10.0)
"""

from repro.sim.engine import Engine
from repro.sim.events import Event, EventHandle, Priority
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecord, TraceSink

__all__ = [
    "Engine",
    "Event",
    "EventHandle",
    "Priority",
    "RngRegistry",
    "TraceRecord",
    "TraceSink",
]
