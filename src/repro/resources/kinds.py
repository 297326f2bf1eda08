"""Resource kinds (paper Section 4: the ``Resource`` definition).

The paper enumerates CPU time, memory, I/O bus bandwidth and network
bandwidth; we add ENERGY because the paper's motivation (Sections 1 and 7)
repeatedly cites battery drain as a reason to offload work.
"""

from __future__ import annotations

import enum


class ResourceKind(enum.Enum):
    """A category of limited hardware/software quantity on a node."""

    CPU = "cpu"
    """CPU time, in MIPS-like abstract work units per second."""

    MEMORY = "memory"
    """Memory, in MB."""

    BUS_BANDWIDTH = "bus_bandwidth"
    """I/O bus bandwidth, in MB/s."""

    NET_BANDWIDTH = "net_bandwidth"
    """Network interface bandwidth, in kb/s."""

    ENERGY = "energy"
    """Battery energy budget, in joule-like units (drawn down over time)."""

    def __str__(self) -> str:
        return self.value


#: Column order of every resource row (a
#: :class:`~repro.resources.capacity.Capacity` and its limits).
KINDS = tuple(ResourceKind)

#: Each kind's column in :data:`KINDS`.
COLUMN = {kind: column for column, kind in enumerate(KINDS)}
