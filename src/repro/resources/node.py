"""Nodes of the ad-hoc network: capacities, position, energy.

The paper's environment "is expected to be heterogeneous, consisting of
nodes with several resource capabilities" — telephones, PDAs, laptops, and
optionally fixed infrastructure (Section 1 explicitly keeps wired clusters
in scope). :data:`NODE_CLASS_PROFILES` provides calibrated capacity
vectors per device class; individual nodes may override them.

A :class:`Node` owns one :class:`~repro.resources.manager.ResourceManager`
for admission control and a battery whose energy is destructively consumed
by task execution (the paper's motivation for offloading).
"""

from __future__ import annotations

import enum
import weakref
from typing import Callable, List, Optional, Tuple

from repro.errors import ResourceError
from repro.resources.capacity import Capacity
from repro.resources.kinds import ResourceKind
from repro.resources.manager import ResourceManager


class NodeClass(enum.Enum):
    """Device classes of the heterogeneous ad-hoc environment."""

    PHONE = "phone"
    PDA = "pda"
    LAPTOP = "laptop"
    FIXED = "fixed"
    """Fixed infrastructure node (mains-powered, wired backhaul)."""


#: Per-class capacity profiles. Units: CPU in abstract Mops/s, memory in
#: MB, bus bandwidth in MB/s, network bandwidth in kb/s, energy in joules.
#: The ratios (not absolute numbers) matter: phones ≈ 1/20 of a laptop's
#: CPU, fixed nodes are effectively unconstrained in energy.
NODE_CLASS_PROFILES: dict[NodeClass, Capacity] = {
    NodeClass.PHONE: Capacity.of(
        cpu=50.0, memory=32.0, bus_bandwidth=10.0, net_bandwidth=1000.0, energy=3_000.0
    ),
    NodeClass.PDA: Capacity.of(
        cpu=200.0, memory=64.0, bus_bandwidth=40.0, net_bandwidth=2000.0, energy=8_000.0
    ),
    NodeClass.LAPTOP: Capacity.of(
        cpu=1000.0, memory=512.0, bus_bandwidth=200.0, net_bandwidth=5000.0, energy=50_000.0
    ),
    NodeClass.FIXED: Capacity.of(
        cpu=4000.0, memory=4096.0, bus_bandwidth=800.0, net_bandwidth=10000.0,
        energy=1e12,
    ),
}


class Node:
    """A device participating in the ad-hoc network.

    Args:
        node_id: Unique identifier.
        node_class: Device class; selects the default capacity profile.
        capacity: Optional explicit capacity overriding the class profile.
        position: Initial 2-D position in meters.
        willing: Whether the node volunteers for coalitions (Section 4.2:
            "those nodes who are willing to belong to the future
            coalition"). Unwilling nodes never answer calls-for-proposals.
    """

    def __init__(
        self,
        node_id: str,
        node_class: NodeClass = NodeClass.PDA,
        capacity: Optional[Capacity] = None,
        position: Tuple[float, float] = (0.0, 0.0),
        willing: bool = True,
    ) -> None:
        self.node_id = node_id
        self.node_class = node_class
        self.capacity = capacity if capacity is not None else NODE_CLASS_PROFILES[node_class]
        self.position = (float(position[0]), float(position[1]))
        self.willing = willing
        self.manager = ResourceManager(self.capacity, name=f"rm:{node_id}")
        self.battery = self.capacity.get(ResourceKind.ENERGY)
        self.alive = True
        self._liveness_watchers: List[weakref.WeakMethod] = []

    # -- liveness observers ----------------------------------------------

    def add_liveness_watcher(self, watcher: Callable[["Node"], None]) -> None:
        """Register a bound method fired whenever ``alive`` flips (death
        by battery drain, :meth:`fail`, :meth:`recover`). The topology
        layer uses this to bump its cache epoch the instant liveness
        changes.

        The node holds the method weakly: a topology watches its nodes,
        not the other way round, so a dropped topology is freed by
        reference counting while its nodes live on, and its watcher
        falls silent. Silent watchers are dropped here, so a node that
        outlives many topologies holds only the live ones, in the order
        they were added.
        """
        ref = weakref.WeakMethod(watcher)
        live = [known for known in self._liveness_watchers if known() is not None]
        if ref not in live:
            live.append(ref)
        self._liveness_watchers = live

    def remove_liveness_watcher(self, watcher: Callable[["Node"], None]) -> None:
        try:
            self._liveness_watchers.remove(weakref.WeakMethod(watcher))
        except ValueError:
            pass

    def _set_alive(self, alive: bool) -> None:
        if alive == self.alive:
            return
        self.alive = alive
        for ref in tuple(self._liveness_watchers):
            watcher = ref()
            if watcher is not None:
                watcher(self)

    # -- energy ----------------------------------------------------------

    @property
    def battery_fraction(self) -> float:
        """Remaining battery as a fraction of initial energy (0..1)."""
        initial = self.capacity.get(ResourceKind.ENERGY)
        if initial <= 0:
            return 1.0
        return max(0.0, min(1.0, self.battery / initial))

    def consume_energy(self, joules: float) -> None:
        """Destructively draw energy; a drained battery kills the node."""
        if joules < 0:
            raise ResourceError(f"negative energy draw: {joules}")
        self.battery = max(0.0, self.battery - joules)
        if self.battery == 0.0 and self.capacity.get(ResourceKind.ENERGY) < 1e11:
            self._set_alive(False)

    def fail(self) -> None:
        """Mark the node failed (crash / out of range permanently)."""
        self._set_alive(False)

    def recover(self) -> None:
        """Bring a failed node back (battery unchanged)."""
        if self.battery > 0.0 or self.capacity.get(ResourceKind.ENERGY) >= 1e11:
            self._set_alive(True)

    # -- geometry ----------------------------------------------------------

    def move_to(self, x: float, y: float) -> None:
        self.position = (float(x), float(y))

    def distance_to(self, other: "Node") -> float:
        dx = self.position[0] - other.position[0]
        dy = self.position[1] - other.position[1]
        return (dx * dx + dy * dy) ** 0.5

    def __repr__(self) -> str:
        return (
            f"<Node {self.node_id!r} {self.node_class.value} "
            f"@({self.position[0]:.1f},{self.position[1]:.1f}) "
            f"{'alive' if self.alive else 'down'}>"
        )
