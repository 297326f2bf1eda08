"""Resource Managers: admission control and reservation accounting.

Paper Section 4: *"Resource Manager: the object that manages a particular
resource. This typically would be implemented by the device driver …, by
the scheduler that manages the CPU, or by software that manages other
resources."*

One :class:`ResourceManager` instance manages the full capacity vector of
a node (conceptually one manager per kind; a single object keeps the
accounting atomic across kinds, which a per-kind split would need a
two-phase protocol for). The invariant maintained at all times::

    reserved + available == capacity     (component-wise)
    reserved <= capacity                 (component-wise)
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.errors import CapacityExceededError, UnknownReservationError
from repro.resources.capacity import Capacity
from repro.resources.reservation import Reservation


class ResourceManager:
    """Admission control over a fixed capacity vector.

    Args:
        capacity: Total capacities managed (the node's ``R_i``).
        name: Label for traces and error messages.
    """

    def __init__(self, capacity: Capacity, name: str = "rm") -> None:
        self.name = name
        self.capacity = capacity
        self._reserved = Capacity.zero()
        self._live: Dict[int, Reservation] = {}

    # -- queries ------------------------------------------------------------

    @property
    def reserved(self) -> Capacity:
        """Currently granted amounts (sum of live reservations)."""
        return self._reserved

    @property
    def available(self) -> Capacity:
        """Remaining admittable amounts."""
        return self.capacity.minus_clamped(self._reserved)

    def can_admit(self, demand: Capacity) -> bool:
        """Whether ``demand`` fits in the remaining capacity."""
        return self.available.covers(demand)

    def utilization(self) -> float:
        """Bottleneck utilization: max over kinds of reserved/capacity."""
        return self.capacity.utilization_of(self._reserved)

    @property
    def live_reservations(self) -> Tuple[Reservation, ...]:
        return tuple(self._live.values())

    # -- admission ------------------------------------------------------------

    def reserve(
        self,
        holder: str,
        demand: Capacity,
        now: float = 0.0,
        ttl: Optional[float] = None,
    ) -> Reservation:
        """Admit ``demand`` and return the reservation receipt.

        Args:
            holder: Task/agent identity for bulk release.
            demand: The requested resource vector.
            now: Current simulated time.
            ttl: Optional lease duration; after ``now + ttl`` the grant is
                reclaimable via :meth:`release_expired`.

        Raises:
            CapacityExceededError: If the demand does not fit; the manager
                state is unchanged in that case (all-or-nothing admission).
        """
        if not self.can_admit(demand):
            raise CapacityExceededError(
                f"{self.name}: demand {demand!r} exceeds available "
                f"{self.available!r} (capacity {self.capacity!r})"
            )
        expires = now + ttl if ttl is not None else None
        reservation = Reservation(
            holder=holder, amounts=demand, granted_at=now, expires_at=expires
        )
        self._reserved = self._reserved + demand
        self._live[reservation.rid] = reservation
        return reservation

    def try_reserve(
        self, holder: str, demand: Capacity, now: float = 0.0
    ) -> Optional[Reservation]:
        """Like :meth:`reserve` but returns ``None`` instead of raising."""
        if not self.can_admit(demand):
            return None
        return self.reserve(holder, demand, now)

    def release(self, reservation: Reservation, now: float = 0.0) -> None:
        """Return a live reservation's amounts to the pool.

        Raises:
            UnknownReservationError: If the reservation is not live here.
        """
        live = self._live.pop(reservation.rid, None)
        if live is None:
            raise UnknownReservationError(
                f"{self.name}: reservation #{reservation.rid} is not live here"
            )
        # Recompute from the live set rather than subtracting: a running
        # difference accumulates float residue (1e-15 leftovers after
        # LIFO churn) that breaks the reserved==0 invariant at idle.
        self._reserved = Capacity.zero()
        for r in self._live.values():
            self._reserved = self._reserved + r.amounts
        live.released_at = now

    def release_holder(self, holder: str, now: float = 0.0) -> int:
        """Release every live reservation of ``holder``; returns the count."""
        mine = [r for r in self._live.values() if r.holder == holder]
        for r in mine:
            self.release(r, now)
        return len(mine)

    def release_expired(self, now: float) -> int:
        """Reclaim every reservation whose lease has lapsed.

        Returns the number reclaimed. Providers sweep this periodically
        (see :class:`~repro.agents.provider.ProviderAgent`), so a grant
        whose CONFIRM was lost on the radio does not dangle forever.
        """
        lapsed = [r for r in self._live.values() if r.expired(now)]
        for r in lapsed:
            self.release(r, now)
        return len(lapsed)

    def next_expiry(self) -> Optional[float]:
        """Earliest lease expiry among live reservations, if any."""
        expiries = [
            r.expires_at for r in self._live.values() if r.expires_at is not None
        ]
        return min(expiries) if expiries else None

    def __repr__(self) -> str:
        return (
            f"<ResourceManager {self.name!r} reserved={self._reserved!r} "
            f"capacity={self.capacity!r}>"
        )
