"""Node mobility models.

Mobility is what makes the paper's environment "highly dynamic": nodes
drift in and out of radio range, so the set of potential coalition members
changes over time. Three models are provided:

* :class:`StaticPlacement` — nodes stay put (the fixed-infrastructure
  limit case the paper keeps in scope);
* :class:`RandomWaypoint` — the classic ad-hoc-network benchmark model:
  pick a uniform destination, travel at a uniform-random speed, pause,
  repeat;
* :class:`GroupMobility` — a simplified reference-point group model where
  members jitter around a leader following random waypoint, giving
  correlated movement (people walking together with their devices).

All models are deterministic given the engine's RNG streams and advance in
discrete steps of ``tick`` simulated seconds.

The hot advance/scatter geometry is vectorized over a position arena
while RNG values are drawn in the exact per-node order of the original
scalar walks, so traces stay **seed-identical**: random waypoint moves
all mid-leg nodes (no RNG needed) with numpy broadcasting and replays
the scalar state machine only for nodes that arrive, pause or start a
leg; group mobility draws the whole member jitter batch from the stream
in one call (bitwise-equal to the sequential scalar draws).
"""

from __future__ import annotations

import abc
from itertools import compress
from operator import itemgetter
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from repro.network.geometry import (
    Point,
    clamp_to_area,
    distance,
    exact_distances,
    lerp,
    position_array,
)
from repro.resources.node import Node


class MobilityModel(abc.ABC):
    """Advances node positions over simulated time."""

    @abc.abstractmethod
    def place(self, nodes: Sequence[Node]) -> None:
        """Assign initial positions to the nodes."""

    @abc.abstractmethod
    def advance(self, nodes: Sequence[Node], dt: float) -> None:
        """Move the nodes ``dt`` simulated seconds forward."""


class StaticPlacement(MobilityModel):
    """Nodes placed uniformly at random (or explicitly) and never moved.

    Args:
        width: Area width in meters.
        height: Area height in meters.
        rng: RNG stream for the initial uniform placement.
        positions: Optional explicit node→position mapping; nodes not
            listed get a uniform-random position.
    """

    def __init__(
        self,
        width: float,
        height: float,
        rng: np.random.Generator,
        positions: Mapping[str, Point] | None = None,
    ) -> None:
        self.width = float(width)
        self.height = float(height)
        self.rng = rng
        self.positions = dict(positions or {})

    def place(self, nodes: Sequence[Node]) -> None:
        for node in nodes:
            if node.node_id in self.positions:
                node.move_to(*self.positions[node.node_id])
            else:
                node.move_to(
                    float(self.rng.uniform(0, self.width)),
                    float(self.rng.uniform(0, self.height)),
                )

    def advance(self, nodes: Sequence[Node], dt: float) -> None:
        pass  # static by definition


class RandomWaypoint(MobilityModel):
    """The random-waypoint mobility model.

    Each node independently: chooses a uniform destination in the area,
    moves toward it at a speed drawn uniformly from
    ``[speed_min, speed_max]``, pauses ``pause`` seconds on arrival, then
    repeats. ``speed_max = 0`` degenerates to static placement.

    Args:
        width: Area width (m).
        height: Area height (m).
        speed_min: Minimum travel speed (m/s), > 0 unless max is 0.
        speed_max: Maximum travel speed (m/s).
        pause: Pause time at each waypoint (s).
        rng: RNG stream (one shared stream keeps runs reproducible).
    """

    def __init__(
        self,
        width: float,
        height: float,
        speed_min: float,
        speed_max: float,
        pause: float,
        rng: np.random.Generator,
    ) -> None:
        if speed_max < speed_min or speed_min < 0:
            raise ValueError("need 0 <= speed_min <= speed_max")
        self.width = float(width)
        self.height = float(height)
        self.speed_min = float(speed_min)
        self.speed_max = float(speed_max)
        self.pause = float(pause)
        self.rng = rng
        # Per-node state: (destination, speed, remaining pause).
        self._state: Dict[str, Tuple[Point, float, float]] = {}

    def _new_leg(self, node: Node) -> Tuple[Point, float, float]:
        dest = (
            float(self.rng.uniform(0, self.width)),
            float(self.rng.uniform(0, self.height)),
        )
        if self.speed_max <= 0.0:
            speed = 0.0
        else:
            speed = float(self.rng.uniform(max(self.speed_min, 1e-9), self.speed_max))
        return dest, speed, 0.0

    def place(self, nodes: Sequence[Node]) -> None:
        for node in nodes:
            node.move_to(
                float(self.rng.uniform(0, self.width)),
                float(self.rng.uniform(0, self.height)),
            )
            self._state[node.node_id] = self._new_leg(node)

    def advance(self, nodes: Sequence[Node], dt: float) -> None:
        if self.speed_max <= 0.0:
            return
        # Split the fleet: nodes that stay mid-leg for the whole step need
        # no RNG and move by pure geometry (vectorized below); nodes that
        # pause, arrive, or have no leg yet replay the original scalar
        # walk in node order, so the RNG draw sequence is unchanged.
        states = [self._state.get(node.node_id) for node in nodes]
        slow = [True] * len(nodes)
        if dt > 1e-12:
            maybe = [
                i for i, s in enumerate(states)
                if s is not None and s[2] == 0.0
            ]
            if maybe:
                legs = [states[i] for i in maybe]
                pos = position_array([nodes[i].position for i in maybe])
                dest = position_array([leg[0] for leg in legs])
                speed = np.fromiter(
                    map(itemgetter(1), legs), dtype=np.float64, count=len(legs)
                )
                # Exact per-node gap (math.hypot) so the arrive-vs-travel
                # branch decides identically to the scalar walk.
                gap = exact_distances(pos[:, 0] - dest[:, 0], pos[:, 1] - dest[:, 1])
                with np.errstate(divide="ignore"):
                    travel_time = np.where(speed > 0, gap / speed, np.inf)
                moving = travel_time > dt
                if moving.any():
                    with np.errstate(divide="ignore", invalid="ignore"):
                        t = (speed * dt) / gap
                    new_x = pos[:, 0] + (dest[:, 0] - pos[:, 0]) * t
                    new_y = pos[:, 1] + (dest[:, 1] - pos[:, 1]) * t
                    new_x = np.minimum(np.maximum(new_x, 0.0), self.width)
                    new_y = np.minimum(np.maximum(new_y, 0.0), self.height)
                    xs = new_x.tolist()
                    ys = new_y.tolist()
                    # A mid-leg mover keeps its state: dest, speed and
                    # pause are unchanged until it arrives.
                    for k in np.flatnonzero(moving).tolist():
                        i = maybe[k]
                        slow[i] = False
                        nodes[i].move_to(xs[k], ys[k])
        for i, node in compress(enumerate(nodes), slow):
            state = states[i]
            if state is None:
                state = self._new_leg(node)
            remaining = dt
            dest, speed, pausing = state
            pos = node.position
            while remaining > 1e-12:
                if pausing > 0.0:
                    wait = min(pausing, remaining)
                    pausing -= wait
                    remaining -= wait
                    if pausing == 0.0:
                        dest, speed, _ = self._new_leg(node)
                    continue
                gap = distance(pos, dest)
                travel_time = gap / speed if speed > 0 else float("inf")
                if travel_time <= remaining:
                    pos = dest
                    remaining -= travel_time
                    pausing = self.pause
                    if pausing == 0.0:
                        dest, speed, _ = self._new_leg(node)
                else:
                    pos = lerp(pos, dest, (speed * remaining) / gap)
                    remaining = 0.0
            node.move_to(*clamp_to_area(pos, self.width, self.height))
            self._state[node.node_id] = (dest, speed, pausing)


class GroupMobility(MobilityModel):
    """Reference-point group mobility: members jitter around a leader.

    The (virtual) leader follows :class:`RandomWaypoint`; each member's
    position is the leader's plus a bounded random offset refreshed every
    step. Models a group of people moving together with their devices —
    the paper's spontaneous-coalition scenario.

    Args:
        leader_model: The waypoint model driving the group center.
        spread: Maximum member offset from the leader (m).
        rng: RNG stream for the member jitter.
    """

    def __init__(
        self,
        leader_model: RandomWaypoint,
        spread: float,
        rng: np.random.Generator,
    ) -> None:
        if spread < 0:
            raise ValueError("spread must be >= 0")
        self.leader_model = leader_model
        self.spread = float(spread)
        self.rng = rng
        self._leader = Node("__group_leader__")

    def _scatter(self, nodes: Sequence[Node]) -> None:
        cx, cy = self._leader.position
        # One batched draw replaces the per-node (angle, radius) pairs:
        # ``uniform(0, high)`` is ``high * next_double``, so consuming the
        # same stream positions yields bitwise-identical offsets to the
        # scalar loop this replaces.
        u = self.rng.random(2 * len(nodes))
        angles = (2 * np.pi) * u[0::2]
        radii = self.spread * u[1::2]
        xs = cx + radii * np.cos(angles)
        ys = cy + radii * np.sin(angles)
        xs = np.minimum(np.maximum(xs, 0.0), self.leader_model.width)
        ys = np.minimum(np.maximum(ys, 0.0), self.leader_model.height)
        for node, x, y in zip(nodes, xs.tolist(), ys.tolist()):
            node.move_to(x, y)

    def place(self, nodes: Sequence[Node]) -> None:
        self.leader_model.place([self._leader])
        self._scatter(nodes)

    def advance(self, nodes: Sequence[Node], dt: float) -> None:
        self.leader_model.advance([self._leader], dt)
        self._scatter(nodes)
