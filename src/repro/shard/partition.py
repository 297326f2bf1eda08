"""Spatial partitioning: the shard grid over the deployment area.

A :class:`ShardGrid` cuts the square deployment plane into ``gx × gy``
rectangular cells; each cell is one **cluster shard**. Nodes are homed
to the cell containing their position, every shard simulates its own
:class:`~repro.network.topology.Topology` arena, and cross-shard traffic
is carried between per-shard **gateway** nodes over a backhaul whose
cost is proportional to the Manhattan distance between cells (see
:mod:`repro.shard.cluster` and ``docs/sharding.md``).

:meth:`ShardGrid.auto` picks the grid so that

* cells are never narrower than one radio range (a finer grid would cut
  most direct links, making the shard approximation dominate), and
* shards stay near a target occupancy (the O(m²) per-shard arena cost is
  what sharding bounds).

At the historical scenario scales (≤ 64 nodes, area ≈ one radio range)
both bounds force a **1 × 1 grid**, so the sharded machinery degenerates
structurally to the single-cluster path — the basis of the bit-identity
pin in ``tests/test_shard.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

#: Target node count per shard for :meth:`ShardGrid.auto` — large enough
#: that intra-shard neighborhoods look like a full historical cluster,
#: small enough that a per-shard O(m²) rebuild stays at a few
#: milliseconds (2–3 ms for 256 nodes on a 2-vCPU Xeon VM), which
#: every mobility tick pays per touched shard.
DEFAULT_SHARD_OCCUPANCY = 256


@dataclass(frozen=True)
class ShardGrid:
    """A ``gx × gy`` grid of rectangular shard cells over the plane.

    Attributes:
        width: Deployment area width (m).
        height: Deployment area height (m).
        gx: Number of cells along x.
        gy: Number of cells along y.
    """

    width: float
    height: float
    gx: int
    gy: int

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("shard grid area must be positive")
        if self.gx < 1 or self.gy < 1:
            raise ValueError("shard grid needs at least one cell per axis")

    @classmethod
    def auto(
        cls,
        area: float,
        radio_range: float,
        n_nodes: int,
        target_occupancy: int = DEFAULT_SHARD_OCCUPANCY,
    ) -> "ShardGrid":
        """The default square grid for a square deployment.

        The grid side is the *smaller* of two bounds: cells at least one
        radio range wide (``area // radio_range``) and roughly
        ``target_occupancy`` nodes per shard (``ceil(sqrt(n/target))``).
        Small dense scenarios — every historical suite — land on 1 × 1.
        """
        if target_occupancy < 1:
            raise ValueError("target_occupancy must be >= 1")
        by_radio = max(1, int(area // radio_range)) if radio_range > 0 else 1
        by_count = max(1, math.ceil(math.sqrt(max(n_nodes, 1) / target_occupancy)))
        g = min(by_radio, by_count)
        return cls(width=area, height=area, gx=g, gy=g)

    # -- cell arithmetic ---------------------------------------------------

    @property
    def n_shards(self) -> int:
        return self.gx * self.gy

    @property
    def cell_width(self) -> float:
        return self.width / self.gx

    @property
    def cell_height(self) -> float:
        return self.height / self.gy

    def cell_of(self, x: float, y: float) -> Tuple[int, int]:
        """The ``(cx, cy)`` cell containing a position (clamped into the
        grid, so positions on or beyond the boundary stay homed)."""
        cx = min(self.gx - 1, max(0, int(x // self.cell_width)))
        cy = min(self.gy - 1, max(0, int(y // self.cell_height)))
        return cx, cy

    def shard_of(self, x: float, y: float) -> int:
        """Shard id (row-major cell index) of a position."""
        cx, cy = self.cell_of(x, y)
        return cy * self.gx + cx

    def cell_index(self, shard: int) -> Tuple[int, int]:
        """Inverse of :meth:`shard_of`'s row-major numbering."""
        if not (0 <= shard < self.n_shards):
            raise IndexError(f"shard {shard} out of range [0, {self.n_shards})")
        return shard % self.gx, shard // self.gx

    def cell_center(self, shard: int) -> Tuple[float, float]:
        """Geometric center of a shard's cell (gateway election anchor)."""
        cx, cy = self.cell_index(shard)
        return ((cx + 0.5) * self.cell_width, (cy + 0.5) * self.cell_height)

    # -- backhaul paths ----------------------------------------------------

    def neighbors_of(self, shard: int) -> Tuple[int, ...]:
        """4-neighborhood of a cell (the backhaul mesh edges)."""
        cx, cy = self.cell_index(shard)
        out: List[int] = []
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nx, ny = cx + dx, cy + dy
            if 0 <= nx < self.gx and 0 <= ny < self.gy:
                out.append(ny * self.gx + nx)
        return tuple(out)

    def hops(self, a: int, b: int) -> int:
        """Backhaul hop count between two shards: the Manhattan distance
        over the 4-neighbor cell mesh (0 for ``a == b``)."""
        ax, ay = self.cell_index(a)
        bx, by = self.cell_index(b)
        return abs(ax - bx) + abs(ay - by)

    def grid_path(self, a: int, b: int) -> Tuple[int, ...]:
        """The deterministic backhaul cell walk from ``a`` to ``b``,
        inclusive of both: x-axis first, then y-axis (an L-shaped
        Manhattan path, so ties between equal-length paths never depend
        on iteration order)."""
        ax, ay = self.cell_index(a)
        bx, by = self.cell_index(b)
        path = [a]
        cx, cy = ax, ay
        step_x = 1 if bx > ax else -1
        while cx != bx:
            cx += step_x
            path.append(cy * self.gx + cx)
        step_y = 1 if by > ay else -1
        while cy != by:
            cy += step_y
            path.append(cy * self.gx + cx)
        return tuple(path)
