"""Radio connectivity and link-quality models.

:class:`DiscRadio` is the standard unit-disc model: two nodes are linked
iff their distance is at most ``range_m``. Link bandwidth degrades with
distance (rate-adaptation, as in 802.11): full nominal bandwidth up to
half range, then linear fall-off to ``min_rate_fraction`` at the edge.
Message loss probability rises from ``base_loss`` at zero distance to
``edge_loss`` at full range.

These three curves (connectivity, bandwidth, loss) are everything the
negotiation layer observes about the PHY.
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from repro.network.geometry import Point, distance


class RadioModel(abc.ABC):
    """Predicts link existence and quality from node positions.

    Radio models are *isotropic*: link existence and quality are pure
    functions of the sender–receiver distance. That contract is what
    lets the topology arena evaluate a model over many pairs at once —
    the ``*_matrix`` methods below take an array of exact distances
    (the candidate pairs of
    :func:`repro.network.geometry.candidate_pairs`, as a vector) and
    must agree elementwise, bit for bit, with their scalar
    counterparts. The base-class implementations guarantee that by
    looping the scalar methods over synthetic collinear positions;
    concrete models override them with numpy broadcasting.
    """

    #: Distance beyond which the results are the out-of-range constants
    #: (``in_range`` False, ``bandwidth`` 0.0, ``loss_probability``
    #: 1.0). The arena measures no pair beyond it and stores those
    #: constants there instead. ``None`` means every pair is measured.
    matrix_distance_cutoff: Optional[float] = None

    @abc.abstractmethod
    def in_range(self, a: Point, b: Point) -> bool:
        """Whether a direct link exists between positions ``a`` and ``b``."""

    @abc.abstractmethod
    def bandwidth(self, a: Point, b: Point) -> float:
        """Link bandwidth in kb/s (0.0 when out of range)."""

    @abc.abstractmethod
    def loss_probability(self, a: Point, b: Point) -> float:
        """Per-message loss probability in [0, 1] (1.0 when out of range)."""

    # -- vectorized counterparts --------------------------------------------
    #
    # ``dist`` holds exact distances (``math.hypot``); a pair at
    # distance d and the positions (0, 0)-(d, 0) are indistinguishable to
    # an isotropic model, so the fallbacks below are bit-identical to the
    # scalar methods by construction.

    def in_range_matrix(self, dist: np.ndarray) -> np.ndarray:
        """Elementwise :meth:`in_range` over a distance array."""
        origin = (0.0, 0.0)
        return np.fromiter(
            (self.in_range(origin, (d, 0.0)) for d in dist.ravel().tolist()),
            dtype=bool, count=dist.size,
        ).reshape(dist.shape)

    def bandwidth_matrix(self, dist: np.ndarray) -> np.ndarray:
        """Elementwise :meth:`bandwidth` over a distance array."""
        origin = (0.0, 0.0)
        return np.fromiter(
            (self.bandwidth(origin, (d, 0.0)) for d in dist.ravel().tolist()),
            dtype=np.float64, count=dist.size,
        ).reshape(dist.shape)

    def loss_matrix(self, dist: np.ndarray) -> np.ndarray:
        """Elementwise :meth:`loss_probability` over a distance array."""
        origin = (0.0, 0.0)
        return np.fromiter(
            (self.loss_probability(origin, (d, 0.0)) for d in dist.ravel().tolist()),
            dtype=np.float64, count=dist.size,
        ).reshape(dist.shape)


class DiscRadio(RadioModel):
    """Unit-disc connectivity with distance-adaptive rate and loss.

    Args:
        range_m: Radio range in meters.
        nominal_bandwidth: Full link rate in kb/s at close distance.
        min_rate_fraction: Fraction of nominal rate remaining at the edge
            of the range (simple two-segment rate adaptation).
        base_loss: Loss probability at distance 0.
        edge_loss: Loss probability at the range edge.
    """

    def __init__(
        self,
        range_m: float = 100.0,
        nominal_bandwidth: float = 5000.0,
        min_rate_fraction: float = 0.2,
        base_loss: float = 0.0,
        edge_loss: float = 0.1,
    ) -> None:
        if range_m <= 0:
            raise ValueError("radio range must be positive")
        if not (0.0 <= min_rate_fraction <= 1.0):
            raise ValueError("min_rate_fraction must be in [0, 1]")
        if not (0.0 <= base_loss <= 1.0 and 0.0 <= edge_loss <= 1.0):
            raise ValueError("loss probabilities must be in [0, 1]")
        self.range_m = float(range_m)
        self.nominal_bandwidth = float(nominal_bandwidth)
        self.min_rate_fraction = float(min_rate_fraction)
        self.base_loss = float(base_loss)
        self.edge_loss = float(edge_loss)

    @property
    def matrix_distance_cutoff(self) -> float:  # type: ignore[override]
        """Beyond the radio range every matrix entry is a constant."""
        return self.range_m

    def in_range(self, a: Point, b: Point) -> bool:
        return distance(a, b) <= self.range_m

    def bandwidth(self, a: Point, b: Point) -> float:
        d = distance(a, b)
        if d > self.range_m:
            return 0.0
        half = self.range_m / 2.0
        if d <= half:
            return self.nominal_bandwidth
        # Linear fall-off from nominal at half range to the floor at edge.
        frac = (d - half) / half
        factor = 1.0 - frac * (1.0 - self.min_rate_fraction)
        return self.nominal_bandwidth * factor

    def loss_probability(self, a: Point, b: Point) -> float:
        d = distance(a, b)
        if d > self.range_m:
            return 1.0
        frac = d / self.range_m
        return self.base_loss + frac * (self.edge_loss - self.base_loss)

    # -- vectorized counterparts --------------------------------------------
    #
    # Same IEEE double operations as the scalar methods, applied
    # elementwise — bit-identical wherever ``dist`` is exact (pinned by
    # ``tests/test_topology_vector.py``).

    def in_range_matrix(self, dist: np.ndarray) -> np.ndarray:
        return dist <= self.range_m

    def bandwidth_matrix(self, dist: np.ndarray) -> np.ndarray:
        bw = np.zeros(dist.shape, dtype=np.float64)
        in_r = dist <= self.range_m
        half = self.range_m / 2.0
        near = in_r & (dist <= half)
        bw[near] = self.nominal_bandwidth
        far = in_r & ~near
        if far.any():
            frac = (dist[far] - half) / half
            factor = 1.0 - frac * (1.0 - self.min_rate_fraction)
            bw[far] = self.nominal_bandwidth * factor
        return bw

    def loss_matrix(self, dist: np.ndarray) -> np.ndarray:
        loss = np.ones(dist.shape, dtype=np.float64)
        in_r = dist <= self.range_m
        if in_r.any():
            frac = dist[in_r] / self.range_m
            loss[in_r] = self.base_loss + frac * (self.edge_loss - self.base_loss)
        return loss
