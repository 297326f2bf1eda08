"""2-D geometry primitives for the network plane.

Scalar helpers (:func:`distance`, :func:`lerp`, ...) operate on
``(x, y)`` tuples; the vectorized counterparts
(:func:`position_array`, :func:`candidate_pairs`,
:func:`exact_distances`) operate on numpy arrays and are the foundation
of the vectorized topology arena. The vectorized distances are
**bit-identical** to the scalar ones: ``math.hypot`` is the single
source of truth. The numpy paths call it per element (via a tight
``map``) and use broadcasting only to rule out pairs that are provably
beyond any threshold a caller compares against (see
:func:`candidate_pairs`).
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Optional, Sequence, Tuple

import numpy as np

Point = Tuple[float, float]
"""A 2-D position in meters."""


def distance(a: Point, b: Point) -> float:
    """Euclidean distance between two points."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


def position_array(positions: Sequence[Point]) -> np.ndarray:
    """Pack points into a contiguous ``(n, 2)`` float64 arena. The
    coordinates stream straight into the buffer: about 2.5x faster than
    ``np.asarray`` on a list of tuples, which converts tuple by tuple."""
    n = len(positions)
    return np.fromiter(
        chain.from_iterable(positions), dtype=np.float64, count=2 * n
    ).reshape(n, 2)


#: Relative slack applied to a cutoff when deciding which pairs get the
#: exact ``math.hypot`` treatment. ``dx*dx + dy*dy`` is within ~3 ulp
#: (relative error < 1e-15) of the exact square, so a 1e-9 margin is
#: sound by more than six orders of magnitude.
_APPROX_MARGIN = 1e-9


def exact_distances(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Elementwise ``math.hypot`` over coordinate-difference arrays.

    ``np.hypot`` differs from ``math.hypot`` in the last ulp for a small
    fraction of inputs, which would break the topology layer's
    bit-identity guarantee — so the exact values come from a tight
    ``map`` over the C-implemented ``math.hypot``.
    """
    flat = np.fromiter(
        map(math.hypot, dx.ravel().tolist(), dy.ravel().tolist()),
        dtype=np.float64,
        count=dx.size,
    )
    return flat.reshape(dx.shape)


def candidate_pairs(
    positions: np.ndarray, cutoff: Optional[float] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs of an ``(n, 2)`` position arena that a distance
    threshold at ``cutoff`` could link, with their exact distances.

    Returns ``(i, j, d)``: the pairs ``i < j``, in row-major order, whose
    broadcast squared distance ``dx*dx + dy*dy`` is at most
    ``(cutoff * (1 + 1e-9))**2`` (every pair when ``cutoff`` is
    ``None``), and ``d[k] == distance(positions[i[k]], positions[j[k]])``
    bit for bit. The broadcast square is within a few ulp of the exact
    one, so every pair at exact distance at most ``cutoff`` is a
    candidate, and every pair left out is strictly beyond it.

    The search is O(n^2) numpy over two ``n x n`` buffers, squared in
    place (one ``flatnonzero`` over the whole matrix, split by
    ``divmod``); only the candidates pay a ``math.hypot`` call, on the
    same coordinate differences the broadcast took.
    """
    n = positions.shape[0]
    x, y = positions[:, 0], positions[:, 1]
    sq = np.subtract.outer(x, x)
    np.square(sq, out=sq)
    dy2 = np.subtract.outer(y, y)
    np.square(dy2, out=dy2)
    sq += dy2
    limit = np.inf if cutoff is None else (cutoff * (1.0 + _APPROX_MARGIN)) ** 2
    i, j = np.divmod(np.flatnonzero(sq <= limit), n)
    upper = i < j
    i, j = i[upper], j[upper]
    return i, j, exact_distances(x[i] - x[j], y[i] - y[j])


def clamp_to_area(p: Point, width: float, height: float) -> Point:
    """Clamp a point into the rectangle ``[0,width] x [0,height]``."""
    return (min(max(p[0], 0.0), width), min(max(p[1], 0.0), height))


def lerp(a: Point, b: Point, t: float) -> Point:
    """Linear interpolation from ``a`` (t=0) to ``b`` (t=1)."""
    return (a[0] + (b[0] - a[0]) * t, a[1] + (b[1] - a[1]) * t)


def heading(a: Point, b: Point) -> Tuple[float, float]:
    """Unit vector from ``a`` toward ``b`` (zero vector if coincident)."""
    d = distance(a, b)
    if d == 0.0:
        return (0.0, 0.0)
    return ((b[0] - a[0]) / d, (b[1] - a[1]) / d)
