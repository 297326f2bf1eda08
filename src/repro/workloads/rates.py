"""Composable rate shapes for inhomogeneous arrival processes.

A :class:`RateShape` is a deterministic description of a time-varying
arrival intensity ``λ(t)`` (sessions per second): callable at any
``t >= 0``, with a known finite upper bound (:meth:`RateShape.bound`,
the thinning ceiling) and a closed-form cumulative intensity
``Λ(t) = ∫₀ᵗ λ(s) ds`` (:meth:`RateShape.cumulative`, what the
property tests compare empirical counts against and what rate-matched
controls read).

Shapes are plain values — no RNG state — so an
:class:`~repro.workloads.arrivals.InhomogeneousPoissonProcess` built
from one stays a pure function of its seed. They compose: ``a + b``
superposes two shapes (the superposition of independent Poisson
processes is Poisson at the summed rate) and ``1.5 * a`` scales one,
both with exact bounds and cumulatives.

Four primitive shapes:

* :class:`ConstantRate` — flat ``λ``; mainly a composition building
  block (a homogeneous baseline under a spike).
* :class:`DiurnalRate` — a raised-cosine day/night cycle between
  ``base_rate`` (trough) and ``peak_rate`` (crest), the canonical
  diurnal traffic model. ``period`` is usually compressed far below
  86400 s so a simulated horizon spans whole "days".
* :class:`FlashCrowdRate` — baseline plus a flash crowd: linear ramp
  to ``peak_rate`` over ``rise`` seconds starting at ``onset``, then
  exponential decay with time constant ``decay`` (the empirical
  flash-crowd signature: sudden onset, slow dissipation).
* :class:`PiecewiseConstantRate` — an explicit step function; build
  one from recorded arrival timestamps with
  :meth:`PiecewiseConstantRate.from_trace` to replay a trace's *shape*
  (as opposed to replaying its exact timestamps with
  :class:`~repro.workloads.arrivals.TraceReplayProcess`).
"""

from __future__ import annotations

import abc
import math
from typing import Sequence


class RateShape(abc.ABC):
    """A deterministic instantaneous-rate function ``t -> λ(t)``."""

    @abc.abstractmethod
    def __call__(self, t: float) -> float:
        """The instantaneous rate at ``t`` (1/s), always ``>= 0``."""

    @abc.abstractmethod
    def bound(self) -> float:
        """A tight upper bound on ``λ`` over ``t >= 0`` (the thinning
        ceiling). May be ``0`` for an everywhere-zero shape."""

    @abc.abstractmethod
    def cumulative(self, t: float) -> float:
        """The cumulative intensity ``Λ(t) = ∫₀ᵗ λ(s) ds``.

        Non-decreasing with ``Λ(0) = 0``; exact (closed form), so it
        can anchor property tests and rate-matched controls.
        """

    def mean_rate(self, horizon: float) -> float:
        """``Λ(horizon) / horizon`` — the rate-matched homogeneous
        baseline (what an "equal offered load" Poisson control uses)."""
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        return self.cumulative(horizon) / horizon

    def __add__(self, other: "RateShape") -> "RateShape":
        if not isinstance(other, RateShape):
            return NotImplemented
        return SumRate(self, other)

    def __mul__(self, factor: float) -> "RateShape":
        if not isinstance(factor, (int, float)):
            return NotImplemented
        return ScaledRate(self, float(factor))

    __rmul__ = __mul__


class ConstantRate(RateShape):
    """A flat rate ``λ(t) = rate``."""

    def __init__(self, rate: float) -> None:
        if rate < 0:
            raise ValueError(f"rate must be >= 0, got {rate}")
        self.rate = float(rate)

    def __call__(self, t: float) -> float:
        return self.rate

    def bound(self) -> float:
        return self.rate

    def cumulative(self, t: float) -> float:
        return self.rate * t

    def __repr__(self) -> str:
        return f"ConstantRate({self.rate:g})"


class DiurnalRate(RateShape):
    """A raised-cosine day/night cycle.

    ``λ(t) = base + (peak - base) · (1 - cos(2π (t - phase)/period))/2``
    — the trough (``base_rate``) sits at ``t = phase`` (+ whole
    periods), the crest (``peak_rate``) half a period later. The mean
    over whole periods is ``(base + peak) / 2``.
    """

    def __init__(
        self,
        base_rate: float,
        peak_rate: float,
        period: float,
        phase: float = 0.0,
    ) -> None:
        if base_rate < 0:
            raise ValueError(f"base_rate must be >= 0, got {base_rate}")
        if peak_rate < base_rate:
            raise ValueError(
                f"peak_rate must be >= base_rate, got {peak_rate} < {base_rate}"
            )
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self.base_rate = float(base_rate)
        self.peak_rate = float(peak_rate)
        self.period = float(period)
        self.phase = float(phase)

    def _swing(self) -> float:
        return self.peak_rate - self.base_rate

    def __call__(self, t: float) -> float:
        x = 2.0 * math.pi * (t - self.phase) / self.period
        return self.base_rate + self._swing() * (1.0 - math.cos(x)) / 2.0

    def bound(self) -> float:
        return self.peak_rate

    def cumulative(self, t: float) -> float:
        # ∫ (1 - cos(ωs))/2 ds = s/2 - sin(ωs)/(2ω), evaluated on the
        # phase-shifted axis so Λ(0) = 0 for any phase.
        omega = 2.0 * math.pi / self.period

        def antiderivative(s: float) -> float:
            return s / 2.0 - math.sin(omega * s) / (2.0 * omega)

        swing_part = antiderivative(t - self.phase) - antiderivative(-self.phase)
        return self.base_rate * t + self._swing() * swing_part

    def __repr__(self) -> str:
        return (
            f"DiurnalRate(base={self.base_rate:g}, peak={self.peak_rate:g}, "
            f"period={self.period:g}, phase={self.phase:g})"
        )


class FlashCrowdRate(RateShape):
    """Baseline plus one flash crowd: linear onset, exponential decay.

    * ``t < onset`` — baseline ``base_rate``;
    * ``onset <= t < onset + rise`` — linear ramp from ``base_rate``
      to ``peak_rate``;
    * ``t >= onset + rise`` — exponential relaxation back toward the
      baseline with time constant ``decay``.
    """

    def __init__(
        self,
        base_rate: float,
        peak_rate: float,
        onset: float,
        rise: float = 10.0,
        decay: float = 30.0,
    ) -> None:
        if base_rate < 0:
            raise ValueError(f"base_rate must be >= 0, got {base_rate}")
        if peak_rate < base_rate:
            raise ValueError(
                f"peak_rate must be >= base_rate, got {peak_rate} < {base_rate}"
            )
        if onset < 0:
            raise ValueError(f"onset must be >= 0, got {onset}")
        if rise <= 0 or decay <= 0:
            raise ValueError("rise and decay must be positive")
        self.base_rate = float(base_rate)
        self.peak_rate = float(peak_rate)
        self.onset = float(onset)
        self.rise = float(rise)
        self.decay = float(decay)

    def _swing(self) -> float:
        return self.peak_rate - self.base_rate

    def __call__(self, t: float) -> float:
        crest = self.onset + self.rise
        if t < self.onset:
            return self.base_rate
        if t < crest:
            return self.base_rate + self._swing() * (t - self.onset) / self.rise
        return self.base_rate + self._swing() * math.exp(-(t - crest) / self.decay)

    def bound(self) -> float:
        return self.peak_rate

    def cumulative(self, t: float) -> float:
        crest = self.onset + self.rise
        total = self.base_rate * t
        if t > self.onset:
            ramp_end = min(t, crest)
            # Triangle under the linear ramp.
            total += self._swing() * (ramp_end - self.onset) ** 2 / (2.0 * self.rise)
        if t > crest:
            # ∫ e^{-(s-crest)/decay} ds from crest to t.
            total += self._swing() * self.decay * (
                1.0 - math.exp(-(t - crest) / self.decay)
            )
        return total

    def __repr__(self) -> str:
        return (
            f"FlashCrowdRate(base={self.base_rate:g}, peak={self.peak_rate:g}, "
            f"onset={self.onset:g}, rise={self.rise:g}, decay={self.decay:g})"
        )


class PiecewiseConstantRate(RateShape):
    """A step function over ``[0, edges[-1])``; zero outside.

    Args:
        edges: Strictly increasing bin boundaries starting at ``0``
            (``len(rates) + 1`` entries).
        rates: Rate inside each ``[edges[i], edges[i+1])`` bin.
    """

    def __init__(self, edges: Sequence[float], rates: Sequence[float]) -> None:
        edges = tuple(float(e) for e in edges)
        rates = tuple(float(r) for r in rates)
        if len(edges) != len(rates) + 1:
            raise ValueError(
                f"need len(rates)+1 edges, got {len(edges)} edges "
                f"for {len(rates)} rates"
            )
        if not rates:
            raise ValueError("need at least one bin")
        if edges[0] != 0.0:
            raise ValueError(f"edges must start at 0, got {edges[0]}")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError(f"edges must be strictly increasing, got {edges}")
        if any(r < 0 for r in rates):
            raise ValueError(f"rates must be >= 0, got {rates}")
        self.edges = edges
        self.rates = rates

    @classmethod
    def from_trace(
        cls,
        times: Sequence[float],
        bin_width: float,
        horizon: float,
    ) -> "PiecewiseConstantRate":
        """The empirical rate histogram of recorded arrival timestamps.

        Bins ``[0, horizon)`` at ``bin_width`` (the last bin may be
        shorter) and sets each bin's rate to ``count / width`` — the
        maximum-likelihood piecewise-constant intensity of the trace.
        Timestamps outside ``[0, horizon)`` are ignored.
        """
        if bin_width <= 0:
            raise ValueError(f"bin_width must be positive, got {bin_width}")
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        n_bins = max(1, math.ceil(horizon / bin_width))
        edges = [min(i * bin_width, horizon) for i in range(n_bins + 1)]
        edges[-1] = horizon
        counts = [0] * n_bins
        for t in times:
            if 0.0 <= t < horizon:
                counts[min(int(t / bin_width), n_bins - 1)] += 1
        rates = [
            counts[i] / (edges[i + 1] - edges[i]) for i in range(n_bins)
        ]
        return cls(edges, rates)

    def __call__(self, t: float) -> float:
        if t < 0.0 or t >= self.edges[-1]:
            return 0.0
        # Linear scan: shapes have few bins and are evaluated once per
        # thinning candidate; bisect would be noise here.
        for i, edge in enumerate(self.edges[1:]):
            if t < edge:
                return self.rates[i]
        return 0.0  # pragma: no cover - unreachable, t < edges[-1]

    def bound(self) -> float:
        return max(self.rates)

    def cumulative(self, t: float) -> float:
        total = 0.0
        for i, rate in enumerate(self.rates):
            lo, hi = self.edges[i], self.edges[i + 1]
            if t <= lo:
                break
            total += rate * (min(t, hi) - lo)
        return total

    def __repr__(self) -> str:
        return f"PiecewiseConstantRate({len(self.rates)} bins, bound={self.bound():g})"


class SumRate(RateShape):
    """Superposition ``a(t) + b(t)`` (built by ``a + b``)."""

    def __init__(self, a: RateShape, b: RateShape) -> None:
        self.a = a
        self.b = b

    def __call__(self, t: float) -> float:
        return self.a(t) + self.b(t)

    def bound(self) -> float:
        # Sum of bounds: a valid (if not always tight) ceiling.
        return self.a.bound() + self.b.bound()

    def cumulative(self, t: float) -> float:
        return self.a.cumulative(t) + self.b.cumulative(t)

    def __repr__(self) -> str:
        return f"({self.a!r} + {self.b!r})"


class ScaledRate(RateShape):
    """``factor · λ(t)`` (built by ``factor * shape``)."""

    def __init__(self, shape: RateShape, factor: float) -> None:
        if factor < 0:
            raise ValueError(f"factor must be >= 0, got {factor}")
        self.shape = shape
        self.factor = float(factor)

    def __call__(self, t: float) -> float:
        return self.factor * self.shape(t)

    def bound(self) -> float:
        return self.factor * self.shape.bound()

    def cumulative(self, t: float) -> float:
        return self.factor * self.shape.cumulative(t)

    def __repr__(self) -> str:
        return f"{self.factor:g}*{self.shape!r}"
