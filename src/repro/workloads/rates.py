"""Rate shapes for inhomogeneous arrival processes.

A :class:`RateShape` is a deterministic description of a time-varying
arrival intensity ``λ(t)`` (sessions per second): callable at any
``t >= 0``, with a known finite upper bound (:meth:`RateShape.bound`,
the thinning ceiling) and a closed-form cumulative intensity
``Λ(t) = ∫₀ᵗ λ(s) ds`` (:meth:`RateShape.cumulative`, what the
property tests compare empirical counts against and what rate-matched
controls read).

Shapes are plain values — no RNG state — so an
:class:`~repro.workloads.arrivals.InhomogeneousPoissonProcess` built
from one stays a pure function of its seed.

Four shapes:

* :class:`ConstantRate` — flat ``λ`` (E23's crash hazard).
* :class:`BurstRate` — a square wave: periodic bursts at
  ``burst_rate`` over a ``base_rate`` baseline, the synchronized
  demand spikes of ``burst-octet``.
* :class:`DiurnalRate` — a raised-cosine day/night cycle between
  ``base_rate`` (trough) and ``peak_rate`` (crest), the canonical
  diurnal traffic model. ``period`` is usually compressed far below
  86400 s so a simulated horizon spans whole "days".
* :class:`FlashCrowdRate` — baseline plus a flash crowd: linear ramp
  to ``peak_rate`` over ``rise`` seconds starting at ``onset``, then
  exponential decay with time constant ``decay`` (the empirical
  flash-crowd signature: sudden onset, slow dissipation).
"""

from __future__ import annotations

import abc
import math


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


class BurstRate(RateShape):
    """A square wave: a quiet baseline with periodic bursts.

    Each period of ``period`` seconds opens with a burst window of
    ``burst_fraction * period`` seconds at ``burst_rate``; the rest of
    the period runs at ``base_rate``. Models synchronized demand spikes
    (everyone requests as the meeting starts), the regime where
    contention between requesters is harshest.
    """

    def __init__(
        self,
        base_rate: float,
        burst_rate: float,
        period: float = 60.0,
        burst_fraction: float = 0.25,
    ) -> None:
        if base_rate < 0 or burst_rate <= 0:
            raise ValueError("rates must be positive (base_rate may be 0)")
        if burst_rate < base_rate:
            raise ValueError("burst_rate must be >= base_rate")
        if period <= 0 or not (0.0 < burst_fraction <= 1.0):
            raise ValueError("need period > 0 and burst_fraction in (0, 1]")
        self.base_rate = float(base_rate)
        self.burst_rate = float(burst_rate)
        self.period = float(period)
        self.burst_fraction = float(burst_fraction)

    def __call__(self, t: float) -> float:
        phase = (t % self.period) / self.period
        return self.burst_rate if phase < self.burst_fraction else self.base_rate

    def bound(self) -> float:
        return self.burst_rate

    def cumulative(self, t: float) -> float:
        # Whole cycles, then the partial one: its burst window first.
        cycles, rest = divmod(t, self.period)
        burst = self.burst_fraction * self.period
        per_cycle = self.burst_rate * burst + self.base_rate * (self.period - burst)
        in_burst = min(rest, burst)
        return (
            cycles * per_cycle
            + self.burst_rate * in_burst
            + self.base_rate * (rest - in_burst)
        )

    def __repr__(self) -> str:
        return (
            f"BurstRate(base={self.base_rate:g}, burst={self.burst_rate:g}, "
            f"period={self.period:g}, fraction={self.burst_fraction:g})"
        )


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
