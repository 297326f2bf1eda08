"""Session arrival processes, deterministic given their RNG stream.

Every process maps ``(rng, horizon)`` to a sorted tuple of arrival
times in ``[0, horizon)``. Processes hold no mutable state: the caller
passes a named :class:`numpy.random.Generator` (from the replication's
:class:`~repro.sim.rng.RngRegistry`), so the same seed always produces
the same arrival times — the property the bit-identical parallel==serial
guarantee of the experiment stack rests on. Every draw is consumed in a
fixed order for the same reason, and no process ever emits an event at
exactly ``t == horizon`` (the window is half-open).

The families:

* :class:`FixedIntervalProcess` — deterministic, evenly spaced sessions
  (a cron-like workload; consumes no randomness);
* :class:`PoissonProcess` — homogeneous Poisson arrivals via
  exponential inter-arrival gaps (memoryless users);
* :class:`InhomogeneousPoissonProcess` — arbitrary time-varying rate,
  described either by a plain callable with an explicit ceiling or by a
  :class:`~repro.workloads.rates.RateShape`, simulated exactly by
  Lewis–Shedler **thinning** (candidates from a homogeneous process at
  the ceiling, kept with probability ``rate(t)/rate_max``);
* :class:`BurstyProcess` / :class:`DiurnalProcess` /
  :class:`FlashCrowdProcess` — named specializations over the square
  wave, raised-cosine diurnal cycle, and flash-crowd rate shapes;
* :class:`TraceReplayProcess` — replays recorded arrival timestamps
  (optionally shifted, rescaled, and looped); consumes no randomness.
"""

from __future__ import annotations

import abc
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.workloads.rates import DiurnalRate, FlashCrowdRate, RateShape


class ArrivalProcess(abc.ABC):
    """Generates session arrival times over a finite horizon."""

    @abc.abstractmethod
    def arrivals(self, rng: np.random.Generator, horizon: float) -> Tuple[float, ...]:
        """Sorted arrival times in ``[0, horizon)``.

        Args:
            rng: The stream supplying every random draw; equal states
                yield equal times.
            horizon: End of the observation window (seconds). The
                window is half-open: no event is ever emitted at
                exactly ``t == horizon``.
        """

    @staticmethod
    def _check_horizon(horizon: float) -> None:
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")


class FixedIntervalProcess(ArrivalProcess):
    """One session every ``interval`` seconds, starting at ``offset``.

    Deterministic — the ``rng`` argument is accepted for interface
    uniformity and never drawn from.
    """

    def __init__(self, interval: float, offset: float = 0.0) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        if offset < 0:
            raise ValueError(f"offset must be non-negative, got {offset}")
        self.interval = float(interval)
        self.offset = float(offset)

    def arrivals(self, rng: np.random.Generator, horizon: float) -> Tuple[float, ...]:
        self._check_horizon(horizon)
        times = []
        t = self.offset
        while t < horizon:
            times.append(t)
            t += self.interval
        return tuple(times)


class PoissonProcess(ArrivalProcess):
    """Homogeneous Poisson arrivals at ``rate`` sessions per second."""

    def __init__(self, rate: float) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = float(rate)

    def arrivals(self, rng: np.random.Generator, horizon: float) -> Tuple[float, ...]:
        self._check_horizon(horizon)
        times = []
        t = float(rng.exponential(1.0 / self.rate))
        while t < horizon:
            times.append(t)
            t += float(rng.exponential(1.0 / self.rate))
        return tuple(times)


class InhomogeneousPoissonProcess(ArrivalProcess):
    """Time-varying Poisson arrivals from an arbitrary rate function.

    The rate is either a plain callable ``t -> λ(t)`` with an explicit
    ceiling ``rate_max``, or a :class:`~repro.workloads.rates.RateShape`
    (ceiling inferred from :meth:`~repro.workloads.rates.RateShape.bound`).

    Arrivals are simulated exactly by Lewis–Shedler thinning: candidate
    times from a homogeneous process at ``rate_max``; a candidate at
    ``t`` survives with probability ``rate(t) / rate_max``. The
    acceptance draw is consumed for *every* candidate (accepted or not),
    so draws are consumed in a fixed order that depends only on the
    drawn values, never on wall-clock or call history.

    A ceiling of exactly ``0`` (a shape that is zero everywhere, e.g.
    an empty trace histogram) is a valid degenerate process: it emits
    nothing and consumes no draws.

    Args:
        rate: Instantaneous rate function with ``0 <= λ(t) <= rate_max``
            over the horizon, or a :class:`RateShape`.
        rate_max: A (tight, for efficiency) upper bound on ``rate``.
            Required for plain callables; defaults to the shape's own
            bound and may not be below it.
    """

    def __init__(
        self,
        rate: Union[RateShape, Callable[[float], float]],
        rate_max: Optional[float] = None,
    ) -> None:
        self.shape: Optional[RateShape] = rate if isinstance(rate, RateShape) else None
        if rate_max is None:
            if self.shape is None:
                raise ValueError("rate_max is required for a plain-callable rate")
            rate_max = self.shape.bound()
        if rate_max < 0:
            raise ValueError(f"rate_max must be >= 0, got {rate_max}")
        if self.shape is not None and rate_max < self.shape.bound():
            raise ValueError(
                f"rate_max {rate_max} is below the shape's bound "
                f"{self.shape.bound()}"
            )
        self.rate = rate
        self.rate_max = float(rate_max)

    def arrivals(self, rng: np.random.Generator, horizon: float) -> Tuple[float, ...]:
        self._check_horizon(horizon)
        if self.rate_max == 0.0:
            return ()
        times = []
        t = float(rng.exponential(1.0 / self.rate_max))
        while t < horizon:
            lam = self.rate(t)
            if lam < 0 or lam > self.rate_max + 1e-12:
                raise ValueError(
                    f"rate({t:.3f}) = {lam} outside [0, rate_max={self.rate_max}]"
                )
            if float(rng.random()) < lam / self.rate_max:
                times.append(t)
            t += float(rng.exponential(1.0 / self.rate_max))
        return tuple(times)


class BurstyProcess(InhomogeneousPoissonProcess):
    """Square-wave rate: a quiet baseline with periodic bursts.

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

        def rate(t: float) -> float:
            phase = (t % self.period) / self.period
            return self.burst_rate if phase < self.burst_fraction else self.base_rate

        super().__init__(rate, rate_max=self.burst_rate)


class DiurnalProcess(InhomogeneousPoissonProcess):
    """Raised-cosine day/night arrival cycle (diurnal traffic).

    A named :class:`InhomogeneousPoissonProcess` over
    :class:`~repro.workloads.rates.DiurnalRate`: the rate swings between
    ``base_rate`` at the trough (``t = phase``) and ``peak_rate`` at the
    crest half a period later, averaging ``(base + peak) / 2`` over
    whole periods. Simulated horizons usually compress the "day" far
    below 86400 s so one run spans whole cycles.
    """

    def __init__(
        self,
        base_rate: float,
        peak_rate: float,
        period: float,
        phase: float = 0.0,
    ) -> None:
        super().__init__(DiurnalRate(base_rate, peak_rate, period, phase))


class FlashCrowdProcess(InhomogeneousPoissonProcess):
    """Baseline traffic hit by one flash crowd.

    A named :class:`InhomogeneousPoissonProcess` over
    :class:`~repro.workloads.rates.FlashCrowdRate`: baseline
    ``base_rate`` until ``onset``, a linear ramp to ``peak_rate`` over
    ``rise`` seconds, then exponential relaxation with time constant
    ``decay`` — sudden onset, slow dissipation, the empirical flash-
    crowd signature.
    """

    def __init__(
        self,
        base_rate: float,
        peak_rate: float,
        onset: float,
        rise: float = 10.0,
        decay: float = 30.0,
    ) -> None:
        super().__init__(FlashCrowdRate(base_rate, peak_rate, onset, rise, decay))


class TraceReplayProcess(ArrivalProcess):
    """Replays recorded arrival timestamps.

    The trace is normalized once at construction: timestamps are
    scaled by ``time_scale``, shifted by ``offset``, sorted, and exact
    duplicates collapsed (the output contract is strictly increasing
    times). Replay is fully deterministic — the ``rng`` argument is
    never drawn from — and clipped to ``[0, horizon)`` like every other
    process, so a trace recorded over a longer window simply truncates.

    Args:
        times: Recorded arrival timestamps (seconds, ``>= 0``).
        offset: Added to every (scaled) timestamp.
        time_scale: Multiplier applied to the raw timestamps —
            ``0.5`` replays the trace twice as fast.
        loop_period: If given, the (post-scale) trace repeats every
            ``loop_period`` seconds until the horizon; must exceed the
            last scaled timestamp so copies never interleave.
    """

    def __init__(
        self,
        times: Sequence[float],
        offset: float = 0.0,
        time_scale: float = 1.0,
        loop_period: Optional[float] = None,
    ) -> None:
        if time_scale <= 0:
            raise ValueError(f"time_scale must be positive, got {time_scale}")
        if offset < 0:
            raise ValueError(f"offset must be non-negative, got {offset}")
        scaled = sorted(float(t) * time_scale for t in times)
        if scaled and scaled[0] < 0:
            raise ValueError(f"trace timestamps must be >= 0, got {scaled[0]}")
        deduped = []
        for t in scaled:
            if not deduped or t > deduped[-1]:
                deduped.append(t)
        if loop_period is not None:
            if not deduped:
                raise ValueError("cannot loop an empty trace")
            if loop_period <= deduped[-1]:
                raise ValueError(
                    f"loop_period {loop_period} must exceed the last scaled "
                    f"timestamp {deduped[-1]}"
                )
        self.times = tuple(deduped)
        self.offset = float(offset)
        self.time_scale = float(time_scale)
        self.loop_period = None if loop_period is None else float(loop_period)

    def arrivals(self, rng: np.random.Generator, horizon: float) -> Tuple[float, ...]:
        self._check_horizon(horizon)
        out: list = []
        base = self.offset
        while True:
            emitted = False
            for t in self.times:
                at = base + t
                if at >= horizon:
                    break
                # Adding offsets can round two distinct trace times onto
                # the same float; collapse those like construction-time
                # duplicates to keep the output strictly increasing.
                if not out or at > out[-1]:
                    out.append(at)
                emitted = True
            if self.loop_period is None or not emitted:
                break
            base += self.loop_period
        return tuple(out)
