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
* :class:`InhomogeneousPoissonProcess` — the one time-varying process:
  a rate given by a :class:`~repro.workloads.rates.RateShape` (square
  wave, diurnal cycle, flash crowd or constant), simulated exactly by
  Lewis–Shedler **thinning** (candidates from a homogeneous process at
  the shape's ceiling, kept with probability ``λ(t)/ceiling``).
"""

from __future__ import annotations

import abc
from typing import Tuple

import numpy as np

from repro.workloads.rates import RateShape


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
    """One session every ``interval`` seconds, starting at ``t = 0``.

    Deterministic — the ``rng`` argument is accepted for interface
    uniformity and never drawn from.
    """

    def __init__(self, interval: float) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.interval = float(interval)

    def arrivals(self, rng: np.random.Generator, horizon: float) -> Tuple[float, ...]:
        self._check_horizon(horizon)
        times = []
        t = 0.0
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
    """Time-varying Poisson arrivals at the rate of a
    :class:`~repro.workloads.rates.RateShape`.

    Arrivals are simulated exactly by Lewis–Shedler thinning: candidate
    times from a homogeneous process at the ceiling ``shape.bound()``;
    a candidate at ``t`` survives with probability
    ``shape(t) / ceiling``. The acceptance draw is consumed for *every*
    candidate (accepted or not), so draws are consumed in a fixed order
    that depends only on the drawn values, never on wall-clock or call
    history.

    A ceiling of exactly ``0`` (``ConstantRate(0.0)``) is a valid
    degenerate process: it emits nothing and consumes no draws.
    """

    def __init__(self, shape: RateShape) -> None:
        self.shape = shape

    def arrivals(self, rng: np.random.Generator, horizon: float) -> Tuple[float, ...]:
        self._check_horizon(horizon)
        shape = self.shape
        ceiling = shape.bound()
        if ceiling == 0.0:
            return ()
        times = []
        t = float(rng.exponential(1.0 / ceiling))
        while t < horizon:
            lam = shape(t)
            if lam < 0 or lam > ceiling + 1e-12:
                raise ValueError(
                    f"{shape!r}({t:.3f}) = {lam} outside [0, {ceiling}]"
                )
            if float(rng.random()) < lam / ceiling:
                times.append(t)
            t += float(rng.exponential(1.0 / ceiling))
        return tuple(times)
