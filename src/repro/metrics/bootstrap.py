"""Nonparametric bootstrap confidence intervals for replication rows.

The suites replicate every sweep point over 8–30 seeds and report
``mean ± ci`` — historically with the normal approximation
(:func:`repro.metrics.stats.describe`), which silently assumes the
per-seed metric is Gaussian. Success rates near 1, drop rates near 0
and wall-clock timings are not, so this module provides the honest
alternative: resample the replication rows themselves and take the
empirical ``α/2`` and ``1 − α/2`` quantiles of the resampled means (the
percentile interval; simple, monotone-invariant, first-order accurate).

Everything is deterministic: resampling indices are a pure function of
``(len(samples), n_resamples, seed)`` via a dedicated
:class:`~numpy.random.Generator` seeded per call — never a shared
stream — so reports carrying bootstrap intervals stay bit-identical
between serial and parallel runs.

:func:`bootstrap_diff_ci` is the interval of the mean of **paired**
per-seed differences between two runs over the same seed list, for
reporting how far one configuration moved a metric against another: an
interval that excludes zero is a shift distinguishable from replication
noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Sequence

import numpy as np

#: Default resample count — ample for 95 % endpoints at suite seed counts.
DEFAULT_RESAMPLES = 2000

#: Default seed of the dedicated resampling generator. Fixed, so every
#: bootstrap interval is reproducible and independent of call order.
DEFAULT_SEED = 1905


@dataclass(frozen=True)
class BootstrapCI:
    """One two-sided bootstrap confidence interval for a sample mean."""

    lo: float
    hi: float
    mean: float
    alpha: float
    n_resamples: int

    @property
    def half_width(self) -> float:
        """Half the interval width (for comparison with the normal CI)."""
        return (self.hi - self.lo) / 2.0

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi

    def __str__(self) -> str:
        return (
            f"[{self.lo:.4f}, {self.hi:.4f}] "
            f"({1 - self.alpha:.0%}, B={self.n_resamples})"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "lo": self.lo, "hi": self.hi, "mean": self.mean,
            "alpha": self.alpha, "n_resamples": self.n_resamples,
        }


def resample_indices(n: int, n_resamples: int, seed: int) -> np.ndarray:
    """The ``(n_resamples, n)`` index matrix every bootstrap here uses.

    A pure function of its arguments (dedicated PCG64 generator), so
    intervals never depend on any ambient RNG state.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.integers(0, n, size=(n_resamples, n))


def _degenerate(mean: float, alpha: float, n_resamples: int) -> BootstrapCI:
    return BootstrapCI(
        lo=mean, hi=mean, mean=mean, alpha=alpha, n_resamples=n_resamples,
    )


def bootstrap_ci(
    samples: Sequence[float],
    alpha: float = 0.05,
    n_resamples: int = DEFAULT_RESAMPLES,
    seed: int = DEFAULT_SEED,
) -> BootstrapCI:
    """A two-sided ``1 − alpha`` percentile bootstrap CI for the mean of
    ``samples``.

    Degenerate inputs short-circuit exactly: a single observation, or a
    constant sample, yields the zero-width interval ``[mean, mean]``
    without consuming any randomness (resampling a constant can only
    reproduce it — the closed form the unit tests pin).

    Args:
        samples: The replication rows (one metric across seeds).
        alpha: Two-sided miss probability (``0.05`` → 95 % interval).
        n_resamples: Bootstrap resamples ``B``.
        seed: Seed of the dedicated resampling generator.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if n_resamples < 1:
        raise ValueError(f"n_resamples must be >= 1, got {n_resamples}")
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot bootstrap an empty sample")
    mean = float(arr.mean())
    if arr.size == 1 or float(arr.min()) == float(arr.max()):
        return _degenerate(mean, alpha, n_resamples)

    idx = resample_indices(arr.size, n_resamples, seed)
    boot_means = arr[idx].mean(axis=1)
    lo, hi = np.quantile(boot_means, [alpha / 2.0, 1.0 - alpha / 2.0])
    return BootstrapCI(
        lo=float(lo), hi=float(hi), mean=mean, alpha=alpha,
        n_resamples=n_resamples,
    )


def bootstrap_diff_ci(
    old: Sequence[float],
    new: Sequence[float],
    alpha: float = 0.05,
    n_resamples: int = DEFAULT_RESAMPLES,
    seed: int = DEFAULT_SEED,
) -> BootstrapCI:
    """The bootstrap CI of the mean **paired** difference ``new − old``.

    Both samples must align element-wise: replicate both sides over the
    same seed list, so row *i* of each side is the same seed. Zero
    outside the interval means the shift is distinguishable from
    replication noise at level ``alpha``; identical inputs give exactly
    ``[0, 0]``.
    """
    a = np.asarray(old, dtype=float)
    b = np.asarray(new, dtype=float)
    if a.shape != b.shape:
        raise ValueError(
            f"paired samples must align, got lengths {a.size} != {b.size}"
        )
    return bootstrap_ci(b - a, alpha=alpha, n_resamples=n_resamples, seed=seed)

