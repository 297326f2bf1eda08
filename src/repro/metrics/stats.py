"""Aggregation statistics for seed sweeps.

Experiments run each configuration over several seeds; these helpers turn
the per-seed samples into the mean ± CI rows the reports print. Two
intervals travel with every summary:

* ``ci_half_width`` — the classical normal-approximation 95 % CI
  half-width (what the rendered ``mean±ci`` cells show, unchanged so
  archived tables stay byte-identical);
* ``boot_lo`` / ``boot_hi`` — a nonparametric 95 % percentile bootstrap
  CI (:mod:`repro.metrics.bootstrap`), assumption-free and therefore
  honest for the success/drop rates and timings that are nowhere near
  Gaussian.

Summaries also retain the raw per-seed ``samples``, so two reports
compare exactly, seed by seed: ``ResultsStore.compare`` (and
``tools/bench_diff.py`` in front of it) names each seed whose value
moved, even when the mean did not. The intervals and samples are
deterministic functions of the per-seed values, so the parallel ==
serial bit-identity guarantee is untouched.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

#: 97.5 % standard-normal quantile, for 95 % two-sided intervals.
Z_95 = 1.959963984540054


@dataclass(frozen=True)
class Summary:
    """Descriptive statistics of one metric across replications.

    The trailing optional fields (``samples``, ``boot_lo``, ``boot_hi``)
    are populated by :func:`describe` but default to ``None`` so
    summaries persisted before they existed still deserialize (and
    hand-built test summaries still construct positionally).
    """

    mean: float
    std: float
    ci_half_width: float
    n: int
    minimum: float
    maximum: float
    samples: Optional[Tuple[float, ...]] = None
    boot_lo: Optional[float] = None
    boot_hi: Optional[float] = None

    def __str__(self) -> str:
        return f"{self.mean:.4f} ± {self.ci_half_width:.4f} (n={self.n})"

    def bootstrap_interval(self) -> Tuple[float, float]:
        """The 95 % percentile-bootstrap interval ``(lo, hi)``.

        Falls back to the degenerate ``(mean, mean)`` for summaries
        predating the bootstrap fields.
        """
        if self.boot_lo is None or self.boot_hi is None:
            return (self.mean, self.mean)
        return (self.boot_lo, self.boot_hi)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serializable form; :meth:`from_dict` round-trips it."""
        data = asdict(self)
        if data["samples"] is not None:
            data["samples"] = list(data["samples"])
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Summary":
        samples = data.get("samples")
        boot_lo = data.get("boot_lo")
        boot_hi = data.get("boot_hi")
        return cls(
            mean=float(data["mean"]),
            std=float(data["std"]),
            ci_half_width=float(data["ci_half_width"]),
            n=int(data["n"]),
            minimum=float(data["minimum"]),
            maximum=float(data["maximum"]),
            samples=None if samples is None else tuple(float(s) for s in samples),
            boot_lo=None if boot_lo is None else float(boot_lo),
            boot_hi=None if boot_hi is None else float(boot_hi),
        )


def describe(samples: Sequence[float]) -> Summary:
    """Mean, sample std, 95 % CI half-width, extremes — plus the raw
    samples and their 95 % percentile bootstrap interval."""
    # Local import: repro.metrics.bootstrap builds on numpy only, but
    # keeping stats importable first avoids any cycle temptation.
    from repro.metrics.bootstrap import bootstrap_ci

    if len(samples) == 0:
        raise ValueError("cannot describe an empty sample")
    arr = np.asarray(samples, dtype=float)
    n = len(arr)
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if n > 1 else 0.0
    half = Z_95 * std / math.sqrt(n) if n > 1 else 0.0
    boot = bootstrap_ci(arr)
    return Summary(
        mean=mean, std=std, ci_half_width=half, n=n,
        minimum=float(arr.min()), maximum=float(arr.max()),
        samples=tuple(float(x) for x in arr),
        boot_lo=boot.lo, boot_hi=boot.hi,
    )


def mean_ci(samples: Sequence[float]) -> tuple[float, float]:
    """(mean, 95 % CI half-width) shortcut."""
    s = describe(samples)
    return s.mean, s.ci_half_width


def confidence_interval(samples: Sequence[float]) -> tuple[float, float]:
    """95 % confidence interval (lo, hi) for the mean."""
    s = describe(samples)
    return s.mean - s.ci_half_width, s.mean + s.ci_half_width


def summarize_rows(rows: Sequence[Dict[str, float]]) -> Dict[str, Summary]:
    """Column-wise :func:`describe` over dict rows sharing keys."""
    if not rows:
        raise ValueError("no rows to summarize")
    return {k: describe([r[k] for r in rows]) for k in rows[0]}
