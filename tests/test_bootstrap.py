"""Unit tests for repro.metrics.bootstrap (and its stats wiring)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.metrics.bootstrap import (
    bootstrap_ci,
    bootstrap_diff_ci,
    resample_indices,
)
from repro.metrics.stats import Summary, describe


# -- degenerate inputs: exact closed forms ---------------------------------


def test_constant_sample_gives_degenerate_interval():
    """Resampling a constant can only reproduce it: [mean, mean]."""
    ci = bootstrap_ci([3.5] * 12)
    assert (ci.lo, ci.hi, ci.mean) == (3.5, 3.5, 3.5)
    assert ci.half_width == 0.0
    assert ci.contains(3.5) and not ci.contains(3.5000001)


def test_single_observation_gives_degenerate_interval():
    ci = bootstrap_ci([7.0])
    assert (ci.lo, ci.hi) == (7.0, 7.0)


def test_empty_sample_rejected():
    with pytest.raises(ValueError, match="empty"):
        bootstrap_ci([])


def test_parameter_validation():
    with pytest.raises(ValueError, match="alpha"):
        bootstrap_ci([1.0, 2.0], alpha=1.5)
    with pytest.raises(ValueError, match="n_resamples"):
        bootstrap_ci([1.0, 2.0], n_resamples=0)


# -- determinism -----------------------------------------------------------


def test_interval_is_pure_function_of_inputs():
    """Equal (samples, alpha, B, seed) → identical intervals,
    regardless of any ambient RNG state."""
    data = [1.0, 4.0, 2.0, 8.0, 5.0, 3.0]
    a = bootstrap_ci(data)
    np.random.seed(0)
    np.random.random(100)
    b = bootstrap_ci(data)
    assert a == b
    assert bootstrap_ci(data, seed=2) != a  # the seed really is used


def test_resample_indices_pure_and_shaped():
    a = resample_indices(8, 50, seed=3)
    b = resample_indices(8, 50, seed=3)
    assert a.shape == (50, 8)
    assert (a == b).all()
    assert a.min() >= 0 and a.max() < 8
    assert not (a == resample_indices(8, 50, seed=4)).all()


# -- statistical correctness ----------------------------------------------


def test_gaussian_coverage():
    """Over 200 fixed-seed Gaussian datasets (n=25, μ=5, σ=2), the 95%
    interval with B=10000 covers the true mean at roughly its nominal
    rate. The bootstrap undercovers slightly at small n, so accept
    [0.87, 0.99] — far above what a broken interval could reach and
    below certain-coverage degenerate behavior."""
    truth = 5.0
    covered = 0
    for seed in range(200):
        data = np.random.default_rng(seed).normal(truth, 2.0, size=25)
        covered += bootstrap_ci(data, n_resamples=10_000, seed=11).contains(truth)
    rate = covered / 200
    assert 0.87 <= rate <= 0.99, rate


def test_interval_ordering_and_mean_inside():
    data = np.random.default_rng(1).exponential(2.0, size=40)
    ci = bootstrap_ci(data)
    assert ci.lo < ci.hi
    assert ci.contains(float(data.mean()))


# -- paired difference -----------------------------------------------------


def test_diff_identical_samples_is_exactly_zero():
    data = [1.0, 2.0, 3.0]
    ci = bootstrap_diff_ci(data, data)
    assert (ci.lo, ci.hi, ci.mean) == (0.0, 0.0, 0.0)


def test_diff_constant_shift_is_degenerate_and_excludes_zero():
    old = [1.0, 2.0, 3.0, 4.0]
    new = [x + 0.25 for x in old]
    ci = bootstrap_diff_ci(old, new)
    assert (ci.lo, ci.hi) == (0.25, 0.25)
    assert not ci.contains(0.0)


def test_diff_mixed_sign_noise_straddles_zero():
    old = [1.0, 2.0, 3.0, 4.0, 5.0]
    new = [1.2, 1.9, 3.1, 3.8, 5.0]
    ci = bootstrap_diff_ci(old, new)
    assert ci.lo < 0.0 < ci.hi


def test_diff_requires_aligned_samples():
    with pytest.raises(ValueError, match="align"):
        bootstrap_diff_ci([1.0, 2.0], [1.0, 2.0, 3.0])


# -- helpers and wiring ----------------------------------------------------


def test_ci_to_dict_roundtrip_fields():
    ci = bootstrap_ci([1.0, 5.0, 3.0])
    d = ci.to_dict()
    assert set(d) == {"lo", "hi", "mean", "alpha", "n_resamples"}
    assert d["lo"] == ci.lo and d["hi"] == ci.hi
    assert d["alpha"] == 0.05 and d["n_resamples"] == 2000
    assert str(ci) == f"[{ci.lo:.4f}, {ci.hi:.4f}] (95%, B=2000)"


def test_describe_carries_samples_and_bootstrap_fields():
    s = describe([1.0, 2.0, 3.0, 4.0])
    assert s.samples == (1.0, 2.0, 3.0, 4.0)
    assert s.boot_lo is not None and s.boot_hi is not None
    assert s.boot_lo <= s.mean <= s.boot_hi
    assert s.bootstrap_interval() == (s.boot_lo, s.boot_hi)
    # Round-trip through the persistence dicts.
    assert Summary.from_dict(s.to_dict()) == s


def test_summary_loads_schema_v1_dicts():
    """Records persisted before the bootstrap fields still deserialize
    (and report a degenerate bootstrap interval)."""
    v1 = {
        "mean": 1.0, "std": 0.5, "ci_half_width": 0.2, "n": 8,
        "minimum": 0.1, "maximum": 1.9,
    }
    s = Summary.from_dict(v1)
    assert s.samples is None and s.boot_lo is None
    assert s.bootstrap_interval() == (1.0, 1.0)
    assert str(s) == "1.0000 ± 0.2000 (n=8)"
