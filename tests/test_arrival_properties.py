"""Property-based tests over the arrival-process layer.

Every arrival process promises the same output contract — sorted,
strictly increasing times inside the half-open ``[0, horizon)`` window,
as a pure function of the RNG state — and the inhomogeneous simulators
additionally promise to be *exact*: over many seeds the empirical count
must match the cumulative intensity ``Λ(horizon) = ∫λ dt``. Hypothesis
sweeps the parameter space for the contract; fixed-seed statistical
checks pin the thinning sampler's exactness via bootstrap CIs.

All hypothesis runs are derandomized so the suite stays deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.metrics.bootstrap import bootstrap_ci
from repro.workloads.arrivals import (
    FixedIntervalProcess,
    InhomogeneousPoissonProcess,
    PoissonProcess,
)
from repro.workloads.rates import (
    BurstRate,
    ConstantRate,
    DiurnalRate,
    FlashCrowdRate,
)

COMMON = settings(derandomize=True, deadline=None, max_examples=50)


def assert_contract(times, horizon):
    """The universal output contract: strictly increasing, in [0, H)."""
    assert isinstance(times, tuple)
    assert all(isinstance(t, float) for t in times)
    assert all(0.0 <= t < horizon for t in times), (times, horizon)
    assert all(a < b for a, b in zip(times, times[1:])), times


# -- contract: every family, swept parameters ------------------------------


@COMMON
@given(
    interval=st.floats(0.5, 50.0),
    horizon=st.floats(1.0, 200.0),
)
def test_fixed_interval_contract(interval, horizon):
    times = FixedIntervalProcess(interval).arrivals(
        np.random.default_rng(0), horizon
    )
    assert_contract(times, horizon)


@COMMON
@given(
    rate=st.floats(1e-3, 2.0),
    horizon=st.floats(1.0, 300.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_poisson_contract(rate, horizon, seed):
    times = PoissonProcess(rate).arrivals(np.random.default_rng(seed), horizon)
    assert_contract(times, horizon)


@COMMON
@given(
    base=st.floats(0.0, 0.2),
    peak_extra=st.floats(1e-3, 1.0),
    period=st.floats(5.0, 120.0),
    phase=st.floats(0.0, 120.0),
    horizon=st.floats(1.0, 300.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_diurnal_contract(base, peak_extra, period, phase, horizon, seed):
    proc = InhomogeneousPoissonProcess(
        DiurnalRate(base, base + peak_extra, period, phase)
    )
    times = proc.arrivals(np.random.default_rng(seed), horizon)
    assert_contract(times, horizon)


@COMMON
@given(
    base=st.floats(0.0, 0.1),
    peak_extra=st.floats(1e-3, 2.0),
    onset=st.floats(0.0, 100.0),
    rise=st.floats(0.5, 30.0),
    decay=st.floats(1.0, 60.0),
    horizon=st.floats(1.0, 300.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_flash_crowd_contract(base, peak_extra, onset, rise, decay, horizon, seed):
    proc = InhomogeneousPoissonProcess(
        FlashCrowdRate(base, base + peak_extra, onset, rise, decay)
    )
    times = proc.arrivals(np.random.default_rng(seed), horizon)
    assert_contract(times, horizon)


@COMMON
@given(
    base=st.floats(0.0, 0.2),
    burst_extra=st.floats(1e-3, 1.0),
    period=st.floats(5.0, 120.0),
    fraction=st.floats(0.05, 1.0),
    horizon=st.floats(1.0, 300.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_bursty_contract(base, burst_extra, period, fraction, horizon, seed):
    proc = InhomogeneousPoissonProcess(
        BurstRate(base, base + burst_extra, period, fraction)
    )
    times = proc.arrivals(np.random.default_rng(seed), horizon)
    assert_contract(times, horizon)


# -- determinism: pure function of the stream, stable across instances -----


@COMMON
@given(seed=st.integers(0, 2**32 - 1))
def test_reinstantiation_is_bit_identical(seed):
    """Two independently constructed processes with equal parameters
    consume equal draws — arrivals depend only on the rng state."""
    a = InhomogeneousPoissonProcess(DiurnalRate(0.02, 0.2, 120.0))
    b = InhomogeneousPoissonProcess(DiurnalRate(0.02, 0.2, 120.0))
    assert a.arrivals(np.random.default_rng(seed), 300.0) == b.arrivals(
        np.random.default_rng(seed), 300.0
    )


# -- exactness: empirical counts vs the cumulative intensity ---------------

EXACTNESS_SHAPES = [
    pytest.param(ConstantRate(0.08), id="constant"),
    pytest.param(DiurnalRate(0.02, 0.25, 90.0, phase=10.0), id="diurnal"),
    pytest.param(FlashCrowdRate(0.02, 0.4, 60.0, 8.0, 25.0), id="flash-crowd"),
    pytest.param(BurstRate(0.02, 0.3, 70.0, 0.3), id="burst"),
]


@pytest.mark.parametrize("shape", EXACTNESS_SHAPES)
def test_counts_match_cumulative_intensity(shape):
    """Thinning is exact: across 300 fixed seeds, the bootstrap CI of
    the mean arrival count covers Λ(horizon) = ∫λ dt."""
    horizon = 200.0
    expected = shape.cumulative(horizon)
    proc = InhomogeneousPoissonProcess(shape)
    counts = [
        float(len(proc.arrivals(np.random.default_rng(seed), horizon)))
        for seed in range(300)
    ]
    ci = bootstrap_ci(counts, alpha=0.01)
    assert ci.contains(expected), (ci, expected, np.mean(counts))


def test_cumulative_matches_numeric_integral():
    """Closed-form Λ agrees with trapezoidal integration of λ, for every
    shape family."""
    shapes = [
        ConstantRate(0.3),
        BurstRate(0.1, 0.6, 40.0, 0.35),
        DiurnalRate(0.05, 0.5, 77.0, phase=13.0),
        FlashCrowdRate(0.04, 0.9, 40.0, 6.0, 20.0),
    ]
    grid = np.linspace(0.0, 150.0, 150_001)
    for shape in shapes:
        numeric = float(np.trapezoid([shape(t) for t in grid], grid))
        assert shape.cumulative(150.0) == pytest.approx(numeric, rel=1e-4, abs=1e-6)


# -- edge audit: zero-rate intervals and the horizon boundary --------------


def test_zero_rate_process_emits_nothing_and_consumes_nothing():
    """An everywhere-zero shape is a valid degenerate process: no
    arrivals, no draws."""
    proc = InhomogeneousPoissonProcess(ConstantRate(0.0))
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    assert proc.arrivals(rng, 100.0) == ()
    assert rng.bit_generator.state == before


def test_no_arrival_at_exactly_horizon():
    """The window is half-open: a fixed-interval tick landing exactly
    on the horizon is excluded."""
    assert FixedIntervalProcess(5.0).arrivals(
        np.random.default_rng(0), 10.0
    ) == (0.0, 5.0)


@COMMON
@given(seed=st.integers(0, 2**32 - 1))
def test_inhomogeneous_never_touches_horizon(seed):
    """Sweep seeds: the strict t < horizon guard holds even at a rate
    spiking right at the boundary."""
    shape = FlashCrowdRate(0.05, 2.0, onset=95.0, rise=2.0, decay=10.0)
    proc = InhomogeneousPoissonProcess(shape)
    times = proc.arrivals(np.random.default_rng(seed), 100.0)
    assert_contract(times, 100.0)


def test_bursty_zero_base_rate_quiet_between_bursts():
    """base_rate = 0 is legal: arrivals only inside burst windows."""
    proc = InhomogeneousPoissonProcess(
        BurstRate(0.0, 0.8, period=50.0, burst_fraction=0.2)
    )
    for seed in range(30):
        times = proc.arrivals(np.random.default_rng(seed), 200.0)
        assert_contract(times, 200.0)
        assert all((t % 50.0) < 10.0 for t in times), times
