"""Golden-trace regression tests for the arrival layer.

``tests/data/arrival_trace.json`` is a committed "recorded" arrival
trace (300 s capture with a burst around t = 180);
``arrival_trace_golden.json`` pins the exact outputs the trace-driven
machinery produced when the fixtures were committed. Any drift in
replay normalization, histogram binning, or the thinning draw order
shows up as a golden mismatch here — long before it silently perturbs
the committed E-suite bench snapshots.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.experiments.config import SweepConfig
from repro.experiments.parallel import run_batch
from repro.experiments.store import ResultsStore
from repro.workloads.arrivals import (
    InhomogeneousPoissonProcess,
    TraceReplayProcess,
)
from repro.workloads.contention import run_contention
from repro.workloads.rates import PiecewiseConstantRate
from repro.workloads.registry import get_scenario

DATA = Path(__file__).parent / "data"
FIXTURE = json.loads((DATA / "arrival_trace.json").read_text())
GOLDEN = json.loads((DATA / "arrival_trace_golden.json").read_text())

TIMES = FIXTURE["times"]
HORIZON = FIXTURE["capture_seconds"]


def test_trace_replay_matches_golden():
    """Plain replay: sorted, the one exact duplicate collapsed, clipped
    to the capture window — exactly the committed output."""
    got = TraceReplayProcess(TIMES).arrivals(np.random.default_rng(0), HORIZON)
    assert list(got) == GOLDEN["replay_plain"]
    assert len(got) == len(TIMES) - 1  # 44.1 appears twice in the capture


def test_trace_replay_scaled_offset_matches_golden():
    got = TraceReplayProcess(TIMES, offset=5.0, time_scale=0.5).arrivals(
        np.random.default_rng(0), 160.0
    )
    assert list(got) == GOLDEN["replay_scaled_offset"]


def test_trace_replay_looped_matches_golden():
    got = TraceReplayProcess(TIMES, loop_period=300.0).arrivals(
        np.random.default_rng(0), 650.0
    )
    assert list(got) == GOLDEN["replay_looped"]
    # Two full copies plus the head of a third fit in 650 s.
    assert len(got) == 37


def test_trace_histogram_matches_golden():
    """from_trace bins the capture into the committed empirical rate."""
    hist = PiecewiseConstantRate.from_trace(TIMES, bin_width=30.0, horizon=HORIZON)
    assert list(hist.edges) == GOLDEN["hist_edges"]
    assert list(hist.rates) == GOLDEN["hist_rates"]
    # The burst bin [180, 210) dominates the empirical intensity.
    assert max(hist.rates) == hist.rates[6]


def test_trace_driven_thinning_matches_golden():
    """Arrivals simulated from the trace-derived rate shape are a pure
    function of the seed — pinned draw-for-draw."""
    proc = InhomogeneousPoissonProcess(
        PiecewiseConstantRate.from_trace(TIMES, bin_width=30.0, horizon=HORIZON)
    )
    got = proc.arrivals(np.random.default_rng(42), HORIZON)
    assert list(got) == GOLDEN["thinning_seed42"]


def test_e21_parallel_batch_bit_identical_to_serial(tmp_path):
    """The diurnal-mix / flash-crowd tables (via E21) are byte-identical
    between the serial and the parallel scheduler — the determinism
    guarantee extended over the inhomogeneous arrival streams."""
    serial = run_batch(
        ["E21"], SweepConfig(seeds=(1, 2), quick=True, jobs=1),
        store=ResultsStore(tmp_path / "serial"),
    )[0]
    parallel = run_batch(
        ["E21"], SweepConfig(seeds=(1, 2), quick=True, jobs=2),
        store=ResultsStore(tmp_path / "parallel"),
    )[0]
    cmp = ResultsStore.compare(serial, parallel)
    assert cmp.identical, cmp.differences
    cmp = ResultsStore.compare(
        ResultsStore(tmp_path / "serial").load_bench("E21"),
        ResultsStore(tmp_path / "parallel").load_bench("E21"),
    )
    assert cmp.identical, cmp.differences


def test_streaming_scenarios_pure_function_of_seed():
    """diurnal-mix and flash-crowd replications re-run bit-identical —
    the per-scenario grounding under the E21 suite pin above."""
    for name in ("diurnal-mix", "flash-crowd"):
        config = get_scenario(name).config.replace(horizon=60.0)
        first = run_contention(9, config).metrics()
        second = run_contention(9, config).metrics()
        assert first == second, name
        assert first["offered"] >= 0.0
