"""Determinism tests for the time-varying arrival streams.

``diurnal-mix`` and ``flash-crowd`` draw their sessions by thinning
over a :class:`~repro.workloads.rates.RateShape`; E21 sweeps both. The
committed ``BENCH_E21.json`` pins their tables exactly, and these tests
check the guarantee underneath it: E21 is byte-identical between the
serial and the parallel scheduler, and each scenario re-runs
bit-identical from its seed.
"""

from __future__ import annotations

from repro.experiments.config import SweepConfig
from repro.experiments.parallel import run_batch
from repro.experiments.store import ResultsStore
from repro.workloads.contention import run_contention
from repro.workloads.registry import get_scenario


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
