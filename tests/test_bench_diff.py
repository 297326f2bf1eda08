"""Tests for the bench-report differ (tools/bench_diff.py)."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_diff  # noqa: E402 - needs the tools/ path above

from repro.experiments.config import SweepConfig  # noqa: E402
from repro.experiments.reporting import Table  # noqa: E402
from repro.experiments.store import ResultsStore, new_run_record  # noqa: E402
from repro.metrics.stats import describe  # noqa: E402


def write_bench(
    root: Path,
    suite: str = "EX",
    means=(1.0, 2.0),
    spread: float = 0.0,
    wall: float = 1.0,
) -> Path:
    """A minimal two-point bench report with controllable means/noise."""
    table = Table("t", ["point", "m1", "m2"])
    for point in ("p0", "p1"):
        table.add_row(
            point,
            describe([means[0] - spread, means[0], means[0] + spread]),
            describe([means[1] - spread, means[1], means[1] + spread]),
        )
    record = new_run_record(suite, table, SweepConfig(seeds=(1, 2, 3)), wall)
    return ResultsStore(root).write_bench(record)


def test_identical_reports_pass(tmp_path, capsys):
    old = write_bench(tmp_path / "a")
    new = write_bench(tmp_path / "b")
    assert bench_diff.main([str(old), str(new), "--rtol", "0"]) == 0
    out = capsys.readouterr().out
    assert "all metric means identical" in out


def test_drift_beyond_tolerance_fails(tmp_path, capsys):
    old = write_bench(tmp_path / "a", means=(1.0, 2.0))
    new = write_bench(tmp_path / "b", means=(1.2, 2.0))
    assert bench_diff.main([str(old), str(new), "--rtol", "0.05"]) == 1
    err = capsys.readouterr().err
    assert "regression(s) beyond the noise band" in err
    assert "m1" in err


def test_drift_within_rtol_passes(tmp_path):
    old = write_bench(tmp_path / "a", means=(1.0, 2.0))
    new = write_bench(tmp_path / "b", means=(1.02, 2.0))
    assert bench_diff.main([str(old), str(new), "--rtol", "0.05"]) == 0


def test_ci_slack_absorbs_noisy_drift(tmp_path):
    old = write_bench(tmp_path / "a", means=(1.0, 2.0), spread=0.5)
    new = write_bench(tmp_path / "b", means=(1.3, 2.0), spread=0.5)
    # Raw drift 0.3 >> rtol 0, but both cells carry wide 95% CIs.
    assert bench_diff.main([str(old), str(new), "--rtol", "0"]) == 0
    assert bench_diff.main(
        [str(old), str(new), "--rtol", "0", "--no-ci-slack"]
    ) == 1


def test_wall_time_reported_not_gated_by_default(tmp_path, capsys):
    old = write_bench(tmp_path / "a", wall=1.0)
    new = write_bench(tmp_path / "b", wall=10.0)
    assert bench_diff.main([str(old), str(new)]) == 0
    assert "wall time: 1.00s -> 10.00s" in capsys.readouterr().out
    assert bench_diff.main([str(old), str(new), "--wall-rtol", "0.5"]) == 1


def test_summary_vs_raw_cell_mismatch_exits_2(tmp_path, capsys):
    """A cell that is a summary in one report but raw in the other is
    'not comparable', not a crash or a silent skip."""
    old = write_bench(tmp_path / "a")
    new = write_bench(tmp_path / "b")
    data = json.loads(new.read_text())
    data["table"]["rows"][0][1] = 1.0  # raw float where old has a summary
    new.write_text(json.dumps(data))
    assert bench_diff.main([str(old), str(new)]) == 2
    err = capsys.readouterr().err
    assert "summary only in old report" in err


def write_bench_samples(root: Path, samples, wall: float = 1.0) -> Path:
    """A one-point bench report whose single metric carries exactly the
    given per-seed samples (for paired bootstrap-band tests)."""
    table = Table("t", ["point", "m1"])
    table.add_row("p0", describe(list(samples)))
    seeds = tuple(range(1, len(samples) + 1))
    record = new_run_record("EX", table, SweepConfig(seeds=seeds), wall)
    return ResultsStore(root).write_bench(record)


def test_bootstrap_band_accepts_within_noise_jitter(tmp_path, capsys):
    """A drift whose paired per-seed differences straddle zero is
    replication noise, not a regression — even with --rtol 0 semantics
    (the band comes from the samples, not a hand-picked tolerance)."""
    old = write_bench_samples(tmp_path / "a", [1.0, 2.0, 3.0, 4.0, 5.0])
    new = write_bench_samples(tmp_path / "b", [1.3, 1.8, 3.2, 3.9, 5.0])
    assert bench_diff.main([str(old), str(new), "--band", "bootstrap"]) == 0
    out = capsys.readouterr().out
    assert "noise band" in out
    assert "ok: within the noise band" in out


def test_bootstrap_band_rejects_real_regression(tmp_path, capsys):
    """A consistent shift in every seed gives a degenerate paired
    interval that excludes zero — flagged no matter how small."""
    old = write_bench_samples(tmp_path / "a", [1.0, 2.0, 3.0, 4.0, 5.0])
    new = write_bench_samples(tmp_path / "b", [1.05, 2.05, 3.05, 4.05, 5.05])
    assert bench_diff.main([str(old), str(new), "--band", "bootstrap"]) == 1
    err = capsys.readouterr().err
    assert "excludes zero" in err


def test_exact_gates_fail_a_tiny_consistent_drift(tmp_path, capsys):
    """Both exact gates are exact: a cell whose mean and every per-seed
    sample moved by 5e-10 regresses under --rtol 0 --no-ci-slack and
    under the bootstrap band (degenerate interval [5e-10, 5e-10])."""
    old = write_bench_samples(tmp_path / "a", [1.0, 2.0, 3.0])
    new = write_bench_samples(tmp_path / "b", [1.0 + 5e-10, 2.0 + 5e-10, 3.0 + 5e-10])
    assert bench_diff.main(
        [str(old), str(new), "--rtol", "0", "--no-ci-slack"]
    ) == 1
    assert bench_diff.main([str(old), str(new), "--band", "bootstrap"]) == 1
    assert "excludes zero" in capsys.readouterr().err


def test_bootstrap_band_exact_on_identical_samples(tmp_path, capsys):
    """Bit-identical cells pass exactly — deterministic metrics keep
    their exact gate under the bootstrap band."""
    old = write_bench_samples(tmp_path / "a", [1.0, 2.0, 3.0])
    new = write_bench_samples(tmp_path / "b", [1.0, 2.0, 3.0])
    assert bench_diff.main([str(old), str(new), "--band", "bootstrap"]) == 0
    assert "all metric means identical" in capsys.readouterr().out


def test_bootstrap_band_falls_back_without_samples(tmp_path, capsys):
    """Schema-v1 reports (no per-seed samples) fall back to the rtol
    rule per cell, with the fallback noted in the drift line."""
    old = write_bench_samples(tmp_path / "a", [1.0, 2.0, 3.0])
    new = write_bench_samples(tmp_path / "b", [1.3, 2.3, 3.3])
    for path in (old, new):
        data = json.loads(path.read_text())
        for row in data["table"]["rows"]:
            del row[1]["__summary__"]["samples"]
        path.write_text(json.dumps(data))
    assert bench_diff.main(
        [str(old), str(new), "--band", "bootstrap", "--rtol", "0.5"]
    ) == 0
    assert "no samples, rtol rule" in capsys.readouterr().out
    assert bench_diff.main(
        [str(old), str(new), "--band", "bootstrap", "--rtol", "0.01",
         "--no-ci-slack"]
    ) == 1


def test_incomparable_reports_exit_2(tmp_path, capsys):
    old = write_bench(tmp_path / "a", suite="EX")
    new = write_bench(tmp_path / "b", suite="EY")
    assert bench_diff.main([str(old), str(new)]) == 2
    assert "not comparable" in capsys.readouterr().err


def test_malformed_report_exits_2(tmp_path):
    old = write_bench(tmp_path / "a")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"not": "a bench report"}))
    with pytest.raises(SystemExit) as excinfo:
        bench_diff.load_report(bad)
    assert excinfo.value.code == 2
    missing = tmp_path / "missing.json"
    with pytest.raises(SystemExit):
        bench_diff.load_report(missing)
    assert bench_diff.main([str(old), str(old)]) == 0  # self-diff sanity
