"""Tests for the bench-report differ (tools/bench_diff.py)."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import bench_diff  # noqa: E402 - needs the tools/ path above

from repro.experiments.config import SweepConfig  # noqa: E402
from repro.experiments.reporting import Table  # noqa: E402
from repro.experiments.store import ResultsStore, new_run_record  # noqa: E402
from repro.metrics.stats import describe  # noqa: E402

COMMITTED_E18 = REPO / "benchmarks" / "results" / "BENCH_E18.json"


def write_bench(
    root: Path,
    suite: str = "EX",
    samples=(1.0, 2.0, 3.0),
    wall: float = 1.0,
) -> Path:
    """A one-point bench report whose single metric carries exactly the
    given per-seed samples (seeds 1, 2, ...)."""
    table = Table("t", ["point", "m1"])
    table.add_row("p0", describe(list(samples)))
    seeds = tuple(range(1, len(samples) + 1))
    record = new_run_record(suite, table, SweepConfig(seeds=seeds), wall)
    return ResultsStore(root).write_bench(record)


def test_identical_reports_pass(tmp_path, capsys):
    """Run id, timestamp and wall time differ; the results do not."""
    old = write_bench(tmp_path / "a", wall=1.0)
    new = write_bench(tmp_path / "b", wall=1.5)
    assert bench_diff.main([str(old), str(new)]) == 0
    assert "ok: results identical" in capsys.readouterr().out
    assert bench_diff.main([str(COMMITTED_E18), str(COMMITTED_E18)]) == 0


def test_a_mean_preserving_per_seed_change_fails(tmp_path, capsys):
    """Seeds 1 and 2 of the committed E18 snapshot swap their 16-node
    message counts. Mean, std, CI and extremes are unchanged, yet the
    gate fails and names both seeds with both values."""
    data = json.loads(COMMITTED_E18.read_text())
    table = data["table"]
    row = next(r for r in table["rows"] if r[0] == 16)
    samples = row[table["columns"].index("messages")]["__summary__"]["samples"]
    first, second = samples[0], samples[1]
    assert first != second
    samples[0], samples[1] = second, first
    swapped = tmp_path / "BENCH_E18.json"
    swapped.write_text(json.dumps(data))

    assert bench_diff.main([str(COMMITTED_E18), str(swapped)]) == 1
    captured = capsys.readouterr()
    assert (
        f"[messages]: seed 1: {first!r} != {second!r}; "
        f"seed 2: {second!r} != {first!r}"
    ) in captured.out
    assert "1 result difference(s)" in captured.err


def test_exact_gates_fail_a_tiny_consistent_drift(tmp_path, capsys):
    """The gate is exact: every per-seed sample moved by 5e-10 fails,
    and each seed is named."""
    old = write_bench(tmp_path / "a", samples=[1.0, 2.0, 3.0])
    new = write_bench(
        tmp_path / "b", samples=[1.0 + 5e-10, 2.0 + 5e-10, 3.0 + 5e-10]
    )
    assert bench_diff.main([str(old), str(new)]) == 1
    out = capsys.readouterr().out
    for seed, value in ((1, 1.0), (2, 2.0), (3, 3.0)):
        assert f"seed {seed}: {value!r} != {value + 5e-10!r}" in out


def test_structural_differences_fail(tmp_path, capsys):
    """A different suite, or a summary cell replaced by a raw value, is
    a result difference: exit 1, and the difference is named."""
    old = write_bench(tmp_path / "a", suite="EX")
    other_suite = write_bench(tmp_path / "b", suite="EY")
    assert bench_diff.main([str(old), str(other_suite)]) == 1
    assert "suite: 'EX' != 'EY'" in capsys.readouterr().out

    raw = write_bench(tmp_path / "c")
    data = json.loads(raw.read_text())
    data["table"]["rows"][0][1] = 1.0
    raw.write_text(json.dumps(data))
    assert bench_diff.main([str(old), str(raw)]) == 1
    out = capsys.readouterr().out
    assert "row 0 [m1]: " in out and out.count("!= 1.0\n") == 1


def test_wall_time_reported_not_gated_by_default(tmp_path, capsys):
    old = write_bench(tmp_path / "a", wall=1.0)
    new = write_bench(tmp_path / "b", wall=10.0)
    assert bench_diff.main([str(old), str(new)]) == 0
    assert "wall time: 1.00s -> 10.00s" in capsys.readouterr().out
    assert bench_diff.main([str(old), str(new), "--wall-rtol", "0.5"]) == 1
    assert "exceeds --wall-rtol 0.5" in capsys.readouterr().err


def test_malformed_report_exits_2(tmp_path, capsys):
    """Unreadable or malformed reports, and bad invocations, exit 2."""
    old = write_bench(tmp_path / "a")
    not_a_report = tmp_path / "not_a_report.json"
    not_a_report.write_text(json.dumps({"not": "a bench report"}))
    not_json = tmp_path / "not_json.json"
    not_json.write_text("{")
    cases = [
        ([str(old), str(not_a_report)], "not a bench report"),
        ([str(old), str(not_json)], "cannot read bench report"),
        ([str(old), str(tmp_path / "missing.json")], "cannot read bench report"),
        ([str(old)], "usage:"),
        ([str(old), str(old), "--no-such-flag"], "unrecognized arguments"),
    ]
    for argv, message in cases:
        with pytest.raises(SystemExit) as excinfo:
            bench_diff.main(argv)
        assert excinfo.value.code == 2, argv
        assert message in capsys.readouterr().err, argv
