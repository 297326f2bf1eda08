"""Tests for the parallel experiment runner, the bench reports and the CLI."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.experiments.__main__ import main as cli_main
from repro.experiments.config import SweepConfig
from repro.experiments.parallel import available_jobs, resolve_jobs, run_batch
from repro.experiments.reporting import Table
from repro.experiments.runner import replicate
from repro.experiments.store import ResultsStore, RunRecord, new_run_record
from repro.experiments.suites import SUITE_PLANS
from repro.metrics.stats import Summary, describe
from repro.sim.rng import RngRegistry


def _seeded_run(seed: int) -> dict:
    """A replication in the suites' style: all randomness from the seed."""
    rng = RngRegistry(seed).stream("test")
    return {"draw": float(rng.random()), "seed": float(seed)}


# -- parallel replication ------------------------------------------------------


def test_parallel_matches_serial_bit_identical():
    seeds = (5, 1, 3, 4, 2)
    serial = replicate(_seeded_run, seeds, jobs=1)
    parallel = replicate(_seeded_run, seeds, jobs=3)
    assert serial == parallel  # Summary dataclass equality is exact
    # Samples stay in seed-list order, whichever worker finished first.
    assert parallel["seed"].samples == (5.0, 1.0, 3.0, 4.0, 2.0)


def test_replicate_jobs_flag_routes_to_parallel():
    seeds = (1, 2, 3)
    assert replicate(_seeded_run, seeds, jobs=2) == replicate(_seeded_run, seeds)


def test_parallel_preserves_key_mismatch_error():
    def bad(seed: int) -> dict:
        return {"x": 1.0} if seed == 1 else {"y": 1.0}

    with pytest.raises(ValueError, match="seed 2 returned keys"):
        replicate(bad, (1, 2), jobs=2)
    with pytest.raises(ValueError, match="seed 2 returned keys"):
        replicate(bad, (1, 2), jobs=1)


def test_parallel_propagates_worker_exception():
    def boom(seed: int) -> dict:
        if seed == 2:
            raise RuntimeError(f"seed {seed} exploded")
        return {"x": float(seed)}

    with pytest.raises(RuntimeError, match="seed 2 exploded"):
        replicate(boom, (1, 2, 3), jobs=3)


def test_parallel_closure_capture():
    """Suite-style closures (sweep point via default arg) need no pickling."""
    offset = 10.0

    def run(seed: int, offset=offset) -> dict:
        return {"x": offset + seed}

    summary = replicate(run, (1, 2), jobs=2)
    assert summary["x"].mean == pytest.approx(11.5)


def test_replications_are_history_independent():
    """Id sequences are rewound before every replication, so results
    cannot depend on what ran earlier in the process (the state leak
    that used to make E5 drift between serial and parallel runs)."""
    from repro.services.task import Task
    from repro.sim.sequences import reset_all_sequences

    def run(seed: int) -> dict:
        return {"seq": float(Task.fresh_id().rsplit("-", 1)[-1])}

    Task.fresh_id()  # pollute the process-wide counter
    first = replicate(run, (1, 2))
    Task.fresh_id()
    Task.fresh_id()
    second = replicate(run, (1, 2))
    assert first == second
    assert replicate(run, (1, 2), jobs=2) == first
    reset_all_sequences()
    assert Task.fresh_id() == "task-1"


def test_resolve_jobs():
    assert resolve_jobs(1) == 1
    assert resolve_jobs(4) == 4
    assert resolve_jobs(None) == available_jobs()
    assert resolve_jobs(0) == available_jobs()
    assert available_jobs() >= 1


def test_suite_parallel_matches_serial():
    """A real E-suite produces identical tables under jobs=1 and jobs=2."""
    [serial] = run_batch(["E2"], SweepConfig(seeds=(1, 2), quick=True, jobs=1))
    [parallel] = run_batch(["E2"], SweepConfig(seeds=(1, 2), quick=True, jobs=2))
    comparison = ResultsStore.compare(serial, parallel)
    assert comparison.identical, comparison.differences


def test_run_suite_unknown_id():
    with pytest.raises(KeyError, match="unknown suite"):
        run_batch(["E99"])


# -- bench reports -------------------------------------------------------------


def _record() -> RunRecord:
    table = Table("T", ["point", "metric"], caption="cap")
    table.add_row("a", Summary(1.0, 0.1, 0.05, 4, 0.9, 1.1))
    table.add_row("b", Summary(2.0, 0.2, 0.10, 4, 1.8, 2.2))
    return new_run_record(
        "EX", table, SweepConfig(seeds=(1, 2), quick=True, jobs=2), 1.25
    )


def test_store_round_trip(tmp_path):
    store = ResultsStore(tmp_path)
    record = _record()
    assert store.write_bench(record) == tmp_path / "BENCH_EX.json"
    loaded = store.load_bench("EX")
    assert loaded == record
    comparison = ResultsStore.compare(record, loaded)
    assert comparison.identical and comparison.differences == ()


def test_store_compare_reports_differences():
    record = _record()
    other_table = Table("T", ["point", "metric"], caption="cap")
    other_table.add_row("a", Summary(1.0, 0.1, 0.05, 4, 0.9, 1.1))
    other_table.add_row("b", Summary(9.0, 0.2, 0.10, 4, 1.8, 2.2))
    other = new_run_record(
        "EX", other_table, SweepConfig(seeds=(1, 2), quick=True, jobs=1), 9.0
    )
    comparison = ResultsStore.compare(record, other)
    assert not comparison.identical
    assert any("row 1" in d for d in comparison.differences)
    # Wall time / jobs / run id differences alone do NOT break identity.
    clone = RunRecord(
        suite=record.suite, run_id="other", timestamp="later",
        seeds=record.seeds, quick=record.quick, jobs=99,
        wall_time_s=123.0, table=record.table,
    )
    assert ResultsStore.compare(record, clone).identical


def test_store_compare_names_the_seeds_that_moved():
    """Seeds 1 and 2 swapping values leaves the mean, std and extremes
    unchanged; compare still names each seed that moved, with both
    values. Equal samples name the first differing field instead."""
    sweep = SweepConfig(seeds=(1, 2, 3), quick=True, jobs=1)

    def record(summary: Summary) -> RunRecord:
        table = Table("T", ["point", "metric"])
        table.add_row("a", summary)
        return new_run_record("EX", table, sweep, 1.0)

    before = describe([26.0, 34.0, 37.0])
    swapped = describe([34.0, 26.0, 37.0])
    assert (swapped.mean, swapped.std) == (before.mean, before.std)
    assert ResultsStore.compare(record(before), record(swapped)).differences == (
        "row 0 [metric]: seed 1: 26.0 != 34.0; seed 2: 34.0 != 26.0",
    )
    moved_interval = replace(before, boot_lo=0.0)
    assert ResultsStore.compare(record(before), record(moved_interval)).differences == (
        f"row 0 [metric]: boot_lo: {before.boot_lo!r} != 0.0",
    )


def test_store_latest_and_bench(tmp_path):
    """A suite's report is its latest run: writing again replaces it,
    and the store writes nothing else."""
    store = ResultsStore(tmp_path / "results")
    first = _record()
    store.write_bench(first)
    second = new_run_record(
        "EX", first.table, SweepConfig(seeds=(1, 2), quick=True, jobs=1), 2.5
    )
    store.write_bench(second)
    assert store.load_bench("EX") == second
    assert [p.name for p in (tmp_path / "results").iterdir()] == ["BENCH_EX.json"]
    with pytest.raises(FileNotFoundError):
        store.load_bench("E404")


def test_run_batch_persists_and_echoes(tmp_path):
    store = ResultsStore(tmp_path)
    seen = []
    records = run_batch(
        ["E2"], SweepConfig(seeds=(1, 2), quick=True), store=store,
        echo=seen.append,
    )
    assert len(records) == len(seen) == 1
    assert store.load_bench("E2") == records[0]
    assert records[0].wall_time_s > 0.0


# -- CLI -----------------------------------------------------------------------


def test_cli_writes_bench_json(tmp_path, capsys):
    rc = cli_main([
        "--quick", "--seeds", "2", "--jobs", "2", "--json",
        "--out", str(tmp_path), "E2",
    ])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report[0]["suite"] == "E2"
    assert report[0]["jobs"] == 2
    assert report[0]["wall_time_s"] > 0.0
    assert [p.name for p in tmp_path.iterdir()] == ["BENCH_E2.json"]


def test_cli_no_save_leaves_no_artifacts(tmp_path, capsys):
    rc = cli_main([
        "--quick", "--seeds", "2", "--no-save", "--out", str(tmp_path), "E2",
    ])
    assert rc == 0
    assert "E2 — evaluator selection quality" in capsys.readouterr().out
    assert not (tmp_path / "BENCH_E2.json").exists()


def test_cli_scenario_prints_the_replicate_summary(capsys):
    """--scenario summarizes exactly what replicate does: every seed
    starts from rewound id sequences, so a seed's row cannot depend on
    the seeds run before it, and --jobs only changes where seeds run."""
    from repro.workloads.registry import get_scenario

    rc = cli_main(["--scenario", "streaming-mix", "--seeds", "2", "--jobs", "2"])
    assert rc == 0
    printed = capsys.readouterr().out.splitlines()[2:]
    summary = replicate(get_scenario("streaming-mix").metrics_run, (1, 2))
    width = max(len(key) for key in summary)
    assert printed == [
        f"{key:>{width}}  {stat.mean:.3f}±{stat.std:.3f}"
        for key, stat in summary.items()
    ]


def test_cli_list_matches_all_suites(capsys):
    """The --list output agrees with SUITE_PLANS, whatever its size."""
    assert cli_main(["--list"]) == 0
    header, *body = capsys.readouterr().out.strip().splitlines()
    ids = list(SUITE_PLANS)
    assert header == f"{len(ids)} suites ({ids[0]}–{ids[-1]}):"
    listed = [line.split()[0] for line in body]
    assert listed == ids
